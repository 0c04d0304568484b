"""Dense reference maps for the test suite, written from the defining formulas.

Nothing here calls vpwave.  Cosine tables are evaluated with the angle
r (2k-1) reduced modulo 4N in exact integer arithmetic, and the ramp, the
basis columns and their norms are spelled out entry by entry, so every
fast-versus-dense check compares two different code paths.  Levels are
passed as any object with integer attributes ``n`` and ``m``.

The high-precision oracles (``series_mp``, ``lambda_mp`` and the end-point
values ``lambda_bar_end_mp`` and ``lambda_tilde_end_mp``) work in ``mpmath``,
and ``pyramid_ld`` in long double.  ``remez_bracket`` brackets the best uniform
error of a polynomial degree on the probe grid by Remez's exchange.

Notation: p_r is the orthonormal Chebyshev polynomial of degree r, mu the
ramp of level (n, m), q_r (0 <= r < n) the modified Chebyshev basis of V and
q~_r (n <= r < 3n) that of W, with squared norms nu_r and v_r.
"""

import math

import mpmath
import numpy as np
import scipy.fft


def cheb_zeros(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return np.cos(((2 * k - 1) / (2 * n)) * np.pi)


def cheb_table(degrees, n: int, nodes=None) -> np.ndarray:
    """p_r at the zeros of the n-point grid, shape (len(degrees), len(nodes));
    ``nodes`` holds 1-based node indices k (default: all n).

    The integers r (2k-1) stay below 2^53, so they and their remainder modulo
    4n are exact in float64; working in place keeps one array of the table's
    size in memory.
    """
    r = np.asarray(degrees, dtype=float)[:, None]
    k = np.arange(1, n + 1) if nodes is None else np.asarray(nodes)
    out = r * (2.0 * k - 1.0)
    np.mod(out, 4.0 * n, out=out)
    out *= np.pi / (2 * n)
    np.cos(out, out=out)
    out *= np.where(r == 0, 1.0 / math.sqrt(math.pi), math.sqrt(2.0 / math.pi))
    return out


def probe_table(degrees, grid_size: int) -> np.ndarray:
    """p_r at the probe points cos(j pi / M), j = 0..M, shape (len(degrees), M+1).

    The angle r j is reduced modulo 2M in exact integer arithmetic and then
    mirrored into [0, M], so every cosine is taken of an angle in [0, pi].
    """
    r = np.asarray(degrees, dtype=np.int64)[:, None]
    reduced = (r * np.arange(grid_size + 1)) % (2 * grid_size)
    reduced = np.minimum(reduced, 2 * grid_size - reduced)
    scale = np.where(r == 0, 1.0 / math.sqrt(math.pi), math.sqrt(2.0 / math.pi))
    return scale * np.cos(reduced * (np.pi / grid_size))


def gauss_cheb_quad(f, n: int) -> float:
    """Gauss-Chebyshev rule (pi/n) sum f(x_k); exact on P_{2n-1} against w.
    ``f`` may take the node array or one node at a time."""
    xs = cheb_zeros(n)
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except TypeError:
        vals = np.array([f(x) for x in xs], dtype=float)
    return float(np.pi / n * vals.sum())


def dct_matrix(n: int) -> np.ndarray:
    """D with dct(v) = D @ v and idct(v) = D.T @ v."""
    return math.sqrt(math.pi / n) * cheb_table(np.arange(n), n)


def ramp(n: int, m: int) -> np.ndarray:
    """mu_r for degrees 0..n+m-1."""
    r = np.arange(n + m)
    return np.where(r <= n - m, 1.0, (n + m - r) / (2.0 * m))


def _approx_columns(n: int, m: int, mu=None) -> list:
    """q_r as [(degree, coefficient), ...]: p_r, or mu_r p_r - mu_{2n-r} p_{2n-r};
    ``mu`` replaces the float ramp (the mpmath oracles pass exact ratios)."""
    mu = ramp(n, m) if mu is None else mu
    return [[(r, 1.0)] if r <= n - m else [(r, mu[r]), (2 * n - r, -mu[2 * n - r])]
            for r in range(n)]


def _detail_columns(n: int, m: int) -> list:
    """q~_r as [(degree, coefficient), ...]: mu_{2n-r} p_r + mu_r p_{2n-r} on
    n <= r < n+m, p_r up to 3n-m, then the level-(3n, m) ramp."""
    mu, mu3 = ramp(n, m), ramp(3 * n, m)
    cols = []
    for r in range(n, 3 * n):
        if r < n + m:
            cols.append([(r, mu[2 * n - r]), (2 * n - r, mu[r])])
        elif r <= 3 * n - m:
            cols.append([(r, 1.0)])
        else:
            cols.append([(r, mu3[r]), (6 * n - r, -mu3[6 * n - r])])
    return cols


def _dense(columns: list, rows: int) -> np.ndarray:
    out = np.zeros((rows, len(columns)))
    for j, col in enumerate(columns):
        for degree, coeff in col:
            out[degree, j] += coeff
    return out


def _norms_sq(columns: list) -> np.ndarray:
    out = []
    for col in columns:
        merged = {}
        for degree, coeff in col:
            merged[degree] = merged.get(degree, 0.0) + coeff
        out.append(sum(c * c for c in merged.values()))
    return np.array(out)


def approx_scatter(level) -> np.ndarray:
    """(n+m) x n; column r holds the p-coefficients of q_r."""
    return _dense(_approx_columns(level.n, level.m), level.n + level.m)


def detail_scatter(level) -> np.ndarray:
    """(3n+m) x 2n; column r-n holds the p-coefficients of q~_r."""
    return _dense(_detail_columns(level.n, level.m), 3 * level.n + level.m)


def approx_norms_sq(level) -> np.ndarray:
    return _norms_sq(_approx_columns(level.n, level.m))


def detail_norms_sq(level) -> np.ndarray:
    return _norms_sq(_detail_columns(level.n, level.m))


def _scaling_transform(n: int, m: int) -> np.ndarray:
    nu = _norms_sq(_approx_columns(n, m))
    return np.sqrt(np.pi / (n * nu))[:, None] * cheb_table(np.arange(n), n)


def scaling_transform(level) -> np.ndarray:
    """n x n matrix sqrt(pi / (n nu_r)) p_r(x_k); rows r, columns k-1."""
    return _scaling_transform(level.n, level.m)


def detail_transform(level) -> np.ndarray:
    """Orthogonal 2n x 2n matrix over the complement grid; rows r-n, columns k-1.

    The complement nodes y are the 3n-grid zeros k = 1, 3, 4, 6, ... (k != 2
    mod 3).  Row r holds sqrt(pi/3n) times p_n(y), (p_r + p_{2n-r})(y)/sqrt 2,
    (p_{2n} + sqrt 2 p_0)(y)/sqrt 3, or sqrt(3/2) p_r(y) on the four bands
    r = n, n < r < 2n, r = 2n, 2n < r < 3n.
    """
    n = level.n
    k = np.arange(1, 3 * n + 1)
    table = cheb_table(np.arange(3 * n), 3 * n, k[k % 3 != 2])
    out = np.empty((2 * n, 2 * n))
    for r in range(n, 3 * n):
        if r == n:
            row = table[n]
        elif r < 2 * n:
            row = (table[r] + table[2 * n - r]) / math.sqrt(2.0)
        elif r == 2 * n:
            row = (table[2 * n] + math.sqrt(2.0) * table[0]) / math.sqrt(3.0)
        else:
            row = math.sqrt(1.5) * table[r]
        out[r - n] = row
    return math.sqrt(math.pi / (3 * n)) * out


def analysis_matrices(level) -> tuple[np.ndarray, np.ndarray]:
    """Dense (n x 3n, 2n x 3n) matrices of the one-step split at ``level``.

    Column j of the fine side is the orthonormal level-(3n, m) scaling
    function j in p-coefficients (the fine scatter applied to the fine
    transform); its inner products with q_r and q~_r / sqrt(v_r) are mapped
    to node coefficients by the transposed coarse transforms.
    """
    n, m = level.n, level.m
    t3 = _scaling_transform(3 * n, m)
    fine = np.zeros((3 * n + m, 3 * n))
    for r, col in enumerate(_approx_columns(3 * n, m)):
        for degree, coeff in col:
            fine[degree] += coeff * t3[r]
    del t3

    def inner_products(columns):
        out = np.zeros((len(columns), 3 * n))
        for j, col in enumerate(columns):
            for degree, coeff in col:
                out[j] += coeff * fine[degree]
        return out

    g = inner_products(_approx_columns(n, m))
    detail_cols = _detail_columns(n, m)
    h = inner_products(detail_cols) / np.sqrt(_norms_sq(detail_cols))[:, None]
    del fine
    return scaling_transform(level).T @ g, detail_transform(level).T @ h


def interp_scaling(level) -> np.ndarray:
    """(n+m) x n; column k-1 holds the p-coefficients of interpolating scaling function k,
    phi_k = sum_r C_rk q_r with phi_k(x_i) = delta_ik: C is the inverse transpose of the
    node table q_r(x_i)."""
    q = approx_scatter(level)
    return q @ np.linalg.inv(q.T @ cheb_table(np.arange(level.n + level.m), level.n)).T


def lowdin_scaling(level) -> np.ndarray:
    """The Lowdin (symmetric) orthonormalization Phi (Phi^T Phi)^(-1/2) of interp_scaling's
    Phi, column for column.  The p_r are orthonormal, so Phi^T Phi is the Gram matrix."""
    phi = interp_scaling(level)
    w, v = np.linalg.eigh(phi.T @ phi)
    return phi @ (v / np.sqrt(w)) @ v.T


def lebesgue_tables(level, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Node-sum and interpolant Lebesgue functions of ``level`` on the probe grid
    cos(j pi / M), j = 0..M, as the pair (lambda-tilde, lambda-bar).

    The q_r are orthogonal with squared norms nu_r, so V's reproducing kernel is
    K(x, y) = sum_r q_r(x) q_r(y) / nu_r and lambda-tilde is (pi/n) sum_i |K(x_i, x)|;
    lambda-bar is sum_k |phi_k(x)| over interp_scaling's phi_k.
    """
    n, m = level.n, level.m
    q = approx_scatter(level).T
    at_nodes = q @ cheb_table(np.arange(n + m), n)
    table = probe_table(np.arange(n + m), grid_size)
    kernel = at_nodes.T @ (q @ table / approx_norms_sq(level)[:, None])
    phi = interp_scaling(level).T @ table
    return (np.pi / n) * np.abs(kernel).sum(axis=0), np.abs(phi).sum(axis=0)


def fourier_proj(f, level, n_quad: int) -> np.ndarray:
    """Orthonormal coefficients (pi/N) sum_j phi_k(x_j) f(x_j) of the projection
    onto V, with every scaling function phi_k tabulated on the N-point grid."""
    n, m = level.n, level.m
    phi = approx_scatter(level) @ scaling_transform(level)
    values = phi.T @ cheb_table(np.arange(n + m), n_quad)
    return (np.pi / n_quad) * (values @ f(cheb_zeros(n_quad)))


def _mp_scale(r: int):
    return mpmath.sqrt((1 if r == 0 else 2) / mpmath.pi)


def series_mp(coeffs, xs, dps: int = 30) -> np.ndarray:
    """sum_r c_r p_r(x) at each float x, with cos(r acos x) in ``dps`` digits."""
    with mpmath.workdps(dps):
        out = []
        for x in xs:
            theta = mpmath.acos(mpmath.mpf(float(x)))
            out.append(mpmath.fsum(mpmath.mpf(float(c)) * _mp_scale(r)
                                   * mpmath.cos(r * theta)
                                   for r, c in enumerate(coeffs) if c != 0.0))
        return np.array([float(v) for v in out])


def lambda_mp(level, x: float, dps: int = 30) -> float:
    """Integral Lebesgue function int_0^pi |K(x, cos t)| dt in ``dps`` digits.

    K(x, y) = sum_r q_r(x) q_r(y) / nu_r with the ramp in exact ratios, so
    K(x, cos t) = sum_s b_s cos(s t).  Its sign changes are located on a float
    sample of 1024(n+m) angles, each root is found by ``mpmath.findroot`` inside
    its bracket, and between consecutive roots (and 0, pi) |K| integrates to
    |F(b) - F(a)| with F(t) = b_0 t + sum_s b_s sin(s t) / s.
    """
    n, m = level.n, level.m
    d = n + m
    with mpmath.workdps(dps):
        mu = [mpmath.mpf(1) if r <= n - m else mpmath.mpf(n + m - r) / (2 * m)
              for r in range(d)]
        theta = mpmath.acos(mpmath.mpf(float(x)))
        p_x = [_mp_scale(s) * mpmath.cos(s * theta) for s in range(d)]
        coeffs = [mpmath.mpf(0)] * d
        for col in _approx_columns(n, m, mu):
            q_x = mpmath.fsum(c * p_x[s] for s, c in col)
            nu = mpmath.fsum(c * c for _, c in col)
            for s, c in col:
                coeffs[s] += c * q_x / nu
        b = [_mp_scale(s) * c for s, c in enumerate(coeffs)]

        def kernel(t):
            return mpmath.fsum(b[s] * mpmath.cos(s * t) for s in range(d))

        def anti(t):
            return b[0] * t + mpmath.fsum(b[s] * mpmath.sin(s * t) / s for s in range(1, d))

        ts = np.linspace(0.0, np.pi, 1024 * d + 1)
        sample = np.array([float(v) for v in b]) @ np.cos(np.outer(np.arange(d), ts))
        ends = [mpmath.mpf(0)]
        for j in np.nonzero(np.sign(sample[:-1]) * np.sign(sample[1:]) < 0)[0]:
            ends.append(mpmath.findroot(kernel, (mpmath.mpf(ts[j]), mpmath.mpf(ts[j + 1])),
                                        solver="anderson"))
        ends.append(mpmath.pi)
        return float(mpmath.fsum(abs(anti(u) - anti(v)) for u, v in zip(ends, ends[1:])))


def _end_angles(n: int) -> list:
    """The node angles t_k = (2k-1) pi / (2n), k = 1..n, in mpmath."""
    return [(2 * k - 1) * mpmath.pi / (2 * n) for k in range(1, n + 1)]


def lambda_bar_end_mp(level, dps: int = 30) -> float:
    """Interpolatory Lebesgue function at x = +-1 in ``dps`` digits.  There the interpolating
    scaling functions are the de la Vallee Poussin kernel at the nodes, a difference of two
    Fejer kernels, so it is (1/(2mn)) sum_k |sin(m t_k)| / sin^2(t_k / 2)."""
    n, m = level.n, level.m
    with mpmath.workdps(dps):
        return float(mpmath.fsum(abs(mpmath.sin(m * t)) / mpmath.sin(t / 2) ** 2
                                 for t in _end_angles(n)) / (2 * m * n))


def lambda_tilde_end_mp(level, dps: int = 30) -> float:
    """Node-sum Lebesgue function at x = +-1 in ``dps`` digits: at the nodes p_{n+j} = -p_{n-j},
    so the kernel's sections there need only each degree's weight w_r in V, w_{n-j} =
    2mj / (m^2 + j^2) for 0 < j < m and 1 for every other r < n, and it is
    (1/n) sum_k |1 + 2 sum_{r=1}^{n-1} w_r cos(r t_k)|."""
    n, m = level.n, level.m
    with mpmath.workdps(dps):
        w = [mpmath.mpf(2 * m * (n - r)) / (m * m + (n - r) ** 2) if n - r < m else 1
             for r in range(1, n)]
        return float(mpmath.fsum(abs(1 + 2 * mpmath.fsum(w[r - 1] * mpmath.cos(r * t)
                                                          for r in range(1, n)))
                                 for t in _end_angles(n)) / n)


def remez_bracket(f, degree: int, grid_size: int):
    """(lower, upper) around E, the least max_j |f(x_j) - p(x_j)| over the polynomials p of
    ``degree`` on the probe points x_j = cos(j pi / M), j = 0..M; None when E is at roundoff,
    below 1e3 eps max_j |f(x_j)|.

    Remez's exchange: each step takes the p whose error is levelled, +-h with alternating
    signs, on degree+2 reference points.  Where f - p alternates there, its smallest |f - p|
    on the reference is at most E (de la Vallee Poussin), and every p's largest |f - p| on
    the grid is at least E; the bracket keeps the best of both.  The next reference takes
    the largest |f - p| of each run of one sign, thinned to degree+2 by dropping the
    smallest, an inner one with the smaller of its neighbours so that the signs keep
    alternating.  The exchange stops when |h| stops growing (Remez 1934; Trefethen,
    Approximation Theory and Approximation Practice, ch. 10).
    """
    fx = np.asarray(f(np.cos(np.arange(grid_size + 1) * (np.pi / grid_size))), dtype=float)
    table = probe_table(np.arange(degree + 1), grid_size).T
    signs = (-1.0) ** np.arange(degree + 2)
    ref = np.round(np.arange(degree + 2) * (grid_size / (degree + 1))).astype(int)
    lower, upper, level = 0.0, np.inf, -1.0
    while True:
        c = np.linalg.solve(np.column_stack([table[ref], signs]), fx[ref])
        e = fx - table @ c[:-1]
        upper = min(upper, np.abs(e).max())
        if np.all(np.signbit(e[ref][1:]) != np.signbit(e[ref][:-1])):
            lower = max(lower, np.abs(e[ref]).min())
        if not abs(c[-1]) > level:
            break
        level = abs(c[-1])
        cuts = np.flatnonzero(np.signbit(e[1:]) != np.signbit(e[:-1])) + 1
        ref = np.array([run[np.argmax(np.abs(e[run]))]
                        for run in np.split(np.arange(grid_size + 1), cuts)])
        if len(ref) < degree + 2:
            break
        while len(ref) > degree + 2:
            mag = np.abs(e[ref])
            i, last = int(np.argmin(mag)), len(ref) - 1
            if 0 < i < last and len(ref) > degree + 3:
                ref = np.delete(ref, [i, i - 1 if mag[i - 1] < mag[i + 1] else i + 1])
            else:
                ref = np.delete(ref, i if i in (0, last) else (0 if mag[0] <= mag[last] else last))
    return None if upper < 1e3 * np.finfo(float).eps * np.abs(fx).max() else (lower, upper)


def _cosine_ld(v, inverse: bool = False) -> np.ndarray:
    """Orthonormal DCT-II (DCT-III if ``inverse``) in long double: round trips
    to about 1e-18 where the float64 transforms stay near 1e-16."""
    v = np.asarray(v, dtype=np.longdouble)
    return (scipy.fft.idct if inverse else scipy.fft.dct)(v, type=2, norm="ortho")


def pyramid_ld(values, n0: int, levels: int, m: int, samples: bool = True):
    """Long-double reference of the pyramid stage: (base, details coarsest
    first) as long-double arrays.

    ``values`` are samples on the n0 3^levels grid (decompose_multi), or the
    top-level scaling coefficients (redecompose) if not ``samples``.  Over V
    at level (n, m) the orthonormal coordinates are the DCT of the scaling
    coefficients.  Samples give the quadrature inner products
    g_r = sqrt(pi/N) dct(values)_r, extended past degree N by the grid alias
    p_{N+j} = -p_{N-j} (and p_N = 0).  A split at (n, m) reads coordinate
    n-j of V and n+j of W, 0 < j < m, as the inner products with
    q_{n-j}/nu_j = (mu_{n-j} p_{n-j} - mu_{n+j} p_{n+j})/nu_j and
    q~_{n+j}/nu_j = (mu_{n+j} p_{n-j} + mu_{n-j} p_{n+j})/nu_j, where
    mu_{n-+j} = (m +- j)/(2m) and nu_j^2 = (m^2 + j^2)/(2m^2), and maps W's
    coordinates on degrees n..3n-1 to the complement nodes by the rows of
    detail_transform.
    """
    ld = np.longdouble
    j = np.arange(1, m)
    lo, hi = (m + j.astype(ld)) / (2 * m), (m - j.astype(ld)) / (2 * m)
    nu = np.sqrt((m * m + j.astype(ld) ** 2) / (2 * m * m))

    def to_v(x, n):  # coordinates n-j over V's q_{n-j}/nu_j and n+j over W's q~_{n+j}/nu_j
        down, up = x[n - j], x[n + j]
        x[n - j], x[n + j] = (lo * down - hi * up) / nu, (hi * down + lo * up) / nu
        return x

    size = n0 * 3 ** levels
    x = _cosine_ld(values)
    if samples:
        x = np.concatenate([x * np.sqrt(4 * np.arctan(ld(1)) / size), np.zeros(m, dtype=ld)])
        x[size + j] = -x[size - j]
        x = to_v(x, size)[:size]
    details = []
    for n in (size // 3 ** i for i in range(1, levels + 1)):
        to_v(x, n)
        s, c = x[n:3 * n], np.zeros(3 * n, dtype=ld)
        c[n] = s[0]
        c[n + 1:2 * n] = s[1:n] / np.sqrt(ld(2))
        c[n - 1:0:-1] = s[1:n] / np.sqrt(ld(2))
        c[2 * n] = s[n] / np.sqrt(ld(3))
        c[0] = s[n] * np.sqrt(ld(2) / 3)
        c[2 * n + 1:] = s[n + 1:] * np.sqrt(ld(3) / 2)
        details.append(_cosine_ld(c, inverse=True)[np.arange(3 * n) % 3 != 1])
        x = x[:n]
    return _cosine_ld(x, inverse=True), details[::-1]
