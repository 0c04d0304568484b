"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as  pytest tests/test_acceptance.py -v -s  to see the lines inline.
"""

import time

import numpy as np
import pytest
from oracles import analysis_matrices, detail_transform, scaling_transform
from util import (
    max_dev,
    quad_gram,
    scaling_interp_matrix,
    scaling_ortho_matrix,
    split_matrices,
    wavelet_interp_matrix,
    wavelet_ortho_matrix,
)

from vpwave.bases import (
    ScalingCoeffs,
    detail_to_cheb,
    scaling_to_cheb,
)
from vpwave.chebyshev import (
    cheb_nodes,
    eval_p,
    eval_p_table,
    eval_series,
    probe_grid,
    y_nodes,
)
from vpwave.cli import main
from vpwave.filters import VPLevel
from vpwave.functions import get_function
from vpwave.mra import (
    decompose_multi,
    decompose_step,
    pyramid_from_json,
    pyramid_to_json,
    reconstruct_multi,
    reconstruct_step,
)
from vpwave.operators import (
    LebesgueKind,
    OperatorKind,
    discrete_proj,
    error_curve,
    fourier_proj,
    lebesgue_const,
    vp_interp,
)


def report(number, label, ok, detail):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.mark.parametrize("n,m", [(13, 6), (40, 20), (81, 40)])
def test_criterion_1_orthonormality(n, m):
    level = VPLevel(n, m)
    sca = scaling_ortho_matrix(level)
    wav = wavelet_ortho_matrix(level)
    dev = max(
        max_dev(quad_gram(sca, sca, 4 * (n + m)), np.eye(n)),
        max_dev(quad_gram(wav, wav, 8 * n), np.eye(2 * n)),
        float(np.abs(quad_gram(sca, wav, 8 * n)).max()),
    )
    report(1, f"orthonormality ({n},{m})", dev < 1e-11, f"max deviation {dev:.2e}")


def test_criterion_2_interpolation_deltas():
    level = VPLevel(13, 6)
    phi_vals = scaling_interp_matrix(level).T @ eval_p_table(
        np.arange(19), cheb_nodes(13))
    psi_vals = wavelet_interp_matrix(level).T @ eval_p_table(
        np.arange(45), y_nodes(13))
    dev = max(max_dev(phi_vals, np.eye(13)), max_dev(psi_vals, np.eye(26)))
    report(2, "interpolation deltas (13,6)", dev < 1e-11, f"max deviation {dev:.2e}")


@pytest.mark.parametrize("n,m", [(13, 6), (27, 13), (81, 40)])
def test_criterion_3_stacked_orthogonality(n, m):
    a_mat, b_mat = split_matrices(VPLevel(n, m))
    q = np.vstack([a_mat, b_mat])
    dev = max_dev(q @ q.T, np.eye(3 * n))
    report(3, f"stacked split matrix orthogonal ({n},{m})", dev < 1e-11,
           f"max deviation {dev:.2e}")


@pytest.mark.parametrize("n3", [81, 243, 729])
def test_criterion_4_perfect_reconstruction(n3):
    rng = np.random.default_rng(n3)
    level = VPLevel(n3, (n3 // 3) // 2)
    worst_rec = 0.0
    worst_energy = 0.0
    for _ in range(20):
        x = rng.standard_normal(n3)
        a, b = decompose_step(ScalingCoeffs(level, x))
        rec = reconstruct_step(a, b)
        worst_rec = max(worst_rec, float(np.abs(rec.a - x).max()))
        total = float(x @ x)
        split = float(a.a @ a.a + b.b @ b.b)
        worst_energy = max(worst_energy, abs(split - total) / total)
    ok = worst_rec < 1e-11 and worst_energy < 1e-11
    report(4, f"perfect reconstruction (3n={n3})", ok,
           f"max roundtrip {worst_rec:.2e}, max relative energy drift {worst_energy:.2e}")


def test_criterion_5_fast_dense_equivalence_and_speed():
    # agreement at oracle scale
    rng = np.random.default_rng(5)
    from vpwave.bases import (
        detail_analysis,
        detail_synthesis,
        scaling_analysis,
        scaling_synthesis,
    )

    level = VPLevel(13, 6)
    u = rng.standard_normal(13)
    u2 = rng.standard_normal(26)
    t_dense = scaling_transform(level)
    s_dense = detail_transform(level)
    transform_dev = max(
        max_dev(scaling_analysis(u, level), t_dense @ u),
        max_dev(scaling_synthesis(u, level), t_dense.T @ u),
        max_dev(detail_analysis(u2, level), s_dense @ u2),
        max_dev(detail_synthesis(u2, level), s_dense.T @ u2),
    )

    lvl27 = VPLevel(27, 13)
    x81 = rng.standard_normal(81)
    a, b = decompose_step(ScalingCoeffs(VPLevel(81, 13), x81))
    a_mat, b_mat = analysis_matrices(lvl27)
    step_dev = max(
        max_dev(a.a, a_mat @ x81),
        max_dev(b.b, b_mat @ x81),
        max_dev(reconstruct_step(a, b).a, a_mat.T @ a.a + b_mat.T @ b.b),
    )

    # wall-clock at 3n = 6561 against the dense matrices of the test oracle
    n3 = 6561
    big = VPLevel(n3 // 3, n3 // 6)
    a_big, b_big = analysis_matrices(big)
    x = rng.standard_normal(n3)
    fine = ScalingCoeffs(VPLevel(n3, big.m), x)
    decompose_step(fine)  # warm caches
    reps = 5
    t0 = time.perf_counter()
    for _ in range(reps):
        decompose_step(fine)
    t_fast = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        a_big @ x
        b_big @ x
    t_dense_path = (time.perf_counter() - t0) / reps
    speedup = t_dense_path / t_fast

    ok = transform_dev < 1e-12 and step_dev < 1e-11 and speedup >= 10.0
    report(5, "fast/dense equivalence and speed", ok,
           f"transforms {transform_dev:.2e}, steps {step_dev:.2e}, "
           f"speedup {speedup:.1f}x at 3n={n3}")


def test_criterion_6_polynomial_reproduction():
    level = VPLevel(40, 20)
    nodes = cheb_nodes(40)
    worst = 0.0
    for r in range(0, 21):  # r <= n - m
        target = np.zeros(60)
        target[r] = 1.0
        samples = eval_p(r, nodes)
        worst = max(worst, max_dev(vp_interp(samples, level), target))
        worst = max(worst, max_dev(
            scaling_to_cheb(discrete_proj(samples, level)), target))
        worst = max(worst, max_dev(scaling_to_cheb(
            fourier_proj(lambda x, r=r: eval_p(r, x), level)), target))
    # splitting such content produces no detail
    fine_nodes = cheb_nodes(120)
    detail_max = 0.0
    for r in (0, 11, 20):
        samples = eval_p(r, fine_nodes)
        _, b = decompose_step(discrete_proj(samples, VPLevel(120, 20)))
        detail_max = max(detail_max, float(np.abs(b.b).max()))
    ok = worst < 1e-11 and detail_max < 1e-11
    report(6, "polynomial reproduction (40,20)", ok,
           f"reproduction {worst:.2e}, residual detail {detail_max:.2e}")


def test_criterion_7_lebesgue_boundedness():
    sweep = {kind: [] for kind in LebesgueKind}
    for n in range(10, 101, 10):
        level = VPLevel.from_theta(n, 0.5)
        # the integral constant gets a coarser (still >= 1000) probe grid to
        # keep the sweep inside the desk-scale budget; the discrete kinds use
        # the full default grid
        sweep[LebesgueKind.LAMBDA].append(
            lebesgue_const(level, LebesgueKind.LAMBDA, grid_size=2000).value)
        sweep[LebesgueKind.LAMBDA_TILDE].append(
            lebesgue_const(level, LebesgueKind.LAMBDA_TILDE).value)
        sweep[LebesgueKind.LAMBDA_BAR].append(
            lebesgue_const(level, LebesgueKind.LAMBDA_BAR).value)
    details = []
    ok = True
    for kind, vals in sweep.items():
        lo, hi = min(vals), max(vals)
        variation = (hi - lo) / lo
        ok = ok and lo >= 1.0 and variation < 0.25
        details.append(f"{kind.value}: [{lo:.4f}, {hi:.4f}] var {variation:.1%}")
    conjecture_violations = sum(
        1 for lam, lt in zip(sweep[LebesgueKind.LAMBDA],
                             sweep[LebesgueKind.LAMBDA_TILDE]) if lam > lt + 1e-9)
    details.append(f"ordering violations {conjecture_violations}/10 (non-fatal)")
    report(7, "Lebesgue boundedness sweep", ok, "; ".join(details))


def test_criterion_8_convergence_rates():
    sin_err = error_curve(np.sin, OperatorKind.DISCRETE_PROJ, 0.5, [30])[0].error
    abs_pts = error_curve(np.abs, OperatorKind.DISCRETE_PROJ, 0.5, [10, 30, 90])
    abs_err = {p.n: p.error for p in abs_pts}
    ratio_a = abs_err[10] / abs_err[30]
    ratio_b = abs_err[30] / abs_err[90]
    runge_err = error_curve(get_function("runge"), OperatorKind.DISCRETE_PROJ,
                            0.5, [30])[0].error
    ok = (sin_err < 1e-13 and 2.2 <= ratio_a <= 4.0 and 2.2 <= ratio_b <= 4.0
          and runge_err < 1e-10)
    report(8, "convergence rates", ok,
           f"sin {sin_err:.2e}, |x| ratios {ratio_a:.2f}/{ratio_b:.2f}, "
           f"runge {runge_err:.2e}")


def test_criterion_9_worked_example():
    f = get_function("sin6sign")
    n_top = 64 * 3 ** 3
    samples = f(cheb_nodes(n_top))
    decomp = decompose_multi(samples, 64, 3, 0.7)
    top = reconstruct_multi(decomp)

    xs = probe_grid(2000)
    total = eval_series(scaling_to_cheb(decomp.base), xs)
    for d in decomp.details:
        total = total + eval_series(detail_to_cheb(d), xs)
    dev = float(np.abs(total - eval_series(scaling_to_cheb(top), xs)).max())

    text = pyramid_to_json(decomp)
    back = pyramid_from_json(text)
    bit_exact = (pyramid_to_json(back) == text
                 and np.array_equal(back.base.a, decomp.base.a)
                 and all(np.array_equal(d.b, e.b)
                         for d, e in zip(decomp.details, back.details)))
    ok = dev < 1e-9 and bit_exact
    report(9, "three-step decomposition example", ok,
           f"sum-of-parts deviation {dev:.2e}, JSON bit-exact {bit_exact}")


def test_criterion_10_cli_determinism(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        err = tmp_path / f"err_{tag}.csv"
        leb = tmp_path / f"leb_{tag}.csv"
        assert main(["error", "--f", "abs", "--op", "vp", "--theta", "0.5",
                     "--n", "10:10:30", "--grid", "1500", "--out", str(err)]) == 0
        assert main(["lebesgue", "--kind", "lambda-tilde", "--theta", "0.5",
                     "--n", "10:10:30", "--grid", "1500", "--out", str(leb)]) == 0
        pairs.append((err.read_bytes(), leb.read_bytes(),
                      (tmp_path / f"err_{tag}.csv.meta.json").read_bytes(),
                      (tmp_path / f"leb_{tag}.csv.meta.json").read_bytes()))
    deterministic = pairs[0] == pairs[1]

    missing = tmp_path / "never.csv"
    bad_fn = main(["error", "--f", "cosh", "--op", "vp", "--theta", "0.5",
                   "--n", "10", "--out", str(missing)])
    pyr = tmp_path / "broken.json"
    pyr.write_text('{"theta": 0.5, "n0": 5, "L": 1, "base": [0, 0, 0, 0, 0], '
                   '"details": [{"n": 7, "m": 2, "b": [0, 0]}]}')
    bad_chain = main(["reconstruct", "--pyramid", str(pyr),
                      "--out", str(tmp_path / "r.csv")])
    codes_ok = bad_fn == 2 and not missing.exists() and bad_chain == 3
    ok = deterministic and codes_ok
    report(10, "CLI determinism and exit codes", ok,
           f"byte-identical {deterministic}, exit codes (2, 3) = "
           f"({bad_fn}, {bad_chain})")
