"""The benchmark's workloads: seeded inputs, one timed job, and its check.

Every job of a workload is the same kind of work, so the per-job median and
high percentile describe one distribution.  ``run`` is the only timed call;
``check`` runs outside the timed region and compares the job's output with
values computed another way.  A workload with ``cold = True`` runs a single
pass per process, so every lru_cache in vpwave starts empty, as in a CLI run.
"""

import contextlib
import hashlib
import io
import math
import os
import re

import numpy as np

import reference

THETA = 0.5


def seeded_signal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Samples on the n Chebyshev zeros: a few sines, a kink, a jump and noise.

    The highest frequency and the noise level are drawn per signal, so how
    sparse the detail coefficients are (and what thresholding sorts) varies.
    """
    x = reference.cheb_zeros(n)
    top = 10.0 ** rng.uniform(0.5, 2.5)
    out = np.zeros(n)
    for _ in range(int(rng.integers(1, 6))):
        out += rng.uniform(0.2, 1.0) * np.sin(rng.uniform(1.0, top) * x + rng.uniform(0.0, np.pi))
    out += rng.uniform(0.0, 1.0) * np.abs(x - rng.uniform(-0.5, 0.5))
    out += rng.uniform(0.0, 0.5) * np.sign(x - rng.uniform(-0.9, 0.9))
    out += 10.0 ** rng.uniform(-8.0, -1.0) * rng.standard_normal(n)
    return out


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def invoke_cli(vp, tracer, argv: list, outputs: list) -> tuple[int, str]:
    """Run ``vpwave <argv>`` in process; returns (exit code, captured stdout).

    When tracing, the call is one ``cli.<command>`` span whose size is the
    number of bytes the command wrote.
    """
    idx = tracer.begin("cli." + argv[0]) if tracer is not None and tracer.active else None
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = vp.cli.main(argv)
    finally:
        if idx is not None:
            tracer.end(idx, sum(os.path.getsize(p) for p in outputs if os.path.exists(p)))
    return code, buf.getvalue()


def read_column(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])


class Workload:
    cold = False
    ref_size = 0

    def __init__(self, vp, seed: int, workdir: str, tracer, verify: bool):
        self.vp = vp
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.verify_outputs = verify
        self.digests = {}

    def rng(self, *key: int) -> np.random.Generator:
        """Job j draws from rng(1, j); inputs shared by the whole run from rng(0)."""
        return np.random.default_rng([abs(self.seed), int(self.seed < 0), *key])

    def warm_up(self) -> None:
        """Work paid once before the process reports ready."""

    def counters(self, out) -> dict:
        return {}

    def check(self, j: int, job, out) -> bool:
        """Later passes must repeat the first output of job j bit for bit, and
        the first output is verified when this process verifies.  Processes
        that do not verify are held to the verified one through the digests,
        which run.py compares across processes."""
        key = self.output_digest(out)
        if j not in self.digests:
            self.digests[j] = key if not self.verify_outputs or self.verify(job, out) else None
        return self.digests[j] is not None and self.digests[j] == key


class MraBatch(Workload):
    """decompose_multi -> threshold_keep_top -> reconstruct_multi in memory."""

    N0, LEVELS, FRACTION, JOBS = 81, 6, 0.1, 100
    ref_size = 81 * 3 ** 6

    def warm_up(self):
        self.run(seeded_signal(self.rng(0), self.ref_size))

    def jobs(self):
        return [seeded_signal(self.rng(1, j), self.ref_size) for j in range(self.JOBS)]

    def run(self, samples):
        vp = self.vp
        full = vp.decompose_multi(samples, self.N0, self.LEVELS, THETA)
        pruned, report = vp.threshold_keep_top(full, self.FRACTION)
        return full, report, vp.reconstruct_multi(pruned)

    def output_digest(self, out):
        full, report, rec = out
        return digest(full.base.a, *(d.b for d in full.details), rec.a,
                      repr((report.kept, report.total, report.energy_kept)).encode())

    def verify(self, samples, out):
        vp = self.vp
        full, report, rec = out
        top = vp.discrete_proj(samples, vp.VPLevel(self.ref_size, math.floor(THETA * self.N0)))
        energy = float(top.a @ top.a)
        round_trip = np.max(np.abs(vp.reconstruct_multi(full).a - top.a))
        split_energy = float(full.base.a @ full.base.a) + sum(float(d.b @ d.b) for d in full.details)
        pruned_error = float(np.sum((rec.a - top.a) ** 2))
        total = sum(d.b.size for d in full.details)
        return (round_trip <= 1e-10 * np.max(np.abs(top.a))
                and abs(split_energy - energy) <= 1e-10 * energy
                and abs(pruned_error - (report.energy_total - report.energy_kept)) <= 1e-10 * energy
                and report.total == total
                and report.kept <= math.ceil(self.FRACTION * total))


class PyramidFile(Workload):
    """``vpwave decompose --samples`` then ``vpwave reconstruct --pyramid``."""

    N0, LEVELS, JOBS = 81, 4, 40
    ref_size = 81 * 3 ** 4

    def warm_up(self):
        vp = self.vp
        pyramid = vp.decompose_multi(seeded_signal(self.rng(0), self.ref_size),
                                     self.N0, self.LEVELS, THETA)
        vp.ortho_to_values(vp.reconstruct_multi(vp.pyramid_from_json(vp.pyramid_to_json(pyramid))))

    def jobs(self):
        out = []
        for j in range(self.JOBS):
            samples = seeded_signal(self.rng(1, j), self.ref_size)
            path = os.path.join(self.workdir, f"job{j}")
            with open(path + ".samples.csv", "w") as fh:
                fh.write("".join(repr(float(v)) + "\n" for v in samples))
            out.append((samples, path))
        return out

    def run(self, job):
        _, path = job
        pyr, csv = path + ".pyr.json", path + ".out.csv"
        code_d, _ = invoke_cli(self.vp, self.tracer, [
            "decompose", "--samples", path + ".samples.csv", "--n0", str(self.N0),
            "--levels", str(self.LEVELS), "--theta", repr(THETA), "--out", pyr], [pyr])
        code_r, printed = invoke_cli(self.vp, self.tracer,
                                     ["reconstruct", "--pyramid", pyr, "--out", csv], [csv])
        return code_d, code_r, printed, path

    def output_digest(self, out):
        code_d, code_r, printed, path = out
        with open(path + ".pyr.json", "rb") as fh:
            text = fh.read()
        with open(path + ".out.csv", "rb") as fh:
            values = fh.read()
        return digest(text, values, repr((code_d, code_r, printed)).encode())

    def verify(self, job, out):
        vp = self.vp
        samples, path = job
        code_d, code_r, printed, _ = out
        found = re.search(r"round-trip deviation: (\S+)", printed)
        if code_d != 0 or code_r != 0 or found is None:
            return False
        scale = max(1.0, float(np.max(np.abs(samples))))
        pyramid = vp.decompose_multi(samples, self.N0, self.LEVELS, THETA)
        expected = vp.ortho_to_values(vp.reconstruct_multi(pyramid))
        with open(path + ".pyr.json") as fh:
            text = fh.read()
        parsed = vp.pyramid_from_json(text)
        same = (parsed.theta == pyramid.theta
                and np.array_equal(parsed.base.a, pyramid.base.a)
                and len(parsed.details) == len(pyramid.details)
                and all(p.level == q.level and np.array_equal(p.b, q.b)
                        for p, q in zip(parsed.details, pyramid.details)))
        written = read_column(path + ".out.csv")
        return (same
                and vp.pyramid_to_json(parsed) + "\n" == text
                and float(found.group(1)) <= 1e-10 * scale
                and written.shape == expected.shape
                and float(np.max(np.abs(written - expected))) <= 1e-10 * scale)


class ApproxSweep(Workload):
    """One resolution n of a cold sweep: three error_curve points and the
    lambda-tilde and lambda-bar constants."""

    cold = True
    JOBS, GRID = 40, 10000
    ref_size = GRID + 1

    def jobs(self):
        rng = self.rng(0)
        w, phase = rng.uniform(2.0, 8.0), rng.uniform(0.0, np.pi)
        beta, centre, width = rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.0)

        def f(x):
            # analytic on [-1, 1], so the projection's quadrature is at roundoff
            return np.sin(w * x + phase) + beta / (1.0 + ((x - centre) / width) ** 2)

        self.f = f
        # distinct levels: no lru_cache entry is reused within the pass
        return [10 + 4 * j + int(rng.integers(0, 4)) for j in range(self.JOBS)]

    def run(self, n):
        vp = self.vp
        errors = [vp.error_curve(self.f, vp.OperatorKind(op), THETA, [n], self.GRID)[0].error
                  for op in ("fourier", "discrete", "vp")]
        level = vp.VPLevel.from_theta(n, THETA)
        tilde = vp.lebesgue_const(level, vp.LebesgueKind("lambda-tilde"), self.GRID).value
        bar = vp.lebesgue_const(level, vp.LebesgueKind("lambda-bar"), self.GRID).value
        return errors, tilde, bar

    def output_digest(self, out):
        return repr(out)

    def verify(self, n, out):
        errors, tilde, bar = out
        m = math.floor(THETA * n)
        f = self.f
        expected = [reference.sup_error(f, reference.fourier_coeffs(f, n, m, 16 * (n + m)), self.GRID),
                    reference.sup_error(f, reference.discrete_coeffs(f, n, m), self.GRID),
                    reference.sup_error(f, reference.vp_coeffs(f, n, m), self.GRID)]
        values = errors + [tilde, bar]
        return (all(math.isfinite(v) for v in values)
                and all(abs(e - r) <= 1e-9 + 1e-7 * r for e, r in zip(errors, expected))
                and abs(tilde - reference.lambda_tilde(n, m, self.GRID)) <= 1e-9 * tilde
                and abs(bar - reference.lambda_bar(n, m, self.GRID)) <= 1e-9 * bar)


class LebesgueIntegral(Workload):
    """One integral Lebesgue constant lebesgue_const(level, LAMBDA) per job."""

    GRID, TARGET = 2000, 1e-6
    ref_size = GRID + 1

    def jobs(self):
        # the cost of a job depends on the level alone, so every seed runs the
        # same 40 levels (n = 6..13, five m spread over 1..n-1) in its own order
        levels = [(n, 1 + round(k * (n - 2) / 4)) for n in range(6, 14) for k in range(5)]
        return [levels[i] for i in self.rng(0).permutation(len(levels))]

    def run(self, level):
        return self.vp.lebesgue_const(self.vp.VPLevel(*level), self.vp.LebesgueKind("lambda"),
                                      self.GRID)

    def output_digest(self, out):
        return repr((out.value, out.quad_spec))

    def verify(self, level, out):
        # the doubling quadrature reaches about 1e-6; the reference is exact
        ref = reference.lambda_integral(*level, self.GRID)
        return math.isfinite(out.value) and abs(out.value - ref) <= 1e-5 * ref

    def counters(self, out):
        """Quadrature nodes used and whether the reported accuracy missed the
        1e-6 target, parsed from quad_spec (absent fields count as zero)."""
        panels = re.search(r"(\d+)-point panels x (\d+)", out.quad_spec)
        change = re.search(r"relative change (\S+)", out.quad_spec)
        return {"operators.lambda_nodes": int(panels.group(1)) * int(panels.group(2)) if panels else 0,
                "operators.lambda_unconverged": int(bool(change) and float(change.group(1)) > self.TARGET)}


WORKLOADS = {
    "mra_batch": MraBatch,
    "pyramid_file": PyramidFile,
    "approx_sweep": ApproxSweep,
    "lebesgue_integral": LebesgueIntegral,
}
