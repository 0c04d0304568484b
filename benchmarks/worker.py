"""One benchmark process: set up, report ready, run timed passes, check, report.

Started by run.py, one at a time.  It prints ``ready`` once vpwave is
imported and the workload's one-time warm-up is done, then a single JSON
line with everything the parent aggregates.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

perf_counter = time.perf_counter

README_COMMANDS = [
    (["error", "--f", "sin", "--op", "discrete", "--theta", "0.5", "--n", "10:10:100",
      "--out", "{d}/errors.csv"], ["errors.csv", "errors.csv.meta.json"]),
    (["lebesgue", "--kind", "lambda-tilde", "--theta", "0.5", "--n", "10:10:100",
      "--out", "{d}/leb.csv"], ["leb.csv", "leb.csv.meta.json"]),
    (["decompose", "--f", "sin6sign", "--n0", "64", "--levels", "3", "--theta", "0.7",
      "--out", "{d}/pyr.json"], ["pyr.json"]),
    (["reconstruct", "--pyramid", "{d}/pyr.json", "--out", "{d}/samples.csv"], ["samples.csv"]),
    (["basis", "--family", "phi-ortho", "--n", "13", "--m", "6", "--k", "7",
      "--out", "{d}/phi.csv"], ["phi.csv"]),
]


def import_vpwave(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import vpwave
    import vpwave.cli  # noqa: F401  (the CLI module is not imported by the package)
    if not os.path.abspath(vpwave.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"vpwave imported from {vpwave.__file__}, not from {src}")
    return vpwave


def lru_caches(vp) -> dict:
    """The lru_cache objects of filters and bases, found from outside through
    cache_info(); a cache removed by a later version simply is not listed."""
    out = {}
    for layer in ("filters", "bases"):
        module = getattr(vp, layer)
        out[layer] = [obj for obj in vars(module).values()
                      if callable(getattr(obj, "cache_info", None))
                      and obj.__module__ == module.__name__]
    return out


def cache_counts(caches: dict) -> Counter:
    out = Counter()
    for layer, fns in caches.items():
        for fn in fns:
            info = fn.cache_info()
            out[f"{layer}.cache_hits"] += info.hits
            out[f"{layer}.cache_misses"] += info.misses
    return out


def raw_dct_seconds(n: int, min_total: float = 0.05) -> float:
    """Median time of one scipy.fft.dct (type 2, orthonormal) of length n."""
    import numpy as np
    import scipy.fft
    v = np.random.default_rng(n).standard_normal(n)
    scipy.fft.dct(v, type=2, norm="ortho")
    times = []
    while len(times) < 7 or sum(times) < min_total:
        t0 = perf_counter()
        scipy.fft.dct(v, type=2, norm="ortho")
        times.append(perf_counter() - t0)
    return statistics.median(times)


class ReferenceKernel:
    """A fixed unit of host work that calls nothing in vpwave, timed after each job.

    The shared host this benchmark runs on changes speed by as much as 1.8x for
    seconds to minutes at a time, and the same job's time follows it.  Each
    job time is reported as a multiple of the median time of the kernels run
    nearest to it (``local_refs``), which cancels most of that drift.  The
    kernel is scipy DCTs, a sort and element-wise arithmetic on an array of
    3^10 values; its input is fixed, so every run and every commit times the
    same work.
    """

    def __init__(self):
        import numpy as np
        import scipy.fft
        self.np, self.dct = np, scipy.fft.dct
        self.array = np.random.default_rng(0).standard_normal(3 ** 10)
        self()

    def __call__(self) -> float:
        np, a = self.np, self.array
        t0 = perf_counter()
        for _ in range(2):
            self.dct(a, type=2, norm="ortho")
            np.sort(np.abs(a))
            a * 2.0 + 1.0
        return perf_counter() - t0


def local_refs(refs: list) -> list:
    """For each job, the median kernel time over the eleven jobs around it
    (fewer at the ends of a pass)."""
    return [statistics.median(refs[max(0, j - 5):j + 6]) for j in range(len(refs))]


def blas_threads():
    """OpenBLAS thread count of the loaded library, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_readme(vp, tracer, workdir: str) -> tuple[int, int]:
    """The five README invocations, twice each; a command fails on a non-zero
    exit, an implausible round-trip deviation, or artifacts that differ
    byte for byte between its two invocations."""
    dirs = [os.path.join(workdir, "readme-a"), os.path.join(workdir, "readme-b")]
    for d in dirs:
        os.makedirs(d, exist_ok=True)
    import workloads
    failed = 0
    for argv, artifacts in README_COMMANDS:
        ok = True
        blobs = []
        for d in dirs:
            paths = [os.path.join(d, a) for a in artifacts]
            code, printed = workloads.invoke_cli(vp, tracer, [a.format(d=d) for a in argv], paths)
            if code != 0 or not all(os.path.exists(p) for p in paths):
                ok = False
                break
            if argv[0] == "reconstruct":
                ok = ok and float(printed.rsplit(":", 1)[1]) <= 1e-10
            blobs.append([open(p, "rb").read() for p in paths])
        failed += not (ok and blobs[0] == blobs[1])
    return len(README_COMMANDS), failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--traced", type=int, required=True)
    parser.add_argument("--readme", type=int, required=True)
    parser.add_argument("--verify", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args()

    vp = import_vpwave(args.root)
    import tracing
    import workloads
    caches = lru_caches(vp)
    tracer = tracing.Tracer() if args.traced else None
    if tracer is not None:
        tracing.install(tracer)
    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](vp, args.seed, args.workdir, tracer, bool(args.verify))
    wl.warm_up()
    print("ready", flush=True)

    kernel = ReferenceKernel()
    jobs = wl.jobs()
    passes = []
    attempted = failed = 0
    spent = 0.0
    while True:
        elapsed_ok, refs, counts = [], [], Counter()
        for j, job in enumerate(jobs):
            before = cache_counts(caches)
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                out, error = wl.run(job), None
            except Exception:  # a job that raises counts as a failed operation
                out, error = None, traceback.format_exc()
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            counts.update(cache_counts(caches) - before)
            attempted += 1
            try:
                ok = error is None and wl.check(j, job, out)
            except Exception:
                ok, error = False, traceback.format_exc()
            if ok:
                counts.update(wl.counters(out))
            else:
                failed += 1
                print(f"job {j} failed: {error or 'check'}", file=sys.stderr)
            elapsed_ok.append((elapsed, ok))
            refs.append(kernel())
        local = local_refs(refs)
        record = {"wall": sum(t for t, _ in elapsed_ok),
                  "wall_xref": sum(t / r for (t, _), r in zip(elapsed_ok, local)),
                  "times": [t for t, ok in elapsed_ok if ok],
                  "xref": [t / r for (t, ok), r in zip(elapsed_ok, local) if ok],
                  "ref": statistics.median(refs),
                  "counts": dict(counts)}
        if tracer is not None:
            layers, steps = tracing.layer_metrics(tracer.take())
            record["layers"] = layers
            record["steps"] = steps
            record["cli"] = tracing.cli_invocations(tracer.finished[-1])
        passes.append(record)
        spent += record["wall"]
        if wl.cold or spent >= args.budget:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_sizes = {size for p in passes for size in p.get("steps", {})}
    raw = {size: raw_dct_seconds(size) for size in step_sizes | {wl.ref_size}}
    for p in passes:
        if "steps" in p:
            seconds = sum(s for s, _ in p["steps"].values())
            ref = sum(count * raw[size] for size, (_, count) in p["steps"].items())
            p["layers"]["mra.step_dct_ratio"] = seconds / ref if ref > 0 else 0.0
            del p["steps"]

    readme_cli = []
    if args.readme:
        if tracer is not None:
            tracer.active = True
        count, bad = run_readme(vp, tracer, args.workdir)
        if tracer is not None:
            tracer.active = False
            readme_cli = tracing.cli_invocations(tracer.take())
        attempted += count
        failed += bad
    if tracer is not None and args.trace_file:
        tracer.write(args.trace_file)

    import numpy
    import scipy
    print(json.dumps({
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "digests": {str(j): d for j, d in wl.digests.items()},
        "peak_rss_mb": peak_rss_mb,
        "dct_ref_s": raw[wl.ref_size],
        "readme_cli": readme_cli,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                     "MKL_NUM_THREADS") if k in os.environ},
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
