"""vpwave benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload mra_batch --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each run starts a few fresh worker
processes, one at a time (worker.py), so set-up time, peak memory and
lru_cache state belong to the workload alone.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1``
untraced and traced workers alternate and it holds the per-layer metrics,
including the tracing overhead.  The lines before it record the machine and
library versions, the job counts behind the percentiles and the job times in
seconds.  Pass and job times are reported as multiples (``xref``) of a fixed
reference kernel timed next to each job (worker.py), which cancels the
host's speed drift.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("mra_batch", "pyramid_file", "approx_sweep", "lebesgue_integral")
# no new worker starts after RUN_LIMIT_S; every worker is ended by DEADLINE_S
RUN_LIMIT_S = 120.0
DEADLINE_S = 170.0

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_xref": ("xref", "lower", 0.25),
    "job_xref_p50": ("xref", "lower", 0.25),
    "job_xref_p90": ("xref", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ops_ok": ("share", "higher", 0.001),
}

CLI_COMMANDS = ("error", "lebesgue", "decompose", "reconstruct", "basis")
_TIME_LAYERS = [*tracing.TIME_METRICS, "bases.transform_self_s",
                *(f"cli.{command}_s" for command in CLI_COMMANDS), "cli.self_s"]


def xdct_name(name: str) -> str:
    """The name of a time metric expressed in raw DCTs of the workload's top size."""
    return re.sub(r"_s(\.|$)", r"_xdct\1", name, count=1)


# name -> (unit, better)
PER_LAYER = {
    "chebyshev.dct_ref_s": ("s", "lower"),
    "chebyshev.dct_calls": ("count", "lower"),
    "chebyshev.dct_points": ("count", "lower"),
    "chebyshev.eval_cells": ("count", "lower"),
    "filters.cache_hits": ("count", "higher"),
    "filters.cache_misses": ("count", "lower"),
    "bases.cache_hits": ("count", "higher"),
    "bases.cache_misses": ("count", "lower"),
    "bases.cache_hit_ratio": ("share", "higher"),
    "operators.lambda_nodes": ("count", "lower"),
    "operators.lambda_unconverged": ("count", "lower"),
    "mra.step_self_share": ("share", "lower"),
    "mra.step_dct_ratio": ("ratio", "lower"),
    "mra.json_bytes": ("bytes", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{name: ("s", "lower") for name in _TIME_LAYERS},
    **{xdct_name(name): ("dct", "lower") for name in _TIME_LAYERS},
}


def spawn(args, index: int, budget: float, traced: bool, timeout: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (set-up seconds, its report)."""
    workdir = os.path.join(ROOT, ".bench_run", args.workload)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--traced", str(int(traced)),
           "--readme", str(int(index == int(args.trace))), "--verify", str(int(index == 0)),
           "--workdir", workdir]
    if traced:
        cmd += ["--trace-file", os.path.join(ROOT, ".bench_run", f"trace-{args.workload}-{index}.jsonl")]
    # one thread: all load comes from the worker's Python thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def high_percentile(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile up to 90 that
    has at least ten samples beyond it (the maximum if there are ten or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    i = min(math.ceil(0.9 * n) - 1, n - 11) if n > 10 else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def end_to_end(setups: list, reports: list, ok_share: float) -> tuple[dict, dict]:
    """Pass and job times in multiples of the reference kernel timed next to
    each job (worker.py), and the same statistics in seconds for the record."""
    passes = [p for r in reports for p in r["passes"]]
    ratios = [x for p in passes for x in p["xref"]]
    times = [t for p in passes for t in p["times"]]
    p90, percentile = high_percentile(ratios)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_xref": statistics.median(p["wall_xref"] for p in passes),
        "job_xref_p50": statistics.median(ratios),
        "job_xref_p90": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "ops_ok": ok_share,
    }
    details = {"workers": len(reports), "passes": len(passes), "job_samples": len(times),
               "job_xref_p90_percentile": percentile,
               "ref_s": statistics.median(p["ref"] for p in passes),
               "wall_s": statistics.median(p["wall"] for p in passes),
               "job_s_p50": statistics.median(times),
               "job_s_p90": high_percentile(times)[0]}
    return metrics, details


def per_layer(plain: list, traced: list) -> dict:
    passes = [p for r in traced for p in r["passes"]]
    layers = [dict(p["layers"], **p["counts"]) for p in passes]
    out = {name: statistics.median(d.get(name, 0) for d in layers) for name in PER_LAYER}
    hits, misses = out["bases.cache_hits"], out["bases.cache_misses"]
    out["bases.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    calls = [c for r in traced for p in r["passes"] for c in p["cli"]]
    calls += [c for r in traced for c in r["readme_cli"]]
    for command in CLI_COMMANDS:
        seconds = [c[1] for c in calls if c[0] == command]
        out[f"cli.{command}_s"] = statistics.median(seconds) if seconds else 0.0
    out["cli.self_s"] = statistics.median(c[2] for c in calls) if calls else 0.0
    out["cli.bytes_written"] = statistics.median(c[3] for c in calls) if calls else 0

    ref = statistics.median(r["dct_ref_s"] for r in plain + traced)
    out["chebyshev.dct_ref_s"] = ref
    for name in _TIME_LAYERS:
        out[xdct_name(name)] = out[name] / ref
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in passes)
                               - statistics.median(p["wall"] for r in plain for p in r["passes"]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed job seconds to measure in this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "vpwave", "__init__.py")):
        print(f"error: no vpwave sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)

    # at least three set-ups per run for the set-up median; with tracing,
    # untraced and traced workers alternate so both see the same conditions
    min_workers = 4 if args.trace else 3
    started = time.perf_counter()
    setups, plain, traced = [], [], []
    spent = 0.0
    index = 0
    while index < min_workers or spent < args.seconds:
        if time.perf_counter() - started > RUN_LIMIT_S:
            break
        budget = max(0.0, args.seconds - spent) / max(1, min_workers - index)
        is_traced = bool(args.trace) and index % 2 == 1
        setup, report = spawn(args, index, budget, is_traced,
                              DEADLINE_S - (time.perf_counter() - started))
        setups.append(setup)
        (traced if is_traced else plain).append(report)
        spent += sum(p["wall"] for p in report["passes"])
        index += 1
    shutil.rmtree(workdir, ignore_errors=True)

    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    # identical jobs must write identical outputs in every worker
    for j in {j for r in reports for j in r["digests"]}:
        if len({r["digests"].get(j) for r in reports}) > 1:
            failed += 1
    metrics, details = end_to_end(setups, plain, 1.0 - failed / attempted)
    print(json.dumps({"env": reports[0]["env"]}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details,
                      "elapsed_s": time.perf_counter() - started}))
    if args.trace:
        values = per_layer(plain, traced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = metrics
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
