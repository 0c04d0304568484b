"""Command-line front end: error sweeps, Lebesgue sweeps, pyramid files and
basis samples as deterministic CSV/JSON artifacts.

Exit codes: 0 on success, 2 on argument/domain errors, 3 on inconsistent
pyramid data.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, bases
from .bases import ortho_to_values
from .chebyshev import cheb_nodes, probe_grid, probe_values
from .filters import VPLevel
from .functions import get_function
from .mra import (
    PyramidError,
    _chain_top,
    decompose_multi,
    pyramid_from_json,
    pyramid_to_json,
    reconstruct_multi,
    redecompose,
)
from .operators import LebesgueKind, OperatorKind, _sweep_levels, error_curve, lebesgue_const

_BASIS_BUILDERS = {
    "phi": bases.scaling_interp,
    "phi-ortho": bases.scaling_ortho,
    "psi": bases.wavelet_interp,
    "psi-ortho": bases.wavelet_ortho,
    "q": bases.approx_basis,
    "q-tilde": bases.detail_basis,
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_int_list(text: str) -> range:
    """Either a single integer or an inclusive range start:step:stop."""
    if ":" not in text:
        start = int(text)
        return range(start, start + 1)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}, expected start:step:stop")
    start, step, stop = (int(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}")
    return range(start, stop + 1, step)


def _parse_theta_list(text: str) -> list[float]:
    thetas = [float(p) for p in text.split(",") if p]
    if not thetas:
        raise ValueError("empty theta list")
    for t in thetas:
        if not 0.0 < t < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {t}")
    return thetas


def _write_files(files: dict[str, str]) -> None:
    """Write every file or none: each text goes to a temporary file beside its
    target, and only when all are written do they replace the targets, the
    first one last.  A failed replace removes the targets already replaced."""
    temps, done = [], []
    try:
        for path, text in files.items():
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
        for tmp, path in reversed(list(zip(temps, files))):
            os.replace(tmp, path)
            done.append(path)
    except OSError:
        for path in temps + done:
            if os.path.isfile(path):
                os.remove(path)
        raise


def _write_sweep(args, column: str, points: list, meta: dict, **tail) -> int:
    """Write the theta,n,m,<column> CSV of a sweep's (theta, n, m, value)
    points and its <out>.meta.json sidecar: ``meta``, the probe grid, ``tail``."""
    if not points:
        raise ValueError("every level of the sweep is degenerate")
    lines = [f"theta,n,m,{column}", *(f"{_fmt(t)},{n},{m},{_fmt(v)}" for t, n, m, v in points)]
    meta = {**meta, "grid_size": args.grid, "probe_grid": "cos(j*pi/M), j = 0..M", **tail}
    _write_files({args.out: "\n".join(lines) + "\n",
                  args.out + ".meta.json": json.dumps(meta, indent=1) + "\n"})
    return 0


def cmd_error(args) -> int:
    f = get_function(args.f)
    kind = OperatorKind(args.op)
    thetas = _parse_theta_list(args.theta)
    n_list = _parse_int_list(args.n)
    points = [(theta, p.n, p.m, p.error) for theta in thetas
              for p in error_curve(f, kind, theta, n_list, grid_size=args.grid)]
    return _write_sweep(args, "error", points, {"function": args.f, "operator": kind.value})


def cmd_lebesgue(args) -> int:
    kind = LebesgueKind(args.kind)
    thetas = _parse_theta_list(args.theta)
    n_list = _parse_int_list(args.n)
    reports = [(theta, lebesgue_const(level, kind, grid_size=args.grid))
               for theta in thetas for level in _sweep_levels(theta, n_list)]
    points = [(theta, r.n, r.m, r.value) for theta, r in reports]
    rows = [{"theta": theta, "n": r.n, "m": r.m, "quad_spec": r.quad_spec} for theta, r in reports]
    return _write_sweep(args, "value", points, {"kind": kind.value}, rows=rows)


def _read_samples(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:  # \r\n and \r read as \n, which alone splits
            values = list(map(float, filter(None, map(str.strip, fh.read().split("\n")))))
    except ValueError as exc:
        raise ValueError(f"malformed sample file {path!r}: {exc}") from exc
    if not values:
        raise ValueError(f"sample file {path!r} is empty")
    return np.asarray(values, dtype=float)


def cmd_decompose(args) -> int:
    n_top = _chain_top(args.n0, args.levels, args.theta).n  # decompose_multi's checks, first
    if args.f is not None:
        samples = get_function(args.f)(cheb_nodes(n_top))
    else:
        samples = _read_samples(args.samples)
        if samples.size != n_top:
            raise ValueError(f"sample file holds {samples.size} values, "
                             f"need n0 * 3^L = {n_top}")
    decomp = decompose_multi(samples, args.n0, args.levels, args.theta)
    _write_files({args.out: pyramid_to_json(decomp) + "\n"})
    return 0


def cmd_reconstruct(args) -> int:
    try:
        with open(args.pyramid, encoding="utf-8") as fh:
            decomp = pyramid_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 text
        raise PyramidError(f"cannot read pyramid file {args.pyramid!r}: {exc}") from exc
    top = reconstruct_multi(decomp)
    again = redecompose(top, decomp)
    deviation = float(np.max(np.abs(decomp.base.a - again.base.a)))
    for d, e in zip(decomp.details, again.details):
        deviation = max(deviation, float(np.max(np.abs(d.b - e.b))))
    samples = ortho_to_values(top)
    _write_files({args.out: "\n".join(map(float.__repr__, samples.tolist())) + "\n"})
    print(f"round-trip deviation: {_fmt(deviation)}")
    return 0


def cmd_basis(args) -> int:
    level = VPLevel(args.n, args.m)
    index_kind = "r" if args.family in ("q", "q-tilde") else "k"
    idx = getattr(args, index_kind)
    if idx is None:
        raise ValueError(f"family {args.family!r} needs --{index_kind}")
    xs = probe_grid(args.grid)
    vals = probe_values(_BASIS_BUILDERS[args.family](level, idx), args.grid)
    lines = ["x,value", *map("{!r},{!r}".format, xs.tolist(), vals.tolist())]
    _write_files({args.out: "\n".join(lines) + "\n"})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once and shared by each call of `main`:
    do not mutate it.  Each `parse_args` call starts a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="vpwave",
        description="Experiments with de la Vallee Poussin scaling/wavelet bases",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = argparse.ArgumentParser(add_help=False)  # the arguments of both sweeps
    sweep.add_argument("--theta", required=True, help="comma-separated list in (0, 1)")
    sweep.add_argument("--n", required=True, help="single value or start:step:stop")
    sweep.add_argument("--grid", type=int, default=10000, help="probe grid size M")
    sweep.add_argument("--out", required=True,
                       help="output CSV path (settings go to <out>.meta.json)")

    p = sub.add_parser("error", parents=[sweep], help="sup-norm error sweep of an approximant")
    p.add_argument("--f", required=True, help="registry function name")
    p.add_argument("--op", required=True, choices=[k.value for k in OperatorKind])
    p.set_defaults(func=cmd_error)

    p = sub.add_parser("lebesgue", parents=[sweep], help="Lebesgue constant sweep")
    p.add_argument("--kind", required=True, choices=[k.value for k in LebesgueKind])
    p.set_defaults(func=cmd_lebesgue)

    p = sub.add_parser("decompose", help="build a pyramid JSON file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--f", help="registry function name")
    src.add_argument("--samples", help="one-column CSV of samples in node order")
    p.add_argument("--n0", type=int, required=True, help="base resolution")
    p.add_argument("--levels", type=int, required=True, help="number of splits L")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild samples from a pyramid file")
    p.add_argument("--pyramid", required=True, help="pyramid JSON path")
    p.add_argument("--out", required=True, help="output one-column CSV path")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("basis", help="sample one basis function on the probe grid")
    p.add_argument("--family", required=True, choices=list(_BASIS_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, help="node index (phi/psi families)")
    p.add_argument("--r", type=int, help="degree (q families)")
    p.add_argument("--grid", type=int, default=10000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_basis)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PyramidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
