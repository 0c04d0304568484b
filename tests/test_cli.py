import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import BAD_F64LE_PYRAMIDS

import vpwave
from vpwave.chebyshev import cheb_nodes
from vpwave.cli import _parse_int_list, _parse_theta_list, build_parser, main
from vpwave.functions import get_function


def test_error_command_smooth(tmp_path):
    out = tmp_path / "err.csv"
    code = main(["error", "--f", "sin", "--op", "discrete", "--theta", "0.5",
                 "--n", "10:10:100", "--grid", "2000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,n,m,error"
    assert len(lines) == 11
    errors_from_n30 = [float(l.split(",")[3]) for l in lines[1:]
                       if int(l.split(",")[1]) >= 30]
    assert all(e < 1e-12 for e in errors_from_n30)


def test_error_command_operator_comparison(tmp_path):
    # Fourier projection at most as bad as the interpolant on |x|; recorded
    # as data, non-fatal on violation
    vals = {}
    for op in ("vp", "fourier"):
        out = tmp_path / f"{op}.csv"
        assert main(["error", "--f", "abs", "--op", op, "--theta", "0.5",
                     "--n", "90", "--grid", "2000", "--out", str(out)]) == 0
        vals[op] = float(out.read_text().splitlines()[1].split(",")[3])
    if not vals["fourier"] <= vals["vp"] * 1.001:
        import warnings

        warnings.warn(f"projection/interpolant ordering violated: {vals}")
    assert all(np.isfinite(v) and v > 0 for v in vals.values())


def test_error_command_unknown_function(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(["error", "--f", "cosh", "--op", "vp", "--theta", "0.5",
                 "--n", "10", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "unknown function" in capsys.readouterr().err


def test_error_command_invalid_theta(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["error", "--f", "sin", "--op", "vp", "--theta", "1.5",
                 "--n", "10", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["error", "lebesgue"])
def test_sweep_skips_degenerate_levels_and_exits_2_when_none_is_left(tmp_path, capsys, command):
    # theta = 0.05 gives m = 0 at n = 10 and m = 1 at n = 20
    args = {"error": ["--f", "sin", "--op", "vp"], "lebesgue": ["--kind", "lambda-bar"]}[command]
    out = tmp_path / "e.csv"
    with pytest.warns(UserWarning, match="skipping n=10"):
        code = main([command, *args, "--theta", "0.05", "--n", "10", "--grid", "1000",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    with pytest.warns(UserWarning, match="skipping n=10"):
        code = main([command, *args, "--theta", "0.05", "--n", "10:10:20", "--grid", "1000",
                     "--out", str(out)])
    assert code == 0
    assert [line.split(",")[1:3] for line in out.read_text().splitlines()[1:]] == [["20", "1"]]


@pytest.mark.parametrize("n", ["5:0:10", "10:1:5"])
def test_sweep_refuses_a_bad_range(tmp_path, capsys, n):
    # a step below 1 or a stop before the start
    out = tmp_path / "e.csv"
    code = main(["error", "--f", "sin", "--op", "vp", "--theta", "0.5", "--n", n,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: bad range {n!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_abs03_is_zero_at_zero():
    x = np.array([-1.0, -0.5, 0.0, 0.25, 1.0])
    vals = get_function("abs03")(x)
    assert vals[2] == 0.0
    assert vals.tolist() == pytest.approx([1.0, 0.5 ** 0.3, 0.0, 0.25 ** 0.3, 1.0], rel=1e-15)


def test_error_command_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["error", "--f", "runge", "--op", "fourier", "--theta", "0.3,0.7",
            "--n", "10:10:30", "--grid", "1500"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == \
        (tmp_path / "b.csv.meta.json").read_bytes()


def test_lebesgue_command(tmp_path):
    out = tmp_path / "leb.csv"
    code = main(["lebesgue", "--kind", "lambda-bar", "--theta", "0.5",
                 "--n", "10:10:30", "--grid", "2000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,n,m,value"
    values = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(v >= 1.0 for v in values)
    meta = json.loads((tmp_path / "leb.csv.meta.json").read_text())
    assert meta["kind"] == "lambda-bar"
    assert meta["grid_size"] == 2000
    assert len(meta["rows"]) == 3


def test_lebesgue_command_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["lebesgue", "--kind", "lambda-tilde", "--theta", "0.5",
            "--n", "10:10:30", "--grid", "1000"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == \
        (tmp_path / "b.csv.meta.json").read_bytes()


def test_lebesgue_conjecture_rowwise(tmp_path):
    # integral constant stays below the node-sum constant, rowwise
    outs = {}
    for kind in ("lambda", "lambda-tilde"):
        path = tmp_path / f"{kind}.csv"
        assert main(["lebesgue", "--kind", kind, "--theta", "0.5",
                     "--n", "10:10:20", "--grid", "1000", "--out", str(path)]) == 0
        outs[kind] = [float(l.split(",")[3])
                      for l in path.read_text().splitlines()[1:]]
    violations = [i for i, (lam, lt) in
                  enumerate(zip(outs["lambda"], outs["lambda-tilde"]))
                  if lam > lt + 1e-9]
    if violations:
        import warnings

        warnings.warn(f"ordering violated at rows {violations}")
    assert all(v >= 1.0 for v in outs["lambda"] + outs["lambda-tilde"])


def test_decompose_reconstruct_flow(tmp_path, capsys):
    pyr = tmp_path / "pyr.json"
    code = main(["decompose", "--f", "sin6sign", "--n0", "64", "--levels", "3",
                 "--theta", "0.7", "--out", str(pyr)])
    assert code == 0
    doc = json.loads(pyr.read_text())
    assert doc["n0"] == 64 and doc["L"] == 3
    assert [d["n"] for d in doc["details"]] == [64, 192, 576]

    samples_out = tmp_path / "rec.csv"
    code = main(["reconstruct", "--pyramid", str(pyr), "--out", str(samples_out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "round-trip deviation:" in printed
    assert float(printed.split(":")[1]) < 1e-9
    values = [float(v) for v in samples_out.read_text().split()]
    assert len(values) == 64 * 27


def test_decompose_determinism_and_sample_files(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(45)
    sfile = tmp_path / "samples.csv"
    sfile.write_text("\n".join(repr(float(v)) for v in samples) + "\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["decompose", "--samples", str(sfile), "--n0", "5", "--levels", "2",
            "--theta", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decompose_malformed_samples(tmp_path):
    sfile = tmp_path / "bad.csv"
    # the last samples are finite, but their coefficients overflow
    for text in ("1.0\nnot-a-number\n", "1.0\n2.0\nnan\n4.0\n5.0\n",
                 "1.0\n2.0\ninf\n4.0\n5.0\n", "1.7e308\n" * 5):
        sfile.write_text(text)
        code = main(["decompose", "--samples", str(sfile), "--n0", "5",
                     "--levels", "0", "--theta", "0.5", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert not (tmp_path / "x.json").exists()


def _decompose_five(sfile, out):
    return main(["decompose", "--samples", str(sfile), "--n0", "5", "--levels", "0",
                 "--theta", "0.5", "--out", str(out)])


# the sample-file grammar: lines end in LF, CRLF or a lone CR, blank and whitespace-only
# lines are skipped, and each other line, stripped, is one number as Python's float reads it
@pytest.mark.parametrize("text", [
    "0.5\n-1.25\n2.0\n3.0\n1_0\n",
    "0.5\r\n-1.25\r\n2.0\r\n3.0\r\n10\r\n",
    "0.5\r-1.25\r2.0\r3.0\r10",
    "\n  0.5\n\t\n-1.25 \n\t2.0\t\n\f3.0\f\n \r\n10.0",
])
def test_sample_file_grammar_accepts(tmp_path, text):
    plain, sfile = tmp_path / "plain.csv", tmp_path / "samples.csv"
    plain.write_bytes(b"0.5\n-1.25\n2.0\n3.0\n10.0\n")
    sfile.write_bytes(text.encode("utf-8"))
    assert _decompose_five(plain, tmp_path / "plain.json") == 0
    assert _decompose_five(sfile, tmp_path / "x.json") == 0
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


# each file would hold five values if the line were split at its whitespace or at every
# line break that str.splitlines knows, or if a byte order mark were dropped
@pytest.mark.parametrize("text, line", [
    ("0.5\n-1.25 2.0\n3.0\n10\n", "-1.25 2.0"),
    ("0.5\n-1.25\v2.0\n3.0\n10\n", "-1.25\v2.0"),
    ("0.5\n-1.25\u20282.0\n3.0\n10\n", "-1.25\u20282.0"),
    ("\ufeff0.5\n-1.25\n2.0\n3.0\n10\n", "\ufeff0.5"),
])
def test_sample_file_grammar_refuses(tmp_path, capsys, text, line):
    sfile, out = tmp_path / "samples.csv", tmp_path / "x.json"
    sfile.write_bytes(text.encode("utf-8"))
    assert _decompose_five(sfile, out) == 2
    assert capsys.readouterr().err == (f"error: malformed sample file {str(sfile)!r}: "
                                       f"could not convert string to float: {line!r}\n")
    assert not out.exists()


def test_decompose_empty_sample_file(tmp_path, capsys):
    sfile = tmp_path / "empty.csv"
    sfile.write_text("\n \n")
    out = tmp_path / "x.json"
    code = main(["decompose", "--samples", str(sfile), "--n0", "5", "--levels", "0",
                 "--theta", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: sample file {str(sfile)!r} is empty\n"
    assert not out.exists()


def test_decompose_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 64 * 3^30 samples: the first array cannot be allocated at all (93 PiB)
    out = tmp_path / "x.json"
    code = main(["decompose", "--f", "sin", "--n0", "64", "--levels", "30", "--theta", "0.5",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_decompose_wrong_sample_count(tmp_path):
    sfile = tmp_path / "short.csv"
    sfile.write_text("\n".join(["1.0"] * 10) + "\n")
    code = main(["decompose", "--samples", str(sfile), "--n0", "5",
                 "--levels", "2", "--theta", "0.5", "--out", str(tmp_path / "x.json")])
    assert code == 2


# the pyramid's own checks run before n0 * 3^L sizes a grid or a sample file
@pytest.mark.parametrize("source, n0, levels, message", [
    ("--f", "5", "-1", "level count must be nonnegative, got -1"),
    ("--samples", "5", "-1", "level count must be nonnegative, got -1"),
    ("--f", "0", "1", "level requires 0 < m < n, got (n=0, m=0)"),
    ("--f", "-3", "2", "level requires 0 < m < n, got (n=-3, m=-2)"),
])
def test_decompose_reports_a_bad_level_chain(tmp_path, capsys, source, n0, levels, message):
    sfile = tmp_path / "samples.csv"
    sfile.write_text("1.0\n2.0\n")
    out = tmp_path / "x.json"
    code = main(["decompose", source, "sin" if source == "--f" else str(sfile), "--n0", n0,
                 "--levels", levels, "--theta", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_decompose_refuses_a_level_count_beyond_an_array_at_once(tmp_path):
    # 81 * 3^(10^9) is refused before it is formed, which would take minutes
    run = _run_cli("decompose --f sin --n0 81 --levels 1000000000 --theta 0.5 --out x.json",
                   tmp_path, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_level_chain_mismatch(tmp_path):
    pyr = tmp_path / "pyr.json"
    assert main(["decompose", "--f", "sin", "--n0", "5", "--levels", "1",
                 "--theta", "0.5", "--out", str(pyr)]) == 0
    doc = json.loads(pyr.read_text())
    doc["details"][0]["n"] = 7  # break the chain
    pyr.write_text(json.dumps(doc))
    code = main(["reconstruct", "--pyramid", str(pyr), "--out", str(tmp_path / "r.csv")])
    assert code == 3
    assert not (tmp_path / "r.csv").exists()


def test_reconstruct_malformed_json(tmp_path):
    pyr = tmp_path / "pyr.json"
    for text in ("{broken",
                 '{"theta": 0.5, "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": null}',
                 '{"theta": 0.5, "n0": 5, "L": 0, "base": [0, NaN, 0, 0, 0], "details": []}',
                 '{"theta": "0.5", "n0": 5, "L": 0, "base": [0, 0, 0, 0, 0], "details": []}',
                 '{"theta": 0.5, "n0": 5, "L": 0, "base": ["1", "2", "0", true, "4e0"], '
                 '"details": []}',
                 "[" * 100000 + "]" * 100000):  # nested past the parser's recursion limit
        pyr.write_text(text)
        code = main(["reconstruct", "--pyramid", str(pyr), "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert not (tmp_path / "r.csv").exists()


def test_reconstruct_refuses_bad_f64le_payloads(tmp_path, capsys):
    pyr, out = tmp_path / "pyr.json", tmp_path / "r.csv"
    for text in BAD_F64LE_PYRAMIDS:
        pyr.write_text(text)
        assert main(["reconstruct", "--pyramid", str(pyr), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: bad pyramid document: ")
        assert not out.exists()


def test_reconstruct_unreadable_pyramid_exits_3(tmp_path, capsys):
    # a missing file, a directory, and a file that is not UTF-8 text
    binary = tmp_path / "utf16.json"
    binary.write_bytes('{"theta": 0.5}'.encode("utf-16"))
    out = tmp_path / "r.csv"
    for path in (tmp_path / "missing.json", tmp_path, binary):
        code = main(["reconstruct", "--pyramid", str(path), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read pyramid file {str(path)!r}: ")
        assert not out.exists()
    assert "'utf-8' codec can't decode byte 0xff" in err  # the UTF-16 file's byte order mark


def test_reconstruct_overflowing_samples_exit_2(tmp_path, capsys):
    # a valid pyramid whose samples overflow to inf/NaN inside the DCTs
    pyr = tmp_path / "pyr.json"
    pyr.write_text('{"theta": 0.5, "n0": 5, "L": 0, "base": [1e308, 1e308, 1e308, 1e308, 1e308], '
                   '"details": []}')
    out = tmp_path / "r.csv"
    assert main(["reconstruct", "--pyramid", str(pyr), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: values must be finite\n"
    assert captured.out == ""
    assert not out.exists()


def test_level_zero_decompose_reconstruct(tmp_path, capsys):
    pyr = tmp_path / "pyr.json"
    assert main(["decompose", "--f", "runge", "--n0", "10", "--levels", "0",
                 "--theta", "0.5", "--out", str(pyr)]) == 0
    assert json.loads(pyr.read_text())["details"] == []
    out = tmp_path / "rec.csv"
    assert main(["reconstruct", "--pyramid", str(pyr), "--out", str(out)]) == 0
    # reconstruction of a bare projection returns its sample representation
    values = np.array([float(v) for v in out.read_text().split()])
    from vpwave.bases import ortho_to_values
    from vpwave.filters import VPLevel
    from vpwave.operators import discrete_proj

    f = get_function("runge")
    expected = ortho_to_values(discrete_proj(f(cheb_nodes(10)), VPLevel(10, 5)))
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-15)


def test_basis_command_interpolating_scaling(tmp_path):
    out = tmp_path / "phi.csv"
    code = main(["basis", "--family", "phi", "--n", "13", "--m", "6", "--k", "7",
                 "--grid", "1000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 1002
    # row 500 sits at cos(pi/2), the middle node of the 13-point grid
    x, value = (float(p) for p in lines[501].split(","))
    assert abs(x) < 1e-15
    assert value == pytest.approx(1.0, abs=1e-11)


def test_basis_command_wavelet_localization(tmp_path):
    from vpwave.chebyshev import y_nodes

    out = tmp_path / "psi.csv"
    assert main(["basis", "--family", "psi-ortho", "--n", "13", "--m", "6",
                 "--k", "13", "--grid", "4000", "--out", str(out)]) == 0
    rows = [tuple(float(p) for p in line.split(","))
            for line in out.read_text().splitlines()[1:]]
    xs = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    assert np.all(np.isfinite(vals))
    y = y_nodes(13)
    peak = xs[np.argmax(np.abs(vals))]
    spacing = max(abs(y[12] - y[11]), abs(y[13] - y[12]))
    assert abs(peak - y[12]) <= 2 * spacing


def test_basis_command_q_matches_library(tmp_path):
    from oracles import approx_scatter, probe_table

    from vpwave.filters import VPLevel

    out = tmp_path / "q.csv"
    assert main(["basis", "--family", "q", "--n", "13", "--m", "6", "--r", "12",
                 "--grid", "500", "--out", str(out)]) == 0
    vals = np.array([float(line.split(",")[1])
                     for line in out.read_text().splitlines()[1:]])
    expected = approx_scatter(VPLevel(13, 6))[:, 12] @ probe_table(np.arange(19), 500)
    np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-15)



def test_csv_columns_are_the_repr_of_each_value(tmp_path, capsys):
    from vpwave.bases import ortho_to_values, wavelet_interp
    from vpwave.chebyshev import probe_grid, probe_values
    from vpwave.filters import VPLevel
    from vpwave.mra import pyramid_from_json, reconstruct_multi

    pyr, rec, psi = tmp_path / "pyr.json", tmp_path / "rec.csv", tmp_path / "psi.csv"
    assert main(["decompose", "--f", "runge", "--n0", "5", "--levels", "2", "--theta", "0.5",
                 "--out", str(pyr)]) == 0
    assert main(["reconstruct", "--pyramid", str(pyr), "--out", str(rec)]) == 0
    values = ortho_to_values(reconstruct_multi(pyramid_from_json(pyr.read_text())))
    assert rec.read_bytes() == "".join(repr(float(v)) + "\n" for v in values).encode()

    assert main(["basis", "--family", "psi", "--n", "13", "--m", "6", "--k", "7",
                 "--grid", "500", "--out", str(psi)]) == 0
    vals = probe_values(wavelet_interp(VPLevel(13, 6), 7), 500)
    expected = "x,value\n" + "".join(f"{repr(float(x))},{repr(float(v))}\n"
                                     for x, v in zip(probe_grid(500), vals))
    assert psi.read_bytes() == expected.encode()

def test_basis_command_bad_index(tmp_path):
    out = tmp_path / "never.csv"
    code = main(["basis", "--family", "phi", "--n", "13", "--m", "6", "--k", "14",
                 "--grid", "500", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    code = main(["basis", "--family", "q", "--n", "13", "--m", "6", "--k", "3",
                 "--grid", "500", "--out", str(out)])
    assert code == 2


def test_unknown_operator_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["error", "--f", "sin", "--op", "bogus", "--theta", "0.5",
              "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command",
                         ["error", "lebesgue", "decompose", "reconstruct", "basis"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    pyramid = tmp_path / "pyr.json"
    assert main(["decompose", "--f", "sin", "--n0", "5", "--levels", "1",
                 "--theta", "0.5", "--out", str(pyramid)]) == 0
    out = tmp_path / "missing" / "out.csv"
    args = {
        "error": ["--f", "sin", "--op", "vp", "--theta", "0.5", "--n", "10",
                  "--grid", "1000"],
        "lebesgue": ["--kind", "lambda-bar", "--theta", "0.5", "--n", "10",
                     "--grid", "1000"],
        "decompose": ["--f", "sin", "--n0", "5", "--levels", "1", "--theta", "0.5"],
        "reconstruct": ["--pyramid", str(pyramid)],
        "basis": ["--family", "q", "--n", "13", "--m", "6", "--r", "3", "--grid", "100"],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["error", "lebesgue"])
def test_failed_sidecar_leaves_no_half_artifact(tmp_path, capsys, command):
    # <out>.meta.json is a directory, so the sidecar cannot be written: the
    # command exits 2 and leaves neither <out> nor a temporary file behind
    args = {
        "error": ["--f", "sin", "--op", "vp", "--theta", "0.5", "--n", "10",
                  "--grid", "1000"],
        "lebesgue": ["--kind", "lambda-bar", "--theta", "0.5", "--n", "10",
                     "--grid", "1000"],
    }[command]
    out = tmp_path / "e.csv"
    (tmp_path / "e.csv.meta.json").mkdir()
    assert main([command, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv.meta.json"]
    # and the other way round: <out> is a directory, so no sidecar may stay
    (tmp_path / "e.csv.meta.json").rmdir()
    out.mkdir()
    assert main([command, *args, "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv"]


_NUMERIC = st.text(alphabet="0123456789:,.+-_e ", max_size=16)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(st.text(max_size=16), _NUMERIC))
def test_list_parsers_return_or_raise_value_error(text):
    # only parsed, never run: a fuzzed range may be astronomically long
    try:
        assert _parse_int_list(text)
    except ValueError:
        pass
    try:
        assert all(0.0 < t < 1.0 for t in _parse_theta_list(text))
    except ValueError:
        pass


_TOKENS = st.sampled_from([
    "error", "lebesgue", "decompose", "reconstruct", "basis", "--f", "--op", "--theta",
    "--n", "--grid", "--out", "--kind", "--samples", "--n0", "--levels", "--pyramid",
    "--family", "--m", "--k", "--r", "--help", "-h", "--version", "--", "sin", "vp",
    "lambda", "phi", "q", "0.5", "10", "-1", "1e400", "x.csv", "--n=3", "--theta=",
])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=st.lists(st.one_of(_TOKENS, st.text(max_size=8)), max_size=12))
def test_parser_gives_a_namespace_or_exits_0_or_2(argv):
    # the arguments are parsed and never run
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
        else:
            assert isinstance(args, argparse.Namespace)


# the README's CLI invocations, in order
_README_INVOCATIONS = [
    "error --f sin --op discrete --theta 0.5 --n 10:10:100 --out errors.csv",
    "lebesgue --kind lambda-tilde --theta 0.5 --n 10:10:100 --out leb.csv",
    "decompose --f sin6sign --n0 64 --levels 3 --theta 0.7 --out pyr.json",
    "reconstruct --pyramid pyr.json --out samples.csv",
    "basis --family phi-ortho --n 13 --m 6 --k 7 --out phi.csv",
]


def _run_cli(line: str, cwd, **kwargs) -> subprocess.CompletedProcess:
    """``vpwave <line>`` in a fresh process run in ``cwd``, so the package's location
    goes on its path as an absolute one."""
    package_root = str(pathlib.Path(vpwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "vpwave.cli", *line.split()], cwd=cwd,
                          env=env, capture_output=True, text=True, **kwargs)


def test_shared_parser_carries_nothing_from_one_call_to_the_next(tmp_path, monkeypatch, capsys):
    assert build_parser() is build_parser()
    # the reference: one fresh process per invocation, run in its own directory
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    printed = [_run_cli(line, fresh, check=True).stdout for line in _README_INVOCATIONS]
    expected = {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert len(expected) == 7  # the two sweeps write a sidecar each

    def run_all(name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        for line, out in zip(_README_INVOCATIONS, printed):
            assert main(line.split()) == 0
            assert capsys.readouterr().out == out
        assert {p.name: p.read_bytes() for p in pathlib.Path().iterdir()} == expected

    run_all("first")
    # between the two runs: a help page, an argument error and a bad pyramid
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--family", "phi", "--n", "13", "--m", "6", "--k", "x", "--out", "x.csv"])
    assert exc.value.code == 2
    (tmp_path / "bad.json").write_text("{broken")
    assert main(["reconstruct", "--pyramid", "bad.json", "--out", "x.csv"]) == 3
    capsys.readouterr()
    run_all("second")


def test_shared_parser_starts_each_namespace_afresh():
    q = build_parser().parse_args(["basis", "--family", "q", "--n", "13", "--m", "6", "--r", "3",
                                   "--grid", "2000", "--out", "x"])
    assert (q.grid, q.r, q.k) == (2000, 3, None)
    phi = build_parser().parse_args(["basis", "--family", "phi-ortho", "--n", "13", "--m", "6",
                                     "--k", "7", "--out", "x"])
    assert (phi.grid, phi.r, phi.k) == (10000, None, 7)
