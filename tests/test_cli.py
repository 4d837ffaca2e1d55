import argparse
import itertools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import pqharmonic
import report_reference as reference
from pqharmonic import cli, curves, expressions, variation

CONE_CHART = """\
# rotation cone with slope 1/sqrt(6)
type: hypersurface
c: 0
u: 1/2, 2
v: 0, 2*pi
x1: u*cos(v)/sqrt(6)
x2: u*sin(v)/sqrt(6)
x3: u
"""

CIRCLE_CHART = """\
type: curve
c: 0
t: 0, 2*pi
x1: 2*cos(t)
x2: 2*sin(t)
x3: 0
"""

LINE_CHART = """\
type: curve
c: 0
t: 0, 1
x1: t
x2: 2*t
x3: 1/2
"""

# k vanishes at t = 0 only, the middle of the domain
CUBIC_CHART = """\
type: curve
c: 0
t: -1, 1
x1: t
x2: t^3
x3: 0
"""


def run(argv):
    return cli.main(argv)


def _program(argv):
    src = os.path.dirname(os.path.dirname(pqharmonic.__file__))
    return subprocess.run([sys.executable, "-m", "pqharmonic.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def _strip_timestamp(text):
    return re.sub(r"^timestamp: .*$", "timestamp: X", text, flags=re.M)


def test_catalog_lists_builtins(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("sphere-in-sphere", "cone", "helix", "plane", "great-sphere",
                 "circle"):
        assert name in out
    assert "p = 1/b^2" in out
    assert "1/sqrt(q(q-1))" in out
    assert "Minimal" in out


def test_verify_hypersurface_expect_match(capsys):
    code = run(["verify-hypersurface", "--builtin", "sphere-in-sphere",
                "--m", "2", "--a2", "0.5", "--p", "2", "--q", "2.5",
                "--grid", "16", "--expect", "proper"])
    assert code == 0
    out = capsys.readouterr().out
    assert "schema_version: 1" in out
    assert "classification: ProperPQHarmonic" in out


def test_verify_hypersurface_expect_mismatch(capsys):
    code = run(["verify-hypersurface", "--builtin", "sphere-in-sphere",
                "--a2", "0.5", "--p", "2.5", "--q", "2", "--expect", "proper"])
    assert code == 1


def test_verify_hypersurface_bad_config(capsys):
    code = run(["verify-hypersurface", "--builtin", "sphere-in-sphere",
                "--a2", "2.0", "--p", "2", "--q", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_hypersurface_grid_too_large(capsys):
    # 8^9 grid points: refused before any array is built
    code = run(["verify-hypersurface", "--builtin", "great-sphere", "--m", "9",
                "--p", "2", "--q", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


CONE_PQ = ["--builtin", "cone", "--p", "4/3", "--q", "3"]
CIRCLE_PQ = ["--builtin", "circle", "--p", "2", "--q", "2"]


@pytest.mark.parametrize("argv", [
    ["verify-hypersurface", *CONE_PQ, "--tol", "nan"],
    ["verify-hypersurface", *CONE_PQ, "--tol", "-1"],
    ["sweep", *CONE_PQ, "--param", "r", "--values", "0.5", "--tol", "inf"],
    ["verify-curve", *CIRCLE_PQ, "--tol", "0"],
    ["verify-curve", *CIRCLE_PQ, "--samples", "0"],
    ["verify-curve", "--builtin", "circle", "--rho", "1e-60", "--p", "2", "--q", "8"],
    ["variation-check", *CIRCLE_PQ, "--K", "64", "--amplitude", "nan"],
    ["variation-check", *CIRCLE_PQ, "--K", "64", "--max-rel", "nan"],
    ["variation-check", *CIRCLE_PQ, "--K", "64", "--fields", "0"],
], ids=["tol-nan", "tol-negative", "sweep-tol-inf", "curve-tol-zero", "samples-0",
        "curve-residual-overflow",
        "amplitude-nan", "max-rel-nan", "fields-0"])
def test_bad_numeric_flag_is_config_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_expect_fails_before_any_work(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("classified before --expect was checked")

    monkeypatch.setattr(cli, "classify", unreachable)
    assert run(["verify-hypersurface", *CONE_PQ, "--expect", "whatever"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: unknown --expect value 'whatever'") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["verify-hypersurface", "--builtin", "cone", "--p", "2+", "--q", "2"], "--p"),
    (["verify-hypersurface", "--builtin", "cone", "--r", "1/", "--p", "2", "--q", "3"], "--r"),
    (["verify-curve", "--builtin", "helix", "--alpha", "pi/", "--p", "2", "--q", "2"], "--alpha"),
    (["solve", "--builtin", "cone", "--q", "3", "--p-bracket", "1,8*"], "--p-bracket"),
], ids=["p", "r", "alpha", "p-bracket"])
def test_expression_error_names_its_flag(argv, flag, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: unexpected token") and err.count("\n") == 1


@pytest.mark.parametrize("p", ["(" * 1000 + "2" + ")" * 1000, "+".join(["1"] * 3000)],
                         ids=["parentheses", "sum"])
def test_deep_expression_is_a_flag_error(p, capsys):
    argv = ["verify-hypersurface", "--builtin", "plane", "--q", "2", "--grid", "4", "--p", p]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --p: ") and captured.err.count("\n") == 1


def test_missing_selector_is_config_error(capsys):
    assert run(["verify-hypersurface", "--p", "2", "--q", "2"]) == 2


def test_invalid_pq_is_config_error(capsys):
    assert run(["verify-hypersurface", "--builtin", "plane",
                "--p", "0.5", "--q", "2"]) == 2


def test_verify_curve_helix(capsys):
    code = run(["verify-curve", "--builtin", "helix", "--alpha", "0.785398",
                "--a", "1.322876", "--b", "0.5", "--p", "2", "--q", "2",
                "--samples", "8", "--expect", "proper"])
    assert code == 0
    assert "classification: ProperPQHarmonic" in capsys.readouterr().out


def test_verify_curve_fraction_flags(capsys):
    code = run(["verify-curve", "--builtin", "helix", "--alpha", "pi/4",
                "--a", "sqrt(7)/2", "--b", "1/2", "--p", "2", "--q", "2",
                "--samples", "6", "--expect", "proper"])
    assert code == 0


def test_solve_cone_pair(capsys):
    assert run(["solve", "--builtin", "cone", "--q", "3",
                "--unknowns", "p,r"]) == 0
    out = capsys.readouterr().out
    p = float(re.search(r"^  p: (.*)$", out, re.M).group(1))
    r = float(re.search(r"^  r: (.*)$", out, re.M).group(1))
    assert p == pytest.approx(4 / 3, abs=1e-6)
    assert r == pytest.approx(1 / math.sqrt(6), abs=1e-6)


@pytest.mark.parametrize("q", [5.7, 6.0, 8.0])
def test_solve_cone_pair_large_q(q, capsys):
    # the root r = 1/sqrt(q(q-1)) lies below the default bracket (0.3, 0.7)
    assert run(["solve", "--builtin", "cone", "--q", str(q), "--unknowns", "p,r"]) == 0
    out = capsys.readouterr().out
    p = float(re.search(r"^  p: (.*)$", out, re.M).group(1))
    r = float(re.search(r"^  r: (.*)$", out, re.M).group(1))
    assert p == pytest.approx(2 * (1 - 1 / q), abs=1e-9)
    assert r == pytest.approx(1 / math.sqrt(q * (q - 1)), abs=1e-9)


@pytest.mark.parametrize("q", ["0.5", "1"])
def test_solve_cone_pair_rejects_q_at_most_1(q, capsys):
    code = run(["solve", "--builtin", "cone", "--q", q, "--unknowns", "p,r"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_solve_sphere_p(capsys):
    assert run(["solve", "--builtin", "sphere-in-sphere", "--a2", "0.7",
                "--q", "2", "--unknowns", "p"]) == 0
    out = capsys.readouterr().out
    p = float(re.search(r"^  p: (.*)$", out, re.M).group(1))
    assert p == pytest.approx(10 / 3, abs=1e-6)


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--builtin", "sphere-in-sphere", "--param", "a2",
                "--values", "0.3,0.5,0.7", "--p", "2", "--q", "2",
                "--grid", "6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,max_eq1,max_eq2,classification"
    assert len(lines) == 4
    assert lines[2].startswith("0.5,") and lines[2].endswith("ProperPQHarmonic")
    assert lines[1].endswith("NotPQHarmonic")


@pytest.mark.parametrize("argv", [
    ["--builtin", "cone", "--param", "a2", "--values", "0.3,0.6"],
    ["--builtin", "sphere-in-sphere", "--param", "m", "--values", "2.5"],
    ["--builtin", "plane", "--param", "r", "--values", "0.5"],
], ids=["cone-a2", "sphere-m", "plane-r"])
def test_sweep_rejects_a_parameter_the_builtin_lacks(argv, capsys):
    assert run(["sweep", *argv, "--p", "2", "--q", "3", "--grid", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_sweep_range_gives_the_rows_of_its_linspace_as_values(tmp_path):
    common = ["sweep", "--builtin", "sphere-in-sphere", "--param", "a2",
              "--p", "2", "--q", "2", "--grid", "4", "--out"]
    values = ",".join(repr(float(v)) for v in np.linspace(0.3, 0.7, 5))
    assert run(common + [str(tmp_path / "range.csv"), "--range", "0.3,0.7,5"]) == 0
    assert run(common + [str(tmp_path / "values.csv"), "--values", values]) == 0
    rows = (tmp_path / "range.csv").read_text()
    assert len(rows.splitlines()) == 6
    assert rows == (tmp_path / "values.csv").read_text()


@pytest.mark.parametrize("count", ["x", "-1", "0"])
def test_sweep_range_count_must_be_a_positive_integer(count, capsys):
    argv = ["sweep", "--builtin", "sphere-in-sphere", "--param", "a2",
            "--range", f"0.3,0.6,{count}", "--p", "2", "--q", "2", "--grid", "4"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --range: ") and captured.err.count("\n") == 1


def test_abbreviated_flag_is_a_config_error(capsys):
    argv = ["verify-curve", "--builtin", "helix", "--p", "3", "--q", "2"]
    assert run(argv + ["--al", "0.7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: --al") and err.count("\n") == 1
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert not any(p.allow_abbrev for p in [parser, *subparsers.choices.values()])


def test_chart_file_hypersurface(tmp_path, capsys):
    path = tmp_path / "cone.txt"
    path.write_text(CONE_CHART)
    code = run(["verify-hypersurface", "--chart-file", str(path),
                "--p", "4/3", "--q", "3", "--grid", "5", "--expect", "proper"])
    assert code == 0


def test_chart_file_sweep_uses_stencil_tolerance(tmp_path):
    path = tmp_path / "cone.txt"
    path.write_text(CONE_CHART)
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--chart-file", str(path), "--param", "r",
                "--values", "1/sqrt(6)", "--p", "4/3", "--q", "3",
                "--grid", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",ProperPQHarmonic")


def test_complex_flag_value_is_config_error(capsys):
    code = run(["verify-hypersurface", "--builtin", "cone", "--p", "(-1)^0.5",
                "--q", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_chart_file_curve(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    path.write_text(CIRCLE_CHART)
    code = run(["verify-curve", "--chart-file", str(path), "--p", "2",
                "--q", "2", "--samples", "6"])
    assert code == 0
    out = capsys.readouterr().out
    # radius-2 circle at speed 2: k = 1/2
    assert "classification: NotPQHarmonic" in out


def _curve_rows(out):
    lines = out.split("points:\n", 1)[1].splitlines()
    assert lines[0].split() == ["index", "t", "k", "tau", "r1", "r2", "r3"]
    return [[float(x) for x in line.split()[2:]] for line in lines[1:]]


def test_verify_curve_straight_line_is_geodesic(tmp_path, capsys):
    path = tmp_path / "line.txt"
    path.write_text(LINE_CHART)
    code = run(["verify-curve", "--chart-file", str(path), "--p", "2", "--q", "3",
                "--samples", "8", "--expect", "geodesic"])
    assert code == 0
    out = capsys.readouterr().out
    assert "classification: Geodesic" in out and "max_residual: 0\n" in out
    rows = _curve_rows(out)
    assert len(rows) == 8 and all(row == [0.0] * 5 for row in rows)


def test_verify_curve_zero_row_only_where_the_frame_is_undefined(tmp_path, capsys):
    path = tmp_path / "cubic.txt"
    path.write_text(CUBIC_CHART)
    code = run(["verify-curve", "--chart-file", str(path), "--p", "2", "--q", "2",
                "--samples", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "classification: NotPQHarmonic" in out
    rows = _curve_rows(out)
    assert len(rows) == 9 and rows[4] == [0.0] * 5
    for i, (k, tau, r1, r2, r3) in enumerate(rows):
        if i != 4:
            assert k > 0.2 and tau == 0.0 and r1 != 0.0 and r2 != 0.0, i


def test_verify_curve_calls_the_raw_map_once_per_lattice_point(tmp_path, monkeypatch):
    # a chart-file curve is used as written: no arc-length inversion calls it
    path = tmp_path / "circle.txt"
    path.write_text(CIRCLE_CHART)
    rows = []
    evaluate = expressions.Expression.evaluate

    def counted(self, **values):
        if "t" in values:
            rows.append(np.size(values["t"]))
        return evaluate(self, **values)

    monkeypatch.setattr(expressions.Expression, "evaluate", counted)
    assert run(["verify-curve", "--chart-file", str(path), "--p", "2", "--q", "2",
                "--samples", "16", "--out", str(tmp_path / "r.txt")]) == 0
    assert rows == [16 * 17] * 3        # one call of x1, x2 and x3 each
    assert "curve: circle.txt\n" in (tmp_path / "r.txt").read_text()


def test_verify_curve_refuses_a_cusp(tmp_path, capsys):
    path = tmp_path / "cusp.txt"
    path.write_text("type: curve\nc: 0\nt: -1, 1\nx1: t^2\nx2: t^3\nx3: 0\n")
    assert run(["verify-curve", "--chart-file", str(path), "--p", "2", "--q", "2",
                "--samples", "33"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: curve speed \S+ at or below 1e-10 near t = \S+\n", captured.err)


@pytest.mark.parametrize("chart, argv", [
    # |P|^2 = u^2 + 1/4, 0.74 at u = 0.7; both sampling paths read P
    ("type: hypersurface\nc: 1\nu: 0.5, 0.9\nv: 0, 2*pi\n"
     "x1: u*cos(v)\nx2: u*sin(v)\nx3: 0\nx4: 1/2\n", ["verify-hypersurface"]),
    ("type: hypersurface\nc: 1\nu: 0.5, 0.9\nv: 0, 2*pi\n"
     "x1: u*cos(v)\nx2: u*sin(v)\nx3: 0\nx4: 1/2\n", ["verify-hypersurface", "--stencil"]),
    ("type: curve\nc: 1\nt: 0, 1\nx1: t\nx2: t\nx3: 0\nx4: 1\n", ["verify-curve"]),
], ids=["hypersurface", "hypersurface-stencil", "curve"])
def test_chart_maps_off_the_model_are_refused(chart, argv, tmp_path, capsys):
    path = tmp_path / "off.txt"
    path.write_text(chart)
    assert run(argv + ["--chart-file", str(path), "--p", "2", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: point \[.*\] off the SphereEmbedded model: "
                        r"<P,P> = \S+, not 1/c = 1\n", captured.err)


SPHERE = ["--builtin", "sphere-in-sphere"]
CONE_SWEEP = ["sweep", "--builtin", "cone", "--param", "r", "--p", "2", "--q", "3"]


@pytest.mark.parametrize("chart, argv, message", [
    ("type: curve\nc 0\n", ["verify-curve"], "expected 'key: value'"),
    (CIRCLE_CHART.replace("type: curve", "type: surface"), ["verify-curve"],
     "'type' must be hypersurface or curve"),
    (CONE_CHART.replace("v: 0, 2*pi\n", ""), ["verify-hypersurface"],
     "missing domain line 'v: lo, hi'"),
    (CONE_CHART.replace("u: 1/2, 2", "u: 1/2"), ["verify-hypersurface"], "expected 'lo,hi'"),
    (CIRCLE_CHART, ["verify-hypersurface"], "describes a curve, not a hypersurface"),
    (None, ["solve", *SPHERE, "--q", "3", "--unknowns", "p,r"], "runs on the cone family"),
    (None, ["solve", *SPHERE, "--q", "3", "--unknowns", "r"], "unsupported --unknowns 'r'"),
    (None, CONE_SWEEP + ["--range", "0.3,0.5"], "--range expects 'lo,hi,count'"),
    (None, CONE_SWEEP, "sweep needs --values or --range"),
    (None, ["verify-hypersurface", "--builtin", "cone", "--r", "0", "--p", "2", "--q", "3"],
     "cone slope parameter must be positive"),
    (None, ["verify-curve", "--builtin", "circle", "--rho", "0", "--p", "2", "--q", "2"],
     "radius must be positive"),
    (None, ["verify-hypersurface", *SPHERE, "--m", "0", "--p", "2", "--q", "2"],
     "dimension must be >= 1"),
], ids=["no-colon", "bad-type", "missing-v", "one-bound", "curve-as-hypersurface",
        "pr-off-cone", "unknowns-r", "range-two-parts", "sweep-no-values", "r-0", "rho-0",
        "m-0"])
def test_config_refusals_exit_2_with_one_error_line(chart, argv, message, tmp_path, capsys):
    if chart is not None:
        path = tmp_path / "chart.txt"
        path.write_text(chart)
        argv = argv + ["--chart-file", str(path), "--p", "2", "--q", "2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# closed-form geometry whose f^4 or metric overflows: NaN in eq1 or |eq2|_g
@pytest.mark.parametrize("builtin, param, value", [
    ("cone", "r", "1e-200"),
    ("cone", "r", "1e300"),
    ("sphere-in-sphere", "a2", "1e-300"),
], ids=["cone-r-tiny", "cone-r-huge", "sphere-a2-tiny"])
def test_a_nonfinite_residual_is_refused(builtin, param, value, capsys):
    pq = ["--builtin", builtin, "--p", "2", "--q", "3", "--grid", "4"]
    for argv in (["verify-hypersurface", *pq, f"--{param}", value],
                 ["sweep", *pq, "--param", param, "--values", value]):
        # in process, where a RuntimeWarning is an error
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite residual: ")
        assert captured.err.count("\n") == 1
        proc = _program(argv)
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert proc.stderr.startswith("error: non-finite residual: ")
        assert proc.stderr.count("\n") == 1


# each prints RuntimeWarnings, then a verdict on NaN, unless the NaN is refused
@pytest.mark.parametrize("argv, message", [
    (["variation-check", "--builtin", "helix", "--alpha", "0.785398", "--a", "1.3228756555",
      "--b", "0.5", "--p", "1e300", "--q", "2", "--max-rel", "1e-4"],
     "error: non-finite first variation: dE/dt = nan"),
    (["solve", "--builtin", "cone", "--r", "1e-200", "--q", "3", "--unknowns", "p"],
     "error: non-finite least squares: residual = nan, p = nan"),
    (["solve", "--builtin", "sphere-in-sphere", "--a2", "1e-300", "--q", "3"],
     "error: non-finite least squares: residual = nan, p = nan"),
    (["solve", "--builtin", "cone", "--q", "3", "--unknowns", "p,r",
      "--r-bracket", "1e-200,2e-200"],
     "error: non-finite reduced equations at theta=1e-200: p(theta) = nan, "
     "tangential mean = nan"),
], ids=["variation-check", "solve-cone", "solve-sphere", "solve-pair"])
def test_a_nonfinite_solve_or_first_variation_is_refused(argv, message, capsys):
    # in process, where a RuntimeWarning is an error
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    proc = _program(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["verify-curve", *CIRCLE_PQ, "--samples", str(curves.MAX_SAMPLES + 1)],
     f"error: {curves.MAX_SAMPLES + 1} samples exceed {curves.MAX_SAMPLES}\n"),
    (["variation-check", *CIRCLE_PQ, "--K", str(variation.MAX_K + 1)],
     f"error: node count K = {variation.MAX_K + 1} exceeds {variation.MAX_K}\n"),
], ids=["samples", "K"])
def test_node_counts_above_their_caps_are_refused(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_chart_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("type: hypersurface\nc: 0\nx1: u\n")
    assert run(["verify-hypersurface", "--chart-file", str(bad),
                "--p", "2", "--q", "2"]) == 2


# (u^2)^0.75 = |u|^1.5 is finite at u = 0, its jets are not; --grid 5 puts
# the middle grid column at u = 0 exactly
KINK_CHART = """\
type: hypersurface
c: 0
u: -1, 1
v: 0, 1
x1: u
x2: v
x3: (u^2)^0.75
"""


def test_a_jet_that_fails_on_the_grid_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "kink.txt"
    path.write_text(KINK_CHART)
    argv = ["verify-hypersurface", "--chart-file", str(path), "--p", "2", "--q", "2"]
    assert run(argv + ["--grid", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: evaluation failed for '(u^2)^0.75': "
                            "divide by zero encountered in float_power\n")
    # off u = 0 the same file classifies
    assert run(argv + ["--grid", "4"]) == 0
    # and as a program it ends the same way, with no traceback
    proc = _program(argv + ["--grid", "5"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("chart, command", [
    (CONE_CHART.replace("u: 1/2, 2", "u: 2, 1/2"), "verify-hypersurface"),
    (CIRCLE_CHART.replace("t: 0, 2*pi", "t: 2*pi, 0"), "verify-curve"),
    (CONE_CHART.replace("u: 1/2, 2", "u: 1/2, 1e400"), "verify-hypersurface"),
], ids=["reversed-hypersurface", "reversed-curve", "infinite-hypersurface"])
def test_a_bad_domain_is_a_config_error(chart, command, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(chart)
    assert run([command, "--chart-file", str(path), "--p", "2", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: bad\.txt: domain interval \(\S+, \S+\) "
                        r"needs finite lo < hi\n", captured.err)


def test_determinism_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["verify-hypersurface", "--builtin", "cone", "--r", "0.5",
            "--p", "2", "--q", "3", "--grid", "5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())


def test_variation_check_circle(capsys):
    code = run(["variation-check", "--builtin", "circle", "--rho", "1",
                "--p", "2", "--q", "2", "--K", "64", "--fields", "1",
                "--seed", "0", "--max-rel", "1e-3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "worst_rel_error" in out


def test_threads_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PQHARM_THREADS", "2")
    out = tmp_path / "r.txt"
    assert run(["verify-hypersurface", "--builtin", "sphere-in-sphere",
                "--a2", "0.5", "--p", "2", "--q", "2", "--grid", "5",
                "--out", str(out)]) == 0
    assert "ProperPQHarmonic" in out.read_text()
    monkeypatch.setenv("PQHARM_THREADS", "zebra")
    # every subcommand checks the variable before it runs
    for argv in (["catalog"],
                 ["verify-hypersurface", "--builtin", "sphere-in-sphere",
                  "--a2", "0.5", "--p", "2", "--q", "2"],
                 ["verify-curve", *CIRCLE_PQ],
                 ["solve", "--builtin", "sphere-in-sphere", "--a2", "0.5", "--q", "3"],
                 ["sweep", "--builtin", "sphere-in-sphere", "--param", "a2",
                  "--values", "0.5", "--p", "2", "--q", "2"],
                 ["variation-check", *CIRCLE_PQ, "--K", "64"]):
        capsys.readouterr()
        assert run(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "", argv[0]
        assert captured.err.startswith("error: PQHARM_THREADS") and captured.err.count("\n") == 1


def test_public_names_resolve():
    for name in pqharmonic.__all__:
        assert hasattr(pqharmonic, name), name
    namespace = {}
    exec("from pqharmonic import *", namespace)
    assert set(pqharmonic.__all__) <= set(namespace)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pqharmonic.__file__))
    code = ("import sys, pqharmonic, pqharmonic.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- one parser per process, one template per report row ---------------------

PARITY_RUNS = {
    "sphere-m2-grid16": ["verify-hypersurface", "--builtin", "sphere-in-sphere", "--m", "2",
                         "--p", "2", "--q", "2", "--grid", "16"],
    "sphere-m3-grid8": ["verify-hypersurface", "--builtin", "sphere-in-sphere", "--m", "3",
                        "--a2", "0.3", "--p", "3", "--q", "2", "--grid", "8"],
    "stencil-cone-grid4": ["verify-hypersurface", "--builtin", "cone", "--r", "1/sqrt(6)",
                           "--p", "4/3", "--q", "3", "--stencil", "--grid", "4"],
    "cone-chart-file": ["verify-hypersurface", "--chart-file", "{cone}",
                        "--p", "4/3", "--q", "3"],
    "helix": ["verify-curve", "--builtin", "helix", "--p", "2", "--q", "3"],
    "line-chart-file": ["verify-curve", "--chart-file", "{line}", "--p", "2", "--q", "2"],
    "variation-check": ["variation-check", "--builtin", "circle", "--p", "2", "--q", "2",
                        "--K", "64", "--fields", "2"],
}


def _record(monkeypatch, owner, name, log):
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.setdefault(name, []).append((args, out))
        return out
    monkeypatch.setattr(owner, name, recorded)


@pytest.mark.parametrize("name", PARITY_RUNS)
def test_points_block_matches_the_per_cell_renderer(name, tmp_path, monkeypatch):
    files = {"cone": tmp_path / "cone.txt", "line": tmp_path / "line.txt"}
    files["cone"].write_text(CONE_CHART)
    files["line"].write_text(LINE_CHART)
    argv = [arg.format(**files) for arg in PARITY_RUNS[name]]
    log = {}
    for owner, fn in ((cli, "classify"), (cli.crv, "frenet"),
                      (cli.crv, "curve_system_residual"),
                      (cli.variation, "first_variation_check")):
        _record(monkeypatch, owner, fn, log)
    out = tmp_path / "report.txt"
    assert run(argv + ["--out", str(out)]) == 0
    if argv[0] == "verify-hypersurface":
        (_, report), = log["classify"]
        table = reference.hypersurface_table(report)
    elif argv[0] == "verify-curve":
        ((_, ts), fr), = log["frenet"]
        (_, residuals), = log["curve_system_residual"]
        table = reference.curve_table(ts, fr, residuals)
    else:
        table = reference.variation_table([rep for _, rep in log["first_variation_check"]])
    text, want = out.read_text(), reference.render_report(argv[0], {}, {}, table)
    assert len(table[1]) > 1
    block = "\npoints:\n"
    assert text[text.index(block):] == want[want.index(block):]


def test_row_template_matches_fmt_cell_for_cell():
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
               1 / 3, -2 / 3, 123456.789, 1e-7, 2.5e16]
    coords = np.array([special, special[::-1]]).T
    values = np.array([special[3:] + special[:3], special[::-1], special[5:] + special[:5]]).T
    text = cli.render_report("cmd", {}, {}, (["a", "b", "c", "d", "e", "f"], coords, values))
    rows = text[text.index("\npoints:\n"):].splitlines()[3:]
    assert len(rows) == len(special)
    for i, row in enumerate(rows):
        # verify-hypersurface passed numpy scalars, verify-curve Python floats
        cells = (*values[i, :2], *values[i, 2:].tolist())
        old = (i, *(f"{x:.6g}" for x in coords[i]), *cells)
        assert [type(x) for x in cells] == [np.float64, np.float64, float]
        assert row == "  " + " ".join(reference._fmt(x) for x in old)

    # render_report keeps the per-cell output for config and summary
    config, summary = {"p": 4 / 3, "grid": 8}, {"ok": False, "max": np.float64(1e-7)}
    assert _strip_timestamp(cli.render_report("cmd", config, summary)) == \
        _strip_timestamp(reference.render_report("cmd", config, summary))


def test_parser_reuse_leaks_no_value_between_calls(tmp_path):
    assert cli.build_parser() is not cli.build_parser()
    pair, out = tmp_path / "pair.txt", tmp_path / "p.txt"
    # the p,r solve sets args.p_bracket to its default '0.5,2.5'
    assert run(["solve", "--builtin", "cone", "--q", "3", "--unknowns", "p,r",
                "--out", str(pair)]) == 0
    assert "p_bracket: 0.5,2.5" in pair.read_text()
    argv = ["solve", "--builtin", "sphere-in-sphere", "--a2", "0.3", "--q", "2",
            "--unknowns", "p"]
    assert run(argv + ["--out", str(out)]) == 0
    src = os.path.dirname(os.path.dirname(pqharmonic.__file__))
    fresh = subprocess.run([sys.executable, "-m", "pqharmonic.cli"] + argv,
                           env=dict(os.environ, PYTHONPATH=src), check=True,
                           capture_output=True, text=True).stdout
    assert "p_bracket: 1.1,8" in fresh
    assert _strip_timestamp(out.read_text()) == _strip_timestamp(fresh)


def test_bad_flag_then_good_call(capsys):
    argv = ["verify-hypersurface", "--builtin", "plane", "--p", "2", "--q", "2", "--grid", "4"]
    assert run(argv + ["--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert "classification: Minimal" in captured.out and captured.err == ""


def test_main_runs_the_command_bound_at_call_time(monkeypatch, capsys):
    argv = ["verify-hypersurface", "--builtin", "plane", "--p", "2", "--q", "2", "--grid", "4",
            "--expect", "minimal"]
    assert run(argv) == 0
    seen = []

    def rebound(args):
        seen.append(args.builtin)
        return cli.Report("verify-hypersurface", {}, {"classification": "NotPQHarmonic"})
    monkeypatch.setattr(cli, "cmd_verify_hypersurface", rebound)
    assert run(argv) == 1
    assert seen == ["plane"]


# -- the curve verdict in the engine, one builtin table, one report path -------

def _report(argv, tmp_path):
    """Exit code and report text of one run written with --out."""
    out = tmp_path / "report.txt"
    code = run(argv + ["--out", str(out)])
    return code, out.read_text()


@pytest.mark.parametrize("argv, classification", [
    (["--builtin", "helix", "--p", "2", "--q", "2"], "ProperPQHarmonic"),
    (["--builtin", "circle", "--rho", "2", "--p", "2", "--q", "2"], "NotPQHarmonic"),
    (["--chart-file", "{line}", "--p", "2", "--q", "3"], "Geodesic"),
], ids=["helix", "circle-rho2", "line-chart-file"])
def test_classify_curve_is_the_verify_curve_verdict(argv, classification, tmp_path):
    line = tmp_path / "line.txt"
    line.write_text(LINE_CHART)
    argv = [arg.format(line=line) for arg in argv]
    args = cli.build_parser().parse_args(["verify-curve", *argv])
    report = pqharmonic.classify_curve(cli.build_curve(args), cli._params(args))
    assert report.classification.value == classification
    assert report.tol == 1e-6 and len(report.ts) == 32 and len(report.residuals) == 3
    if classification == "Geodesic":
        assert report.max_residual == 0.0
        assert np.isnan(report.frames.k).all()
    code, text = _report(["verify-curve", *argv], tmp_path)
    assert code == 0
    assert f"  classification: {report.classification.value}\n" in text
    assert f"  max_residual: {report.max_residual:.12g}\n" in text


def _subparsers():
    parser = cli.build_parser()
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(subparser):
    return {opt: action for action in subparser._actions for opt in action.option_strings}


SELECTOR_KIND = {"verify-hypersurface": "hypersurface", "solve": "hypersurface",
                 "sweep": "hypersurface", "verify-curve": "curve", "variation-check": "curve"}


def test_builtin_choices_and_flags_come_from_the_catalog():
    subparsers = _subparsers()
    assert set(subparsers) == set(SELECTOR_KIND) | {"catalog"}
    for command, kind in SELECTOR_KIND.items():
        entries = [e for e in pqharmonic.CATALOG if e.kind == kind]
        flags = _flags(subparsers[command])
        assert flags["--builtin"].choices == [e.name for e in entries]
        for entry in entries:
            for name, default in entry.parameters.items():
                assert flags["--" + name].default == default, (command, name)
    for command, subparser in subparsers.items():
        assert "--out" in _flags(subparser), command


@pytest.mark.parametrize("entry", pqharmonic.CATALOG, ids=lambda e: e.name)
def test_every_builtin_builds_from_its_defaults(entry):
    command = "verify-hypersurface" if entry.kind == "hypersurface" else "verify-curve"
    args = cli.build_parser().parse_args([command, "--builtin", entry.name,
                                          "--p", "2", "--q", "2"])
    build = cli.build_hypersurface if entry.kind == "hypersurface" else cli.build_curve
    chart = build(args)
    assert isinstance(chart, pqharmonic.ImmersionChart if entry.kind == "hypersurface"
                      else pqharmonic.CurveChart)
    values = {name: default if isinstance(default, int) else cli._num(default)
              for name, default in entry.parameters.items()}
    assert chart.name == build(argparse.Namespace(chart_file=None, builtin=entry.name,
                                                  **values)).name


def test_sweepable_parameters():
    assert {e.name: e.sweepable for e in pqharmonic.CATALOG if e.kind == "hypersurface"} == {
        "sphere-in-sphere": {"a2"}, "great-sphere": set(), "cone": {"r"}, "plane": set()}


def test_unknown_builtin_is_a_config_error(capsys):
    assert run(["verify-curve", "--builtin", "cone", "--p", "2", "--q", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for build in (cli.build_hypersurface, cli.build_curve):
        with pytest.raises(cli._CliError, match="unknown .* builtin 'nosuch'"):
            build(argparse.Namespace(chart_file=None, builtin="nosuch"))


def _keys(text, block):
    """The keys of one indented ``block:`` of a report, in order."""
    lines = text.split(f"\n{block}:\n", 1)[1].splitlines()
    return [line.split(":")[0].strip() for line in
            itertools.takewhile(lambda line: line.startswith("  "), lines)]


REPORT_KEYS = {
    "verify-hypersurface": (
        ["verify-hypersurface", "--builtin", "cone", "--p", "4/3", "--q", "3",
         "--expect", "proper"], 1,
        ["chart", "p", "q", "grid", "tol", "path"],
        ["classification", "max_abs_eq1", "max_eq2_norm", "n_points"]),
    "verify-curve": (
        ["verify-curve", "--builtin", "helix", "--p", "2", "--q", "2", "--expect", "proper"], 0,
        ["curve", "p", "q", "c", "samples", "tol"], ["classification", "max_residual"]),
    "solve": (
        ["solve", "--builtin", "sphere-in-sphere", "--a2", "0.7", "--q", "2"], 0,
        ["chart", "q", "unknowns", "p_bracket", "grid"],
        ["success", "p", "max_residual", "reason"]),
    "solve-pair": (
        ["solve", "--builtin", "cone", "--q", "3", "--unknowns", "p,r"], 0,
        ["family", "q", "unknowns", "p_bracket", "r_bracket", "grid"],
        ["converged", "admissible", "p", "r", "iterations", "max_residual", "reason"]),
    "variation-check": (
        ["variation-check", "--builtin", "circle", "--p", "2", "--q", "2", "--K", "64",
         "--fields", "1", "--max-rel", "1e-30"], 1,
        ["curve", "p", "q", "K", "seed", "fields", "amplitude"], ["worst_rel_error"]),
}


@pytest.mark.parametrize("name", REPORT_KEYS)
def test_report_keys_and_exit_code(name, tmp_path):
    argv, code, config, summary = REPORT_KEYS[name]
    got, text = _report(argv, tmp_path)
    assert got == code
    assert text.startswith("schema_version: 1\ntimestamp: ")
    assert f"\ncommand: {argv[0]}\n" in text
    assert _keys(text, "config") == config
    assert _keys(text, "summary") == summary


def test_catalog_and_sweep_text_and_exit_code(tmp_path):
    code, text = _report(["catalog"], tmp_path)
    assert code == 0 and text.startswith("builtin charts and curves:\n")
    assert text.count("[hypersurface]") == 4 and text.count("[curve]") == 2
    code, text = _report(["sweep", "--builtin", "cone", "--param", "r", "--values", "0.4,0.5",
                          "--p", "4/3", "--q", "3", "--grid", "4"], tmp_path)
    assert code == 0
    assert text.splitlines()[0] == "param,max_eq1,max_eq2,classification"
    assert len(text.splitlines()) == 3
