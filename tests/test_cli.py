import math
import os
import re
import subprocess
import sys

import pytest

import pqharmonic
from pqharmonic import cli

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


def run(argv):
    return cli.main(argv)


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
    # radius-2 circle: k = 1/2 after arclength reparametrization
    assert "classification: NotPQHarmonic" in out


def test_chart_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("type: hypersurface\nc: 0\nx1: u\n")
    assert run(["verify-hypersurface", "--chart-file", str(bad),
                "--p", "2", "--q", "2"]) == 2


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


def test_threads_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PQHARM_THREADS", "2")
    out = tmp_path / "r.txt"
    assert run(["verify-hypersurface", "--builtin", "sphere-in-sphere",
                "--a2", "0.5", "--p", "2", "--q", "2", "--grid", "5",
                "--out", str(out)]) == 0
    assert "ProperPQHarmonic" in out.read_text()
    monkeypatch.setenv("PQHARM_THREADS", "zebra")
    assert run(["verify-hypersurface", "--builtin", "sphere-in-sphere",
                "--a2", "0.5", "--p", "2", "--q", "2"]) == 2


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pqharmonic.__file__))
    code = ("import sys, pqharmonic, pqharmonic.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
