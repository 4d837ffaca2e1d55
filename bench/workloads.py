"""Seeded job lists for the three benchmark workloads, and the check of each job.

A workload is an endless cycle of job kinds in a fixed order; the seed
draws every job's parameters (radii, helix frequencies, exponents, random
variation fields), so job cost depends on the position in the cycle and
not on the seed.  Each job runs the public API or ``pqharmonic.cli.main``
and is checked against :mod:`oracle`, never against another pqharmonic
result.

Importing this module imports pqharmonic; the benchmark's set-up time is
measured from before that import.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import pqharmonic as pq
from pqharmonic import cli

import oracle

K_NODES = 128          # criterion-7 node count; smaller K fails the 1e-4 bound
FV_AMPLITUDE = 0.5
FV_REL_BOUND = 1e-4
FV_ORDER_TOL = 0.2
FV_CRITICAL_BOUND = 1e-5
MIN_PAIRING_BALANCE = 0.25
KT_BOUND = 1e-6
SOLVE_BOUND = 1e-6

SOLVE_DEFECT = ("chart-file 'solve --unknowns p' exits 2: a hard 1e-8 tolerance "
                "on the stencil path rejects the exact root")
SWEEP_DEFECT = ("chart-file 'sweep' labels the proper cone NotPQHarmonic: it uses "
                "the analytic 1e-6 tolerance on the stencil path")


@dataclass
class Check:
    ok: bool
    deviation: Optional[float]   # worst deviation from the closed form, if one applies
    detail: str = ""


@dataclass
class Job:
    index: int
    kind: str
    describe: str
    run: Callable             # run(ctx) -> outcome
    check: Callable           # check(outcome) -> Check
    chart_key: tuple = ()     # identifies the geometry, for the repeated-input share
    known_defect: Optional[str] = None
    prepare: Callable = lambda: None   # finishes the inputs, outside the timing


@dataclass
class Context:
    """What a job needs from the harness: the output directory and a chart hook."""

    out_dir: str
    wrap: Callable = field(default=lambda obj: obj)

    @property
    def report_path(self):
        return os.path.join(self.out_dir, "cli-report.txt")


@dataclass
class CliOutcome:
    code: int
    report: str
    stderr: str


@dataclass
class Workload:
    name: str
    why: str
    jobs: list
    cycle: int                # job kinds per cycle; runs measure whole cycles
    trace_jobs: int           # jobs replayed in the traced pass


def run_cli(ctx, argv):
    """Run ``pqharm argv --out <report>`` in-process; return code, report and stderr."""
    path = ctx.report_path
    if os.path.exists(path):
        os.remove(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + ["--out", path])
    report = ""
    if os.path.exists(path):
        with open(path) as fh:
            report = fh.read()
    return CliOutcome(code=code, report=report, stderr=err.getvalue())


def parse_report(text):
    """Summary mapping and point table of a pqharm text report."""
    summary, header, rows = {}, None, []
    section = None
    for line in text.splitlines():
        if not line.startswith("  "):
            section = line.rstrip(":")
            continue
        body = line.strip()
        if section == "summary":
            key, _, value = body.partition(": ")
            summary[key] = value
        elif section == "points":
            if header is None:
                header = body.split()
            else:
                rows.append(dict(zip(header, body.split())))
    return summary, rows


def _num(x):
    return repr(float(x))


def _cli_failure(out):
    if out.code != 0:
        return f"exit code {out.code}, expected 0: {out.stderr.strip()[:200]}"
    return None


# -- parameter draws ---------------------------------------------------------

def draw_helix(rng, admissible, away_from=None):
    """Normalized S^3 helix frequencies near the criterion-7 helices.

    ``away_from`` keeps the helix's critical exponent at least 0.5 from that
    p: near it the tension field vanishes and a relative error bound on the
    first variation stops being meaningful.
    """
    while True:
        c2 = rng.uniform(0.3, 0.6)
        b2 = rng.uniform(0.25, 0.6)
        a2 = (1.0 - b2 * (1.0 - c2)) / c2
        alpha, a, b = math.acos(math.sqrt(c2)), math.sqrt(a2), math.sqrt(b2)
        k, tau, p = oracle.helix_kt(a, b)
        if k < 0.3:
            continue
        if admissible and not (tau < 1.0 and 1.1 < p < 4.0):
            continue
        if away_from is not None and abs(p - away_from) < 0.5:
            continue
        return alpha, a, b


def off_p(rng, p):
    """An exponent clearly away from the proper one (and above 1)."""
    if rng.random() < 0.5 or p * 0.6 <= 1.05:
        return p * rng.uniform(1.2, 1.5)
    return p * rng.uniform(0.6, 0.8)


# -- first-variation jobs ----------------------------------------------------

def fv_job(index, curve_kind, curve, p, q, seeds, closed, critical=False):
    """first_variation_check at K=128 with one seeded random bump field.

    ``closed`` is (k, tau, c, normal) of the unit-speed base curve.  ``seeds``
    draws field seeds; :func:`prepare` keeps the first field whose pairing
    with the normal does not cancel, since near cancellation the right side
    of the identity is near zero and its relative error is meaningless.
    """
    k, tau, c, normal = closed
    lo, hi = curve.domain
    ts = [lo + (hi - lo) * i / K_NODES for i in range(K_NODES + 1)]
    weights = oracle.simpson_weights(K_NODES, hi - lo)
    field_seed = []

    def field(base):
        rng = np.random.default_rng(field_seed[0])
        return pq.random_bump_field(base, rng, amplitude=FV_AMPLITUDE)

    def prepare():
        while not field_seed:
            field_seed.append(seeds.getrandbits(32))
            if critical:
                break
            v = field(curve)
            values = [v(t) for t in ts]
            if oracle.pairing_balance(values, ts, weights, normal) < MIN_PAIRING_BALANCE:
                field_seed.clear()

    def run(ctx):
        base = ctx.wrap(curve)
        v = field(base)
        dcurve = pq.DiscretizedCurve(curve=base, K=K_NODES)
        rep = pq.first_variation_check(dcurve, v, pq.PQParams(p, q))
        return rep, v

    def check(outcome):
        rep, v = outcome
        values = [v(t) for t in ts]
        v_norm = max(float(np.linalg.norm(w)) for w in values if w is not None)
        if critical:
            dev = abs(rep.lhs) / v_norm
            ok = dev <= FV_CRITICAL_BOUND
            return Check(ok, dev, f"|lhs|/v_norm = {dev:.3e} (bound {FV_CRITICAL_BOUND:g})")
        coeff = oracle.curve_tension_coefficient(k, tau, c, p, q)
        rhs_ref = oracle.first_variation_rhs(values, ts, weights, normal, coeff)
        dev = max(abs(rep.lhs - rhs_ref), abs(rep.rhs - rhs_ref)) / abs(rhs_ref)
        fd = rep.fd_values
        converged = abs(fd[-2] - fd[-1]) <= 1e-7 * max(1.0, abs(rep.lhs))
        order = oracle.observed_order(fd)
        ok = dev <= FV_REL_BOUND and (converged or abs(order - 2.0) <= FV_ORDER_TOL)
        return Check(ok, dev, f"rel error vs closed form {dev:.3e}, order {order:.3f}")

    tag = "critical" if critical else f"p={p:g},q={q:g}"
    return Job(index, f"first_variation_check.{curve_kind}", f"{curve.name} {tag}",
               run, check, chart_key=("curve", curve.name), prepare=prepare)


# -- verify-curve jobs -------------------------------------------------------

def verify_curve_job(index, kind, argv, k, tau, c, p, q, chart_key):
    expected = oracle.curve_verdict(k, tau, c, p, q)

    def run(ctx):
        return run_cli(ctx, ["verify-curve"] + argv + ["--p", _num(p), "--q", _num(q)])

    def check(out):
        failure = _cli_failure(out)
        if failure:
            return Check(False, None, failure)
        summary, rows = parse_report(out.report)
        got = summary.get("classification")
        dev = max(max(abs(float(r["k"]) - k), abs(float(r["tau"]) - tau)) for r in rows)
        ok = got == expected and dev <= KT_BOUND
        return Check(ok, dev, f"{got} (expected {expected}), k/tau error {dev:.3e}")

    return Job(index, f"cli.verify-curve.{kind}", " ".join(argv), run, check,
               chart_key=chart_key)


def write_file(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def helix_chart_file(path, alpha, a, b, speed):
    """S^3 helix at constant speed ``speed`` (so the CLI reparametrizes it)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    write_file(path, "type: curve\nc: 1\n"
               f"t: 0, {2.0 * math.pi / speed!r}\n"
               f"x1: {ca!r}*cos({a * speed!r}*t)\n"
               f"x2: {ca!r}*sin({a * speed!r}*t)\n"
               f"x3: {sa!r}*cos({b * speed!r}*t)\n"
               f"x4: {sa!r}*sin({b * speed!r}*t)\n")


def h3_circle_chart_file(path, rho):
    write_file(path, "type: curve\nc: -1\nt: 0, 2*pi\n"
               f"x1: sinh({rho!r})*cos(t)\nx2: sinh({rho!r})*sin(t)\n"
               f"x3: 0\nx4: cosh({rho!r})\n")


def cone_chart_file(path, r):
    write_file(path, "type: hypersurface\nc: 0\nu: 1/2, 2\nv: 0, 2*pi\n"
               f"x1: u*cos(v)*{r!r}\nx2: u*sin(v)*{r!r}\nx3: u\n")


def h3_sphere_chart_file(path, rho):
    write_file(path, "type: hypersurface\nc: -1\nu: 0.45, 2.65\nv: 0, 2*pi\n"
               f"x1: sinh({rho!r})*sin(u)*cos(v)\nx2: sinh({rho!r})*sin(u)*sin(v)\n"
               f"x3: sinh({rho!r})*cos(u)\nx4: cosh({rho!r})\n")


# -- curve_variation ---------------------------------------------------------

# (p,q) is drawn per job from the criterion-7 matrix, within a cost class:
# p = 2 variations are about half the cost of the others
P2_PAIRS = ((2.0, 2.0), (2.0, 3.0))
OTHER_PAIRS = ((3.0, 2.0), (1.5, 2.5))

# cost classes at the seed: builtin verify-curve ~0.1 s, p = 2 variations and
# chart-file verify-curve ~0.8 s, other variations ~1.5 s; with whole cycles
# the median and the tail fall inside a class, not on a boundary between two
CURVE_CYCLE = (
    ("fv.circle", P2_PAIRS), ("verify.helix", True), ("fv.helix", OTHER_PAIRS),
    ("verify.helix-file", None), ("fv.critical", None), ("verify.h3-circle-file", None),
    ("fv.circle", OTHER_PAIRS), ("verify.circle", None), ("fv.helix", P2_PAIRS),
    ("verify.helix", False), ("fv.circle", P2_PAIRS), ("fv.helix", OTHER_PAIRS),
)


def curve_variation(seed, chart_dir, cycles):
    rng = random.Random(seed)
    jobs = []
    for index in range(cycles * len(CURVE_CYCLE)):
        kind, arg = CURVE_CYCLE[index % len(CURVE_CYCLE)]
        if kind == "fv.circle":
            rho = rng.uniform(0.8, 1.5)
            curve = pq.circle(rho)
            closed = (1.0 / rho, 0.0, 0.0, oracle.circle_normal(rho))
            jobs.append(fv_job(index, "circle", curve, *rng.choice(arg),
                               random.Random(rng.getrandbits(32)), closed))
        elif kind in ("fv.helix", "fv.critical"):
            critical = kind == "fv.critical"
            p, q = (None, 2.0) if critical else rng.choice(arg)
            alpha, a, b = draw_helix(rng, admissible=critical, away_from=p)
            hr = pq.helix(alpha, a, b)
            k, tau, p_star = oracle.helix_kt(a, b)
            if critical:
                p = p_star
            closed = (k, tau, 1.0, oracle.helix_normal(alpha, a, b, k))
            jobs.append(fv_job(index, "helix", hr.curve, p, q, random.Random(rng.getrandbits(32)),
                               closed, critical=critical))
        elif kind == "verify.helix":
            alpha, a, b = draw_helix(rng, admissible=True)
            k, tau, p_star = oracle.helix_kt(a, b)
            p = p_star if arg else off_p(rng, p_star)
            argv = ["--builtin", "helix", "--alpha", _num(alpha), "--a", _num(a),
                    "--b", _num(b), "--samples", "32"]
            jobs.append(verify_curve_job(index, "helix", argv, k, tau, 1.0, p,
                                         rng.uniform(1.5, 3.0), ("helix", alpha, a, b)))
        elif kind == "verify.helix-file":
            alpha, a, b = draw_helix(rng, admissible=True)
            k, tau, p_star = oracle.helix_kt(a, b)
            p = p_star if rng.random() < 0.5 else off_p(rng, p_star)
            path = os.path.join(chart_dir, f"helix-{index}.txt")
            helix_chart_file(path, alpha, a, b, rng.uniform(1.3, 2.0))
            argv = ["--chart-file", path, "--samples", "16"]
            jobs.append(verify_curve_job(index, "helix-file", argv, k, tau, 1.0, p,
                                         rng.uniform(1.5, 3.0), ("file", path)))
        elif kind == "verify.h3-circle-file":
            rho = rng.uniform(0.5, 1.2)
            path = os.path.join(chart_dir, f"h3-circle-{index}.txt")
            h3_circle_chart_file(path, rho)
            argv = ["--chart-file", path, "--samples", "16"]
            jobs.append(verify_curve_job(index, "h3-circle-file", argv,
                                         1.0 / math.tanh(rho), 0.0, -1.0,
                                         rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0),
                                         ("file", path)))
        elif kind == "verify.circle":
            rho = rng.uniform(0.8, 1.5)
            argv = ["--builtin", "circle", "--rho", _num(rho), "--samples", "32"]
            jobs.append(verify_curve_job(index, "circle", argv, 1.0 / rho, 0.0, 0.0,
                                         rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0),
                                         ("circle", rho)))
    return jobs


# -- hypersurface checks -----------------------------------------------------

def hyper_check(got, max_eq1, max_eq2, expected, eq1_ref):
    """Verdict check; deviation from the closed-form residual where it is grid-free.

    ``eq1_ref`` is the constant closed-form eq1 (0 at a proper p), or None
    when eq1 varies over the chart and only the verdict is checked.
    """
    if eq1_ref is None:
        dev = None
    elif eq1_ref == 0.0:
        dev = max(max_eq1, max_eq2)
    else:
        dev = max(abs(max_eq1 - abs(eq1_ref)) / abs(eq1_ref), max_eq2)
    dev_text = "" if dev is None else f", deviation {dev:.3e}"
    return Check(got == expected, dev, f"{got} (expected {expected}){dev_text}")


def verify_hyper_job(index, kind, argv, p, q, expected, eq1_ref, chart_key,
                     known_defect=None):
    def run(ctx):
        return run_cli(ctx, ["verify-hypersurface"] + argv + ["--p", _num(p), "--q", _num(q)])

    def check(out):
        failure = _cli_failure(out)
        if failure:
            return Check(False, None, failure)
        s, _ = parse_report(out.report)
        return hyper_check(s.get("classification"), float(s["max_abs_eq1"]),
                           float(s["max_eq2_norm"]), expected, eq1_ref)

    return Job(index, f"cli.verify-hypersurface.{kind}",
               " ".join(argv) + f" --p {p:.6g} --q {q:.6g}", run, check,
               chart_key=chart_key, known_defect=known_defect)


def sweep_job(index, kind, argv, param, values, p, q, expected, eq1_refs, chart_key,
              known_defect=None):
    def run(ctx):
        return run_cli(ctx, ["sweep"] + argv + [
            "--param", param, "--values", ",".join(_num(x) for x in values),
            "--p", _num(p), "--q", _num(q)])

    def check(out):
        failure = _cli_failure(out)
        if failure:
            return Check(False, None, failure)
        rows = [line.split(",") for line in out.report.splitlines()[1:]]
        if len(rows) != len(values):
            return Check(False, None, f"{len(rows)} sweep rows for {len(values)} values")
        checks = [hyper_check(row[3], float(row[1]), float(row[2]), want, ref)
                  for row, want, ref in zip(rows, expected, eq1_refs)]
        devs = [c.deviation for c in checks if c.deviation is not None]
        return Check(all(c.ok for c in checks), max(devs) if devs else None,
                     "; ".join(c.detail for c in checks))

    return Job(index, f"cli.sweep.{kind}", " ".join(argv) + f" --param {param}",
               run, check, chart_key=chart_key, known_defect=known_defect)


def solve_cli_job(index, kind, argv, q, unknowns, p_ref, r_ref, chart_key,
                  known_defect=None):
    def run(ctx):
        return run_cli(ctx, ["solve"] + argv + ["--q", _num(q), "--unknowns", unknowns])

    def check(out):
        failure = _cli_failure(out)
        if failure:
            return Check(False, None, failure)
        s, _ = parse_report(out.report)
        dev = abs(float(s["p"]) - p_ref)
        if r_ref is not None:
            dev = max(dev, abs(float(s["r"]) - r_ref))
        return Check(dev <= SOLVE_BOUND, dev, f"p = {s['p']} (expected {p_ref:.12g})")

    return Job(index, f"cli.solve.{kind}", " ".join(argv) + f" --q {q:.6g}", run, check,
               chart_key=chart_key, known_defect=known_defect)


# -- stencil_hypersurface ----------------------------------------------------

_STENCIL_KINDS = (
    "file-cone", "stencil-cone", "file-cone-solve", "stencil-sphere", "file-h3-sphere",
    "stencil-cone-off", "file-cone-sweep", "stencil-sphere-again", "file-cone-again",
)
# cost classes at the seed: exact-jet builtins ~0.5 s, FD chart files ~1.5 s and
# one m=3 job ~6 s, so the median and the tail fall among the chart-file jobs
STENCIL_CYCLE = _STENCIL_KINDS + ("stencil-sphere-m3",) + _STENCIL_KINDS


def stencil_hypersurface(seed, chart_dir, cycles):
    rng = random.Random(seed)
    jobs = []
    state = {}
    for index in range(cycles * len(STENCIL_CYCLE)):
        kind = STENCIL_CYCLE[index % len(STENCIL_CYCLE)]
        if kind in ("file-cone", "file-cone-solve", "file-cone-sweep"):
            q = rng.uniform(2.5, 3.4)   # stencil residual stays below half of 1e-3
            p, r = oracle.cone_proper(q)
            path = os.path.join(chart_dir, f"cone-{index}.txt")
            cone_chart_file(path, r)
            argv = ["--chart-file", path, "--grid", "4"]
            if kind == "file-cone":
                state["cone"] = (path, p, q)
                jobs.append(verify_hyper_job(index, "cone-file", argv, p, q, oracle.PROPER,
                                             0.0, ("file", path)))
            elif kind == "file-cone-solve":
                jobs.append(solve_cli_job(index, "cone-file", argv, q, "p", p, None,
                                          ("file", path), known_defect=SOLVE_DEFECT))
            else:
                jobs.append(sweep_job(index, "cone-file", argv, "r", [r], p, q,
                                      [oracle.PROPER], [0.0], ("file", path),
                                      known_defect=SWEEP_DEFECT))
        elif kind == "file-cone-again":
            path, p, q = state["cone"]
            jobs.append(verify_hyper_job(index, "cone-file", ["--chart-file", path, "--grid", "4"],
                                         off_p(rng, p), q, oracle.NOT_PQ, None, ("file", path)))
        elif kind in ("stencil-cone", "stencil-cone-off"):
            q = rng.uniform(2.5, 3.4)   # stencil residual stays below half of 1e-3
            p, r = oracle.cone_proper(q)
            grid = "4" if kind == "stencil-cone" else "5"
            argv = ["--builtin", "cone", "--r", _num(r), "--stencil", "--grid", grid]
            if kind == "stencil-cone":
                jobs.append(verify_hyper_job(index, "cone-stencil", argv, p, q,
                                             oracle.PROPER, 0.0, ("cone", r)))
            else:
                jobs.append(verify_hyper_job(index, "cone-stencil", argv, off_p(rng, p), q,
                                             oracle.NOT_PQ, None, ("cone", r)))
        elif kind in ("stencil-sphere", "stencil-sphere-m3"):
            m = 2 if kind == "stencil-sphere" else 3
            a2, q = rng.uniform(0.3, 0.7), rng.uniform(1.5, 3.0)
            argv = ["--builtin", "sphere-in-sphere", "--m", str(m), "--a2", _num(a2),
                    "--stencil", "--grid", "4"]
            if m == 2:
                state["stencil-sphere"] = (argv, a2)
            jobs.append(verify_hyper_job(index, f"sphere-m{m}-stencil", argv,
                                         oracle.sphere_proper_p(a2), q, oracle.PROPER, 0.0,
                                         ("sphere", m, a2)))
        elif kind == "stencil-sphere-again":
            argv, a2 = state["stencil-sphere"]
            p = off_p(rng, oracle.sphere_proper_p(a2))
            jobs.append(verify_hyper_job(index, "sphere-m2-stencil", argv, p,
                                         rng.uniform(1.5, 3.0), oracle.NOT_PQ,
                                         oracle.sphere_eq1(2, a2, p), ("sphere", 2, a2)))
        elif kind == "file-h3-sphere":
            rho = rng.uniform(0.6, 1.2)
            path = os.path.join(chart_dir, f"h3-sphere-{index}.txt")
            h3_sphere_chart_file(path, rho)
            p, q = rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0)
            jobs.append(verify_hyper_job(index, "h3-sphere-file",
                                         ["--chart-file", path, "--grid", "4"], p, q,
                                         oracle.NOT_PQ, oracle.h3_sphere_eq1(rho, p),
                                         ("file", path)))
    return jobs


# -- analytic_hypersurface ---------------------------------------------------

def classify_job(index, kind, chart, p, q, grid, expected, eq1_ref, chart_key):
    def run(ctx):
        return pq.classify(ctx.wrap(chart), pq.PQParams(p, q), n_per_axis=grid)

    def check(rep):
        return hyper_check(rep.classification.value, rep.max_abs_eq1, rep.max_eq2_norm,
                           expected, eq1_ref)

    return Job(index, f"classify.{kind}", f"{chart.name} p={p:.6g} q={q:.6g} grid={grid}",
               run, check, chart_key=chart_key)


def solve_p_job(index, kind, chart, q, bracket, p_ref, chart_key):
    def run(ctx):
        return pq.solve_p(ctx.wrap(chart), q, bracket, n_per_axis=8)

    def check(res):
        dev = abs(res.p - p_ref)
        return Check(res.success and dev <= SOLVE_BOUND, dev,
                     f"p = {res.p:.12g} (expected {p_ref:.12g})")

    return Job(index, f"solve_p.{kind}", f"{chart.name} q={q:.6g}", run, check,
               chart_key=chart_key)


def solve_pair_job(index, q, chart_key):
    p_ref, r_ref = oracle.cone_proper(q)

    def run(ctx):
        return pq.solve_param_pair(lambda r: ctx.wrap(pq.cone(r)), q, (0.3, 0.7),
                                   (0.5, 2.5), n_per_axis=8)

    def check(res):
        dev = max(abs(res.p - p_ref), abs(res.theta - r_ref))
        ok = res.converged and res.admissible and dev <= SOLVE_BOUND
        return Check(ok, dev, f"p = {res.p:.12g}, r = {res.theta:.12g}")

    return Job(index, "solve_param_pair.cone", f"cone family q={q:.6g}", run, check,
               chart_key=chart_key)


ANALYTIC_CYCLE = (
    "classify-sphere2", "cli-verify-cone", "solve_p-sphere", "classify-cone",
    "cli-sweep-sphere", "classify-great-sphere", "solve_pair-cone", "cli-verify-sphere3",
    "classify-plane", "cli-solve-sphere", "classify-sphere4", "cli-solve-cone",
    "classify-sphere3", "cli-verify-great-sphere", "solve_p-sphere", "cli-verify-plane",
    "cli-verify-sphere2",
)


def analytic_hypersurface(seed, chart_dir, cycles):
    rng = random.Random(seed)
    jobs = []
    for index in range(cycles * len(ANALYTIC_CYCLE)):
        kind = ANALYTIC_CYCLE[index % len(ANALYTIC_CYCLE)]
        proper = rng.random() < 0.5
        q = rng.uniform(2.4, 3.8)
        if kind.startswith("classify-sphere") or kind.startswith("cli-verify-sphere"):
            m = int(kind[-1])
            a2 = rng.uniform(0.3, 0.7)
            p_star = oracle.sphere_proper_p(a2)
            p = p_star if proper else off_p(rng, p_star)
            expected = oracle.PROPER if proper else oracle.NOT_PQ
            eq1 = oracle.sphere_eq1(m, a2, p) if not proper else 0.0
            grid = {2: 16, 3: 8, 4: 8}[m]
            if kind.startswith("classify"):
                jobs.append(classify_job(index, f"sphere-m{m}", pq.sphere_in_sphere(m, a2),
                                         p, q, grid, expected, eq1, ("sphere", m, a2)))
            else:
                argv = ["--builtin", "sphere-in-sphere", "--m", str(m), "--a2", _num(a2),
                        "--grid", str(grid)]
                jobs.append(verify_hyper_job(index, f"sphere-m{m}", argv, p, q, expected,
                                             eq1, ("sphere", m, a2)))
        elif kind in ("classify-cone", "cli-verify-cone"):
            p_star, r = oracle.cone_proper(q)
            p = p_star if proper else off_p(rng, p_star)
            expected = oracle.PROPER if proper else oracle.NOT_PQ
            eq1 = 0.0 if proper else None
            if kind == "classify-cone":
                jobs.append(classify_job(index, "cone", pq.cone(r), p, q, 16, expected,
                                         eq1, ("cone", r)))
            else:
                argv = ["--builtin", "cone", "--r", _num(r), "--grid", "12"]
                jobs.append(verify_hyper_job(index, "cone", argv, p, q, expected, eq1,
                                             ("cone", r)))
        elif kind == "classify-great-sphere":
            jobs.append(classify_job(index, "great-sphere", pq.great_sphere(3),
                                     rng.uniform(1.5, 3.0), q, 8, oracle.MINIMAL, None,
                                     ("great-sphere", 3)))
        elif kind == "classify-plane":
            jobs.append(classify_job(index, "plane", pq.plane(), rng.uniform(1.5, 3.0), q,
                                     16, oracle.MINIMAL, None, ("plane",)))
        elif kind == "cli-verify-great-sphere":
            jobs.append(verify_hyper_job(index, "great-sphere",
                                         ["--builtin", "great-sphere", "--m", "2",
                                          "--grid", "16"],
                                         rng.uniform(1.5, 3.0), q, oracle.MINIMAL, None,
                                         ("great-sphere", 2)))
        elif kind == "cli-verify-plane":
            jobs.append(verify_hyper_job(index, "plane", ["--builtin", "plane", "--grid", "8"],
                                         rng.uniform(1.5, 3.0), q, oracle.MINIMAL, None,
                                         ("plane",)))
        elif kind == "solve_p-sphere":
            a2 = rng.uniform(0.3, 0.7)
            jobs.append(solve_p_job(index, "sphere-m2", pq.sphere_in_sphere(2, a2), q,
                                    (1.1, 8.0), oracle.sphere_proper_p(a2),
                                    ("sphere", 2, a2)))
        elif kind == "solve_pair-cone":
            q = rng.uniform(2.3, 3.0)
            jobs.append(solve_pair_job(index, q, ("cone-family", q)))
        elif kind == "cli-sweep-sphere":
            p = rng.uniform(1.6, 3.0)
            a2_star = 1.0 - 1.0 / p
            values = sorted([a2_star, rng.uniform(0.2, a2_star - 0.08),
                             rng.uniform(a2_star + 0.08, 0.85)])
            expected = [oracle.PROPER if v == a2_star else oracle.NOT_PQ for v in values]
            # the CSV prints 7 digits, so off-p rows are checked by verdict only
            refs = [0.0 if v == a2_star else None for v in values]
            argv = ["--builtin", "sphere-in-sphere", "--m", "2", "--grid", "8"]
            jobs.append(sweep_job(index, "sphere", argv, "a2", values, p, q, expected, refs,
                                  ("sphere-sweep", tuple(values))))
        elif kind == "cli-solve-sphere":
            a2 = rng.uniform(0.3, 0.7)
            argv = ["--builtin", "sphere-in-sphere", "--m", "2", "--a2", _num(a2),
                    "--grid", "8"]
            jobs.append(solve_cli_job(index, "sphere", argv, q, "p",
                                      oracle.sphere_proper_p(a2), None, ("sphere", 2, a2)))
        elif kind == "cli-solve-cone":
            q = rng.uniform(2.3, 3.0)
            p_star, r_star = oracle.cone_proper(q)
            jobs.append(solve_cli_job(index, "cone-pair", ["--builtin", "cone", "--grid", "8"],
                                      q, "p,r", p_star, r_star, ("cone-family", q)))
    return jobs


# -- registry ----------------------------------------------------------------

WORKLOADS = {
    "curve_variation": dict(
        build=curve_variation, kinds=CURVE_CYCLE, cycles=12, trace_jobs=3,
        why="nested scalar 1-D stencils only (first variation at K=128, Frenet frames); "
            "no residual or immersion work; no repeated inputs"),
    "stencil_hypersurface": dict(
        build=stencil_hypersurface, kinds=STENCIL_CYCLE, cycles=6, trace_jobs=3,
        why="hypersurface geometry by nested 2-D stencils, FD chart files and exact-jet "
            "builtins; 4 of 19 jobs per cycle repeat an earlier chart at another (p,q)"),
    "analytic_hypersurface": dict(
        build=analytic_hypersurface, kinds=ANALYTIC_CYCLE, cycles=250, trace_jobs=34,
        why="closed-form geometry, no stencils: residual kernel, solvers and CLI "
            "overhead; only plane and great-sphere inputs repeat (4 of 17 jobs per cycle)"),
}


def build(name, seed, out_dir):
    """Build the seeded job list of workload ``name``, writing its chart files."""
    spec = WORKLOADS[name]
    chart_dir = os.path.join(out_dir, "charts")
    os.makedirs(chart_dir, exist_ok=True)
    jobs = spec["build"](seed, chart_dir, spec["cycles"])
    return Workload(name=name, why=spec["why"], jobs=jobs, cycle=len(spec["kinds"]),
                    trace_jobs=spec["trace_jobs"])
