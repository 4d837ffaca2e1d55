"""Command line front end: catalog, verification runs, solving, sweeps.

Subcommands
-----------
catalog               list the built-in charts and their expected behavior
verify-hypersurface   classify a hypersurface chart at given (p, q)
verify-curve          classify a curve by its curve system residuals
solve                 solve for unknown parameters (p, or the pair p,r)
sweep                 classify across a swept parameter, emitting CSV
variation-check       compare dE/dt against the tension-field pairing

Verdicts come from the engine, and builtin names and flags from
``catalog.CATALOG``.  Each ``cmd_*`` returns a :class:`Report` (or its text),
which :func:`main` renders, writes once and maps to the exit code.

Exit codes: 0 on success (and on a matching --expect), 1 when --expect
does not match the computed classification or the worst relative error
exceeds --max-rel, 2 on configuration or engine errors, and on a solve
for p that finds none (a minimal chart, or no p in the bracket).  The
PQHARM_THREADS environment variable must be an integer; :func:`main`
validates it before any subcommand runs, and it has no other effect.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import catalog as cat
from . import curves as crv
from . import expressions, jets, variation
from .errors import GeometryError
from .expressions import ExpressionError, evaluate_literal
from .immersion import ImmersionChart
from .residual import Classification, PQParams, classify, solve_p, solve_param_pair
from .spaceform import SpaceForm

SCHEMA_VERSION = 1

EXPECT_ALIASES = {
    "proper": Classification.PROPER_PQ_HARMONIC.value,
    "minimal": Classification.MINIMAL.value,
    "not-pq-harmonic": Classification.NOT_PQ_HARMONIC.value,
    "notpq": Classification.NOT_PQ_HARMONIC.value,
    "mixed": Classification.MIXED_SIGN_F.value,
    "geodesic": Classification.GEODESIC.value,
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Fails with _CliError, and takes every flag by its full name only: an
    abbreviation could turn ambiguous, or name another flag, once a builtin
    gains a parameter.  Subparsers are built with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _CliError(message)


def _num(text, flag=None):
    """Numeric value: decimal literal or expression like 7/4, 2*pi; an
    expression error names ``flag``, the option it came from."""
    try:
        return evaluate_literal(str(text))
    except ExpressionError as exc:
        raise _CliError(f"{flag}: {exc}" if flag else str(exc))


def _pair(text, flag=None):
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 2:
        raise _CliError(f"expected 'lo,hi', got {text!r}")
    return _num(parts[0], flag), _num(parts[1], flag)


def _flag(args, name):
    """The numeric flag --name of ``args``."""
    return _num(getattr(args, name), "--" + name.replace("_", "-"))


def _params(args):
    return PQParams(p=_flag(args, "p"), q=_flag(args, "q"))


def _check_threads():
    """PQHARM_THREADS must be an integer; sampling runs in one thread whatever its value."""
    raw = os.environ.get("PQHARM_THREADS", "1")
    try:
        int(raw)
    except ValueError:
        raise _CliError(f"PQHARM_THREADS must be an integer, got {raw!r}")


# -- chart files ------------------------------------------------------------

def load_chart_file(path):
    """Load a hypersurface chart or curve from an expression file.

    Keys: ``type`` (hypersurface or curve), ``c``, domain intervals ``u``
    and ``v`` (or ``t`` for curves) as 'lo, hi', and ambient coordinates
    ``x1`` .. ``xN`` as expressions in the domain variables.  The chart is
    its map alone, which acts over the last axis, like every chart callback;
    a curve keeps the parameter t of its file.  The expression trees also
    run on jets and Taylor series (:mod:`pqharmonic.jets`), which give the
    engine exact derivatives of the map.
    """
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise _CliError(f"{path}:{lineno}: expected 'key: value'")
            key, value = line.split(":", 1)
            entries[key.strip()] = value.strip()
    kind = entries.get("type")
    if kind not in ("hypersurface", "curve"):
        raise _CliError(f"{path}: 'type' must be hypersurface or curve")
    c = _num(entries.get("c", "0"))
    sf = SpaceForm(3, c)
    coords = []
    for i in range(1, 16):
        key = f"x{i}"
        if key not in entries:
            break
        coords.append(key)
    if len(coords) != sf.ambient_dim:
        raise _CliError(
            f"{path}: need exactly {sf.ambient_dim} coordinates x1..x{sf.ambient_dim} "
            f"for c = {c:g}, found {len(coords)}")
    variables = ("u", "v") if kind == "hypersurface" else ("t",)
    for var in variables:
        if var not in entries:
            raise _CliError(f"{path}: missing domain line '{var}: lo, hi'")
    domain = tuple(_pair(entries[var]) for var in variables)
    exprs = [expressions.parse(entries[k], allowed_variables=variables) for k in coords]
    name = os.path.basename(path)

    def chart_map(x):
        """Each coordinate expression once: a chart point carries (u, v) on its
        last axis, a curve point is t, and the jets of chart points
        (:class:`jets.Jet`) and Taylor series of curve points
        (:class:`jets.Taylor`) give those of the map's points."""
        carried = isinstance(x, jets.Coefficients)
        x = x if carried else np.asarray(x, dtype=float)
        named = {"u": x[..., 0], "v": x[..., 1]} if kind == "hypersurface" else {"t": x}
        if carried:
            values = [ex.jet(**named) for ex in exprs]
            if not any(isinstance(v, type(x)) for v in values):   # a constant map
                values[0] = values[0] + 0.0 * named[variables[0]]
            return np.stack(values, axis=-1)
        shape = named[variables[0]].shape
        return np.stack([np.broadcast_to(ex.evaluate(**named), shape) for ex in exprs], axis=-1)

    if kind == "curve":
        return crv.CurveChart(sf=sf, domain=domain[0], map=chart_map, name=name)
    return ImmersionChart(sf=sf, m=2, domain=domain, map=chart_map, name=name)


# -- builtins ---------------------------------------------------------------

def _build(args, kind):
    """The ``kind`` chart of --chart-file, or the builtin --builtin at its flags."""
    if getattr(args, "chart_file", None):
        chart = load_chart_file(args.chart_file)
        found = "hypersurface" if isinstance(chart, ImmersionChart) else "curve"
        if found != kind:
            raise _CliError(f"{args.chart_file} describes a {found}, not a {kind}")
        return chart
    entry = next((e for e in cat.CATALOG if e.kind == kind and e.name == args.builtin), None)
    if entry is None:
        raise _CliError(f"unknown {kind} builtin {args.builtin!r}")
    return entry.build(**{name: getattr(args, name) if isinstance(default, int)
                          else _flag(args, name)
                          for name, default in entry.parameters.items()})


def build_hypersurface(args):
    return _build(args, "hypersurface")


def build_curve(args):
    return _build(args, "curve")


# -- reports ----------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


class Report(NamedTuple):
    """What a subcommand computed; :func:`render_report` takes its fields.
    ``table`` is (header, coords (n, k), values (n, l)), printed as index,
    coordinates (.6g) and values (.12g, as :func:`_fmt` prints a float)."""
    command: str
    config: dict
    summary: dict
    table: tuple = None


def render_report(command, config, summary, table=None):
    lines = [f"schema_version: {SCHEMA_VERSION}",
             f"timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
             f"command: {command}"]
    for title, block in (("config", config), ("summary", summary)):
        lines.append(title + ":")
        lines.extend(f"  {key}: {_fmt(value)}" for key, value in block.items())
    if table is not None:
        header, coords, values = table
        template = " ".join(["  %d"] + ["%.6g"] * coords.shape[1] + ["%.12g"] * values.shape[1])
        lines += ["points:", "  " + " ".join(header)]
        lines += [template % (i, *row)
                  for i, row in enumerate(np.hstack([coords, values]).tolist())]
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------

def cmd_catalog(args):
    lines = ["builtin charts and curves:"]
    for entry in cat.CATALOG:
        params = ", ".join(entry.parameters) if entry.parameters else "-"
        lines.append(f"  {entry.name} [{entry.kind}] parameters: {params}")
        lines.append(f"      expected: {entry.expectation}")
    return "\n".join(lines) + "\n"


def cmd_verify_hypersurface(args):
    chart = build_hypersurface(args)
    params = _params(args)
    use_analytic = not args.stencil
    report = classify(chart, params, n_per_axis=args.grid, tol=args.tol,
                      use_analytic=use_analytic)
    pts = report.points

    config = {"chart": chart.name, "p": params.p, "q": params.q,
              "grid": args.grid, "tol": report.tol,
              "path": "analytic" if chart.analytic_path(use_analytic) else "stencil"}
    summary = {"classification": report.classification.value,
               "max_abs_eq1": report.max_abs_eq1,
               "max_eq2_norm": report.max_eq2_norm,
               "n_points": len(pts)}
    header = ["index"] + [f"u{a+1}" for a in range(chart.m)] + ["f", "eq1", "eq2_norm"]
    values = np.column_stack([report.f_values, report.eq1, report.eq2_norm])
    return Report("verify-hypersurface", config, summary, (header, pts, values))


def cmd_verify_curve(args):
    curve = build_curve(args)
    params = _params(args)
    report = crv.classify_curve(curve, params, samples=args.samples, tol=args.tol)
    fr = report.frames
    # a node whose frame is undefined (NaN) prints as a zero row
    values = np.nan_to_num(np.column_stack([fr.k, fr.tau, *report.residuals]))
    config = {"curve": curve.name, "p": params.p, "q": params.q,
              "c": curve.sf.c, "samples": args.samples, "tol": report.tol}
    summary = {"classification": report.classification.value,
               "max_residual": report.max_residual}
    header = ["index", "t", "k", "tau", "r1", "r2", "r3"]
    return Report("verify-curve", config, summary, (header, report.ts[:, None], values))


def cmd_solve(args):
    unknowns = tuple(u.strip() for u in args.unknowns.split(","))
    q = _flag(args, "q")
    if args.p_bracket is None:
        args.p_bracket = "1.1,8" if unknowns == ("p",) else "0.5,2.5"
    if unknowns == ("p",):
        chart = build_hypersurface(args)
        result = solve_p(chart, q, _pair(args.p_bracket, "--p-bracket"), n_per_axis=args.grid)
        if not result.success:     # exit 2, as a solve with no p in the bracket does
            raise _CliError(f"{chart.name}: {result.reason}")
        config = {"chart": chart.name, "q": q, "unknowns": "p",
                  "p_bracket": args.p_bracket, "grid": args.grid}
        summary = {"success": result.success, "p": result.p,
                   "max_residual": result.max_residual, "reason": result.reason}
        return Report("solve", config, summary)
    if unknowns == ("p", "r"):
        if args.builtin != "cone":
            raise _CliError("the p,r solve runs on the cone family (--builtin cone)")
        result = solve_param_pair(lambda r: cat.cone(r), q,
                                  _pair(args.r_bracket, "--r-bracket"),
                                  _pair(args.p_bracket, "--p-bracket"),
                                  n_per_axis=args.grid)
        config = {"family": "cone", "q": q, "unknowns": "p,r",
                  "p_bracket": args.p_bracket, "r_bracket": args.r_bracket,
                  "grid": args.grid}
        summary = {"converged": result.converged, "admissible": result.admissible,
                   "p": result.p, "r": result.theta,
                   "iterations": result.iterations,
                   "max_residual": result.max_residual, "reason": result.reason}
        return Report("solve", config, summary)
    raise _CliError(f"unsupported --unknowns {args.unknowns!r}; use 'p' or 'p,r'")


def cmd_sweep(args):
    sweepable = {e.name: e.sweepable for e in cat.CATALOG if e.kind == "hypersurface"}
    if not args.chart_file and args.param not in sweepable.get(args.builtin, ()):
        offers = " or ".join(f"{p} of {name}" for name, ps in sweepable.items()
                             for p in sorted(ps))
        raise _CliError(f"{args.builtin} has no sweepable parameter {args.param!r}; "
                        f"sweep {offers}")
    if args.values:
        values = [_num(v, "--values") for v in args.values.split(",") if v.strip()]
    elif args.range:
        parts = args.range.split(",")
        if len(parts) != 3:
            raise _CliError("--range expects 'lo,hi,count'")
        count = int(parts[2]) if parts[2].strip().isdecimal() else 0
        if count < 1:
            raise _CliError(f"--range: count must be a positive integer, got {parts[2]!r}")
        values = list(np.linspace(_num(parts[0], "--range"), _num(parts[1], "--range"), count))
    else:
        raise _CliError("sweep needs --values or --range")

    params = _params(args)
    csv_lines = ["param,max_eq1,max_eq2,classification"]
    for value in values:
        setattr(args, args.param, value)
        report = classify(build_hypersurface(args), params, n_per_axis=args.grid,
                          tol=args.tol)
        csv_lines.append(f"{value:.12g},{report.max_abs_eq1:.6e},"
                         f"{report.max_eq2_norm:.6e},{report.classification.value}")
    return "\n".join(csv_lines) + "\n"


def cmd_variation_check(args):
    curve = build_curve(args)
    params = _params(args)
    dcurve = variation.DiscretizedCurve(curve=curve, K=args.K)
    rng = np.random.default_rng(args.seed)
    reps = [variation.first_variation_check(
                dcurve, variation.random_bump_field(curve, rng, amplitude=args.amplitude), params)
            for _ in range(args.fields)]
    values = np.array([(r.lhs, r.rhs, r.rel_error, r.observed_order) for r in reps])
    config = {"curve": curve.name, "p": params.p, "q": params.q, "K": args.K,
              "seed": args.seed, "fields": args.fields,
              "amplitude": args.amplitude}
    summary = {"worst_rel_error": max(r.rel_error for r in reps)}
    header = ["index", "lhs", "rhs", "rel_error", "observed_order"]
    return Report("variation-check", config, summary, (header, np.zeros((len(reps), 0)), values))


# -- argument wiring --------------------------------------------------------

def _add_selector(sp, kind):
    """--builtin, --chart-file and one flag per parameter of the ``kind`` builtins."""
    entries = [e for e in cat.CATALOG if e.kind == kind]
    sp.add_argument("--builtin", default=None, choices=[e.name for e in entries])
    sp.add_argument("--chart-file", default=None,
                    help="expression file describing the chart" if kind == "hypersurface"
                    else None)
    flags = {name: default for e in entries for name, default in e.parameters.items()}
    for name, default in flags.items():
        owners = ", ".join(e.name for e in entries if name in e.parameters)
        sp.add_argument("--" + name, type=type(default), default=default,
                        help="parameter of " + owners)


def build_parser():
    parser = _Parser(prog="pqharm",
                     description="(p,q)-harmonic hypersurface and curve verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list builtin charts")

    sp = sub.add_parser("verify-hypersurface")
    _add_selector(sp, "hypersurface")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--grid", type=int, default=8)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--stencil", action="store_true",
                    help="force the finite-difference path")
    sp.add_argument("--expect", default=None)

    sp = sub.add_parser("verify-curve")
    _add_selector(sp, "curve")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--samples", type=int, default=32)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--expect", default=None)

    sp = sub.add_parser("solve")
    _add_selector(sp, "hypersurface")
    sp.add_argument("--q", required=True)
    sp.add_argument("--unknowns", default="p", help="'p' or 'p,r'")
    sp.add_argument("--p-bracket", default=None,
                    help="defaults: '1.1,8' for --unknowns p, '0.5,2.5' for p,r")
    sp.add_argument("--r-bracket", default="0.3,0.7")
    sp.add_argument("--grid", type=int, default=8)

    sp = sub.add_parser("sweep")
    _add_selector(sp, "hypersurface")
    sp.add_argument("--param", required=True, help="builtin parameter to sweep (a2 or r)")
    sp.add_argument("--values", default=None, help="comma separated values")
    sp.add_argument("--range", default=None, help="'lo,hi,count'")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--grid", type=int, default=8)
    sp.add_argument("--tol", type=float, default=None)

    sp = sub.add_parser("variation-check")
    _add_selector(sp, "curve")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--K", type=int, default=128)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fields", type=int, default=3)
    sp.add_argument("--amplitude", type=float, default=0.5)
    sp.add_argument("--max-rel", type=float, default=None,
                    help="exit 1 when the worst relative error exceeds this")

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write the report to this path")
    return parser


@functools.cache
def _shared_parser():
    """The parser :func:`main` builds on its first call and then reuses;
    parsing leaves no state in it."""
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
        _check_threads()
        if args.command != "catalog" and getattr(args, "builtin", None) is None \
                and getattr(args, "chart_file", None) is None:
            raise _CliError("select a chart with --builtin or --chart-file")
        for flag in ("tol", "samples", "fields", "amplitude", "max_rel"):
            value = getattr(args, flag, None)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise _CliError(f"--{flag.replace('_', '-')} must be finite and > 0, got {value}")
        expect = getattr(args, "expect", None)
        if expect is not None and expect.lower() not in EXPECT_ALIASES:
            raise _CliError(f"unknown --expect value {expect!r}; "
                            f"choose from {sorted(set(EXPECT_ALIASES))}")
        # looked up per call, so a cmd_* rebound on the module is the one that runs
        result = globals()["cmd_" + args.command.replace("-", "_")](args)
        text = result if isinstance(result, str) else render_report(*result)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (_CliError, GeometryError, ExpressionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if expect is not None and EXPECT_ALIASES[expect.lower()] != result.summary["classification"]:
        return 1
    max_rel = getattr(args, "max_rel", None)
    if max_rel is not None and result.summary["worst_rel_error"] > max_rel:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
