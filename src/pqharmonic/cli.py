"""Command line front end: catalog, verification runs, solving, sweeps.

Subcommands
-----------
catalog               list the built-in charts and their expected behavior
verify-hypersurface   classify a hypersurface chart at given (p, q)
verify-curve          evaluate the curve system residuals along a curve
solve                 solve for unknown parameters (p, or the pair p,r)
sweep                 classify across a swept parameter, emitting CSV
variation-check       compare dE/dt against the tension-field pairing

Exit codes: 0 on success (and on a matching --expect), 1 when --expect
does not match the computed classification, 2 on configuration or engine
errors.  The PQHARM_THREADS environment variable must be an integer; it is
validated and has no other effect.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys

import numpy as np

from . import catalog as cat
from . import curves as crv
from . import expressions, variation
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
    "geodesic": "Geodesic",
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _num(text):
    """Numeric flag value: decimal literal or expression like 7/4, 2*pi."""
    try:
        return evaluate_literal(str(text))
    except ExpressionError as exc:
        raise _CliError(str(exc))


def _pair(text):
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 2:
        raise _CliError(f"expected 'lo,hi', got {text!r}")
    return _num(parts[0]), _num(parts[1])


def thread_count():
    """PQHARM_THREADS, validated; sampling runs in one thread whatever its value."""
    raw = os.environ.get("PQHARM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise _CliError(f"PQHARM_THREADS must be an integer, got {raw!r}")
    return max(1, n)


# -- chart files ------------------------------------------------------------

def _parse_chart_file(path):
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
    return entries


def _coordinates(exprs, shape, **variables):
    """Each coordinate expression once, on arrays of ``shape``: (*shape, N)."""
    return np.stack([np.broadcast_to(ex.evaluate(**variables), shape) for ex in exprs],
                    axis=-1)


def load_chart_file(path):
    """Load a hypersurface chart or curve from an expression file.

    Keys: ``type`` (hypersurface or curve), ``c``, domain intervals ``u``
    and ``v`` (or ``t`` for curves) as 'lo, hi', and ambient coordinates
    ``x1`` .. ``xN`` as expressions in the domain variables.  The maps act
    over the last axis, like every chart callback.
    """
    entries = _parse_chart_file(path)
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

    if kind == "hypersurface":
        variables = ("u", "v")
        for var in variables:
            if var not in entries:
                raise _CliError(f"{path}: missing domain line '{var}: lo, hi'")
        domain = tuple(_pair(entries[var]) for var in variables)
        exprs = [expressions.parse(entries[k], allowed_variables=variables)
                 for k in coords]

        def chart_map(w):
            w = np.asarray(w, dtype=float)
            return _coordinates(exprs, w.shape[:-1], u=w[..., 0], v=w[..., 1])

        return ImmersionChart(sf=sf, m=2, domain=domain, map=chart_map,
                              name=os.path.basename(path))

    if "t" not in entries:
        raise _CliError(f"{path}: missing domain line 't: lo, hi'")
    domain = _pair(entries["t"])
    exprs = [expressions.parse(entries[k], allowed_variables=("t",))
             for k in coords]

    def curve_map(t):
        return _coordinates(exprs, np.shape(t), t=t)

    curve = crv.CurveChart(sf=sf, domain=domain, map=curve_map,
                           name=os.path.basename(path))
    return crv.reparametrize_arclength(curve)


# -- builtins ---------------------------------------------------------------

def build_hypersurface(args):
    if getattr(args, "chart_file", None):
        chart = load_chart_file(args.chart_file)
        if not isinstance(chart, ImmersionChart):
            raise _CliError(f"{args.chart_file} describes a curve, not a hypersurface")
        return chart
    name = args.builtin
    if name == "sphere-in-sphere":
        return cat.sphere_in_sphere(m=args.m, a2=_num(args.a2))
    if name == "great-sphere":
        return cat.great_sphere(m=args.m)
    if name == "cone":
        return cat.cone(r=_num(args.r))
    if name == "plane":
        return cat.plane()
    raise _CliError(f"unknown hypersurface builtin {name!r}")


def build_curve(args):
    if getattr(args, "chart_file", None):
        curve = load_chart_file(args.chart_file)
        if isinstance(curve, ImmersionChart):
            raise _CliError(f"{args.chart_file} describes a hypersurface, not a curve")
        return curve
    name = args.builtin
    if name == "helix":
        return crv.helix(_num(args.alpha), _num(args.a), _num(args.b)).curve
    if name == "circle":
        return cat.circle(rho=_num(args.rho))
    raise _CliError(f"unknown curve builtin {name!r}")


# -- reports ----------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def render_report(command, config, summary, table=None):
    lines = [f"schema_version: {SCHEMA_VERSION}",
             f"timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
             f"command: {command}",
             "config:"]
    for key, value in config.items():
        lines.append(f"  {key}: {_fmt(value)}")
    lines.append("summary:")
    for key, value in summary.items():
        lines.append(f"  {key}: {_fmt(value)}")
    if table is not None:
        header, rows = table
        lines.append("points:")
        lines.append("  " + " ".join(header))
        for row in rows:
            lines.append("  " + " ".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _expect_exit(expect, classification):
    if expect is None:
        return 0
    want = EXPECT_ALIASES.get(expect.lower())
    if want is None:
        raise _CliError(f"unknown --expect value {expect!r}; "
                        f"choose from {sorted(set(EXPECT_ALIASES))}")
    return 0 if want == classification else 1


# -- subcommands ------------------------------------------------------------

def cmd_catalog(args):
    lines = ["builtin charts and curves:"]
    for entry in cat.CATALOG:
        params = ", ".join(entry.parameters) if entry.parameters else "-"
        lines.append(f"  {entry.name} [{entry.kind}] parameters: {params}")
        lines.append(f"      expected: {entry.expectation}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify_hypersurface(args):
    chart = build_hypersurface(args)
    params = PQParams(p=_num(args.p), q=_num(args.q))
    thread_count()  # validation only
    use_analytic = not args.stencil
    report = classify(chart, params, n_per_axis=args.grid, tol=args.tol,
                      use_analytic=use_analytic)
    pts = report.points

    config = {"chart": chart.name, "p": params.p, "q": params.q,
              "grid": args.grid, "tol": report.tol,
              "path": "analytic" if (use_analytic and chart.analytic_geometry) else "stencil"}
    summary = {"classification": report.classification.value,
               "max_abs_eq1": report.max_abs_eq1,
               "max_eq2_norm": report.max_eq2_norm,
               "n_points": len(pts)}
    rows = [(i, *(f"{x:.6g}" for x in pts[i]), report.f_values[i],
             report.eq1[i], report.eq2_norm[i]) for i in range(len(pts))]
    header = ["index"] + [f"u{a+1}" for a in range(chart.m)] + ["f", "eq1", "eq2_norm"]
    _emit(render_report("verify-hypersurface", config, summary, (header, rows)),
          args.out)
    return _expect_exit(args.expect, report.classification.value)


def cmd_verify_curve(args):
    curve = build_curve(args)
    params = PQParams(p=_num(args.p), q=_num(args.q))
    lo, hi = curve.domain
    pad = 0.05 * (hi - lo)
    ts = np.linspace(lo + pad, hi - pad, args.samples)
    rows, geodesic = [], True
    max_res = 0.0
    for i, t in enumerate(ts):
        try:
            fr = crv.frenet(curve, float(t))
        except crv.FrameUndefinedError:
            rows.append((i, f"{t:.6g}", 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        geodesic = False
        r1, r2, r3 = crv.curve_system_residual(fr, params, curve.sf.c)
        max_res = max(max_res, abs(r1), abs(r2), abs(r3))
        rows.append((i, f"{t:.6g}", fr.k, fr.tau, r1, r2, r3))
    if geodesic:
        classification = "Geodesic"
    elif max_res < args.tol:
        classification = Classification.PROPER_PQ_HARMONIC.value
    else:
        classification = Classification.NOT_PQ_HARMONIC.value

    config = {"curve": curve.name, "p": params.p, "q": params.q,
              "c": curve.sf.c, "samples": args.samples, "tol": args.tol}
    summary = {"classification": classification, "max_residual": max_res}
    header = ["index", "t", "k", "tau", "r1", "r2", "r3"]
    _emit(render_report("verify-curve", config, summary, (header, rows)), args.out)
    return _expect_exit(args.expect, classification)


def cmd_solve(args):
    unknowns = tuple(u.strip() for u in args.unknowns.split(","))
    q = _num(args.q)
    if args.p_bracket is None:
        args.p_bracket = "1.1,8" if unknowns == ("p",) else "0.5,2.5"
    if unknowns == ("p",):
        chart = build_hypersurface(args)
        result = solve_p(chart, q, _pair(args.p_bracket), n_per_axis=args.grid)
        config = {"chart": chart.name, "q": q, "unknowns": "p",
                  "p_bracket": args.p_bracket, "grid": args.grid}
        summary = {"success": result.success, "p": result.p,
                   "max_residual": result.max_residual, "reason": result.reason}
        _emit(render_report("solve", config, summary), args.out)
        return 0
    if unknowns == ("p", "r"):
        if args.builtin != "cone":
            raise _CliError("the p,r solve runs on the cone family (--builtin cone)")
        result = solve_param_pair(lambda r: cat.cone(r), q,
                                  _pair(args.r_bracket), _pair(args.p_bracket),
                                  n_per_axis=args.grid)
        config = {"family": "cone", "q": q, "unknowns": "p,r",
                  "p_bracket": args.p_bracket, "r_bracket": args.r_bracket,
                  "grid": args.grid}
        summary = {"converged": result.converged, "admissible": result.admissible,
                   "p": result.p, "r": result.theta,
                   "iterations": result.iterations,
                   "max_residual": result.max_residual, "reason": result.reason}
        _emit(render_report("solve", config, summary), args.out)
        return 0
    raise _CliError(f"unsupported --unknowns {args.unknowns!r}; use 'p' or 'p,r'")


def cmd_sweep(args):
    if args.values:
        values = [_num(v) for v in args.values.split(",") if v.strip()]
    elif args.range:
        parts = args.range.split(",")
        if len(parts) != 3:
            raise _CliError("--range expects 'lo,hi,count'")
        values = list(np.linspace(_num(parts[0]), _num(parts[1]), int(parts[2])))
    else:
        raise _CliError("sweep needs --values or --range")

    params = PQParams(p=_num(args.p), q=_num(args.q))
    thread_count()  # validation only
    csv_lines = ["param,max_eq1,max_eq2,classification"]
    for value in values:
        setattr(args, args.param, value)
        report = classify(build_hypersurface(args), params, n_per_axis=args.grid,
                          tol=args.tol)
        csv_lines.append(f"{value:.12g},{report.max_abs_eq1:.6e},"
                         f"{report.max_eq2_norm:.6e},{report.classification.value}")
    _emit("\n".join(csv_lines) + "\n", args.out)
    return 0


def cmd_variation_check(args):
    curve = build_curve(args)
    params = PQParams(p=_num(args.p), q=_num(args.q))
    dcurve = variation.DiscretizedCurve(curve=curve, K=args.K)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for i in range(args.fields):
        field = variation.random_bump_field(curve, rng, amplitude=args.amplitude)
        rep = variation.first_variation_check(dcurve, field, params)
        worst = max(worst, rep.rel_error)
        rows.append((i, rep.lhs, rep.rhs, rep.rel_error, rep.observed_order))
    config = {"curve": curve.name, "p": params.p, "q": params.q, "K": args.K,
              "seed": args.seed, "fields": args.fields,
              "amplitude": args.amplitude}
    summary = {"worst_rel_error": worst}
    header = ["index", "lhs", "rhs", "rel_error", "observed_order"]
    _emit(render_report("variation-check", config, summary, (header, rows)),
          args.out)
    if args.max_rel is not None and worst > args.max_rel:
        return 1
    return 0


# -- argument wiring --------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--out", default=None, help="write the report to this path")


def _add_hypersurface_selector(sp):
    sp.add_argument("--builtin", default=None,
                    choices=["sphere-in-sphere", "great-sphere", "cone", "plane"])
    sp.add_argument("--chart-file", default=None,
                    help="expression file describing the chart")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--a2", default="0.5", help="a^2 of the sphere-in-sphere")
    sp.add_argument("--r", default="0.5", help="slope parameter of the cone")


def _add_curve_selector(sp):
    sp.add_argument("--builtin", default=None, choices=["helix", "circle"])
    sp.add_argument("--chart-file", default=None)
    sp.add_argument("--alpha", default="0.785398163397448")
    sp.add_argument("--a", default="1.32287565553230")
    sp.add_argument("--b", default="0.5")
    sp.add_argument("--rho", default="1")


def build_parser():
    parser = _Parser(prog="pqharm",
                     description="(p,q)-harmonic hypersurface and curve verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list builtin charts")
    _add_common(sp)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("verify-hypersurface")
    _add_hypersurface_selector(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--grid", type=int, default=8)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--stencil", action="store_true",
                    help="force the finite-difference path")
    sp.add_argument("--expect", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify_hypersurface)

    sp = sub.add_parser("verify-curve")
    _add_curve_selector(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--samples", type=int, default=32)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--expect", default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify_curve)

    sp = sub.add_parser("solve")
    _add_hypersurface_selector(sp)
    sp.add_argument("--q", required=True)
    sp.add_argument("--unknowns", default="p", help="'p' or 'p,r'")
    sp.add_argument("--p-bracket", default=None,
                    help="defaults: '1.1,8' for --unknowns p, '0.5,2.5' for p,r")
    sp.add_argument("--r-bracket", default="0.3,0.7")
    sp.add_argument("--grid", type=int, default=8)
    _add_common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("sweep")
    _add_hypersurface_selector(sp)
    sp.add_argument("--param", required=True, help="builtin parameter to sweep (a2 or r)")
    sp.add_argument("--values", default=None, help="comma separated values")
    sp.add_argument("--range", default=None, help="'lo,hi,count'")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--grid", type=int, default=8)
    sp.add_argument("--tol", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("variation-check")
    _add_curve_selector(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--K", type=int, default=128)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fields", type=int, default=3)
    sp.add_argument("--amplitude", type=float, default=0.5)
    sp.add_argument("--max-rel", type=float, default=None,
                    help="exit 1 when the worst relative error exceeds this")
    _add_common(sp)
    sp.set_defaults(fn=cmd_variation_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "catalog" and getattr(args, "builtin", None) is None \
                and getattr(args, "chart_file", None) is None:
            raise _CliError("select a chart with --builtin or --chart-file")
        return args.fn(args)
    except (_CliError, GeometryError, ExpressionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
