"""The CLI's per-cell report renderer and row builders, kept as the reference.

``pqharmonic.cli`` renders each table row with one % template; these are
the earlier per-cell versions, verbatim, which the parity tests compare its
reports against.  Each row builder takes the engine results the command
computed and returns the (header, rows) table it passed to ``render_report``.
"""

import datetime

import numpy as np

SCHEMA_VERSION = 1


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


def hypersurface_table(report):
    """verify-hypersurface, from its ``ResidualReport``."""
    pts = report.points
    rows = [(i, *(f"{x:.6g}" for x in pts[i]), report.f_values[i],
             report.eq1[i], report.eq2_norm[i]) for i in range(len(pts))]
    header = ["index"] + [f"u{a+1}" for a in range(pts.shape[1])] + ["f", "eq1", "eq2_norm"]
    return header, rows


def curve_table(ts, fr, residuals):
    """verify-curve, from its nodes, Frenet frames and curve residuals."""
    r1, r2, r3 = residuals
    # a node whose frame is undefined (NaN) prints as a zero row
    table = np.nan_to_num(np.column_stack([fr.k, fr.tau, r1, r2, r3]))
    rows = [(i, f"{t:.6g}", *row) for i, (t, row) in enumerate(zip(ts, table.tolist()))]
    header = ["index", "t", "k", "tau", "r1", "r2", "r3"]
    return header, rows


def variation_table(reports):
    """variation-check, from its ``VariationCheckReport`` per field."""
    rows = [(i, rep.lhs, rep.rhs, rep.rel_error, rep.observed_order)
            for i, rep in enumerate(reports)]
    header = ["index", "lhs", "rhs", "rel_error", "observed_order"]
    return header, rows
