"""pqharmonic benchmark: one seeded workload, timed untraced, then replayed traced.

    python3 bench/run.py --workload curve_variation --seed 1 --seconds 20 --trace 0

A run has four phases, all in this process except the set-up probes:

1. set-up, twice: once in a fresh interpreter (``--setup-probe``) and
   once here, each timed from before ``import pqharmonic`` until the seeded
   job list is built and its chart files are written; ``setup_s`` is the
   median;
2. the timed phase: a closed loop with one client runs whole cycles of the
   job list in order until ``--seconds`` of reference-speed time have
   passed, timing each call into the package and checking its result
   against the closed forms in :mod:`oracle` after the clock stops;
3. the traced phase: the workload's first jobs run again with every public
   function of the package wrapped (:mod:`tracer`), giving per-module self
   times, call counts and chart evaluation counts;
4. the report: every metric by name and unit, the failures by job and the
   run's provenance on stdout, a JSON record and the spans under
   ``.bench_out/``, and as the last line one JSON object with ``correct``,
   ``attempted``, ``failed`` and the end-to-end (``--trace 0``) or per-layer
   (``--trace 1``) metrics.

End-to-end times are given at a reference machine speed.  Shared machines
change speed by up to half over minutes, which swamps a 25% regression
bound.  So before jobs, at most every 0.2 s, the run times a fixed
pure-Python loop, and every end-to-end time is scaled by CALIB_REF_S over
that loop's median time in the run (set-up by the loop timed just before
it).  The wall-clock values are kept in the run record under ``wall.``;
per-layer times are wall-clock.

Jobs listed as known defects in :mod:`workloads` are counted as failures
and listed, but do not make the run incorrect; any other failure does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("curve_variation", "stencil_hypersurface", "analytic_hypersurface")
SETUP_PROBES = 1
ERR_FLOOR = 1e-16   # deviations below double precision count as this
TAIL_BEYOND = 10
CALIB_LOOPS = 20000
CALIB_REF_S = 0.002     # loop time that defines the reference speed
CALIB_EVERY_S = 0.2

END_TO_END = (
    ("setup_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"), ("jobs_per_s", "1/s"),
    ("eval_points_per_job", "points"), ("peak_rss_mb", "MB"), ("ok_rate", "1"),
    ("ref_err.digits", "digits"),
)

BASELINE = (
    ("frenet", "curves.frenet"), ("tension_p", "variation.tension_p"),
    ("tension_pq_curve", "variation.tension_pq_curve"),
    ("energy_pq", "variation.energy_pq"),
    ("geometric_sample_fd", "immersion.geometric_sample.fd"),
    ("geometric_sample_jet", "immersion.geometric_sample.jet"),
    ("first_variation_check", "variation.first_variation_check"),
    ("classify", "residual.classify"),
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- machine speed ------------------------------------------------------------

def calibration_sample():
    """Seconds a fixed pure-Python loop takes now: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def slowdown(samples):
    """How much slower than the reference speed the machine ran (median of samples)."""
    return statistics.median(samples) / CALIB_REF_S


# -- set-up -------------------------------------------------------------------

def setup(workload, seed):
    """Import pqharmonic from this checkout and build the seeded job list."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pqharmonic
    if Path(pqharmonic.__file__).resolve().parent != (SRC / "pqharmonic").resolve():
        fail(f"imported pqharmonic from {pqharmonic.__file__}, not from {SRC}")
    import workloads
    wl = workloads.build(workload, seed, str(OUT / workload))
    return workloads, wl, time.perf_counter() - t0


def probe_setup(args):
    """Set-up time of a fresh interpreter, from before ``import pqharmonic``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["calibration_s"]


# -- phases ---------------------------------------------------------------------

def run_job(job, ctx):
    """Run one job; return (seconds, outcome or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        outcome = job.run(ctx)
    except Exception as exc:   # an exception is a failed job, not a failed run
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, outcome, None


def check_job(workloads, job, outcome, error):
    if error is not None:
        return workloads.Check(False, None, error)
    try:
        return job.check(outcome)
    except Exception as exc:   # a malformed result fails its job
        return workloads.Check(False, None, f"check raised {type(exc).__name__}: {exc}")


def timed_phase(workloads, wl, seconds):
    ctx = workloads.Context(out_dir=str(OUT / wl.name))
    results, calibration = [], []
    start = time.perf_counter()
    last = -math.inf
    untimed = 0.0     # calibration and input preparation

    def done():
        # whole cycles only, so every run holds the job kinds in the same
        # proportions; the length is counted at the reference speed, so a
        # faster or slower spell of the machine does not change the job count
        if not results or len(results) % wl.cycle:
            return False
        work = time.perf_counter() - start - untimed
        return work / slowdown(calibration) >= seconds

    while not done():
        t0 = time.perf_counter()
        if t0 - last >= CALIB_EVERY_S:
            calibration.append(calibration_sample())
            last = time.perf_counter()
        job = wl.jobs[len(results) % len(wl.jobs)]
        job.prepare()
        untimed += time.perf_counter() - t0
        dt, outcome, error = run_job(job, ctx)
        check = check_job(workloads, job, outcome, error)
        results.append({"index": job.index, "kind": job.kind, "describe": job.describe,
                        "seconds": dt, "ok": bool(check.ok),
                        "deviation": None if check.deviation is None else float(check.deviation),
                        "detail": check.detail, "known_defect": job.known_defect,
                        "chart_key": repr(job.chart_key)})
    return results, time.perf_counter() - start - untimed, calibration


def traced_phase(workloads, tracing, wl):
    tr = tracing.Tracer()
    ctx = workloads.Context(out_dir=str(OUT / wl.name), wrap=tr.wrap_chart)
    records = []
    tr.install()
    try:
        for job in wl.jobs[:wl.trace_jobs]:
            job.prepare()
            tr.begin_job(job.index)
            try:
                outcome, error = job.run(ctx), None
            except Exception as exc:   # recorded and compared with the timed phase
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            record = tr.end_job()
            record["ok"] = bool(check_job(workloads, job, outcome, error).ok)
            records.append(record)
    finally:
        tr.uninstall()
    return tr, records


# -- metrics --------------------------------------------------------------------

def tail(times):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results, wall, calibration, setup_samples, records, peak_rss_kb):
    times = [r["seconds"] for r in results]
    failed = sum(not r["ok"] for r in results)
    # with no closed-form comparison at all, report the worst case: no digits
    worst = max((r["deviation"] for r in results if r["deviation"] is not None), default=1.0)
    tail_value, tail_pct = tail(times)
    slow = slowdown(calibration)
    metrics = {
        "setup_s": statistics.median(s / slowdown([c]) for s, c in setup_samples),
        "job_s.p50": statistics.median(times) / slow,
        "job_s.tail": tail_value / slow,
        "jobs_per_s": len(results) / wall * slow,
        "eval_points_per_job": sum(r["counters"].get("eval_points", 0)
                                   for r in records) / len(records),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_rate": (len(results) - failed) / len(results),
        "ref_err.digits": -math.log10(max(worst, ERR_FLOOR)),
    }
    extra = {"error_rate": failed / len(results), "ref_err.max": worst,
             "job_s.tail.percentile": tail_pct, "jobs": len(results),
             "slowdown": slow, "calibration_samples": len(calibration),
             "wall.setup_s": statistics.median(s for s, _ in setup_samples),
             "wall.job_s.p50": statistics.median(times), "wall.job_s.tail": tail_value,
             "wall.jobs_per_s": len(results) / wall}
    return metrics, extra


def per_layer(tracing, records, untraced_times, span_count):
    n = len(records)

    def mean(fn):
        return sum(fn(r) for r in records) / n

    def calls(*names):
        return mean(lambda r: sum(r["calls"].get(x, 0) for x in names))

    def counter(key, scale=1.0):
        return mean(lambda r: r["counters"].get(key, 0)) * scale

    m = {}
    m["numeric.stencil_calls"] = calls("numeric.deriv1", "numeric.deriv2")
    m["spaceform.covariant_calls"] = calls("spaceform.SpaceForm.covariant_derivative")
    m["variation.tension_p_calls"] = calls("variation.tension_p")
    m["variation.tension_pq_calls"] = calls("variation.tension_pq_curve")
    m["variation.energy_calls"] = calls("variation.energy_pq")
    m["curves.frames"] = calls("curves.frenet")
    m["curves.reparam_s"] = mean(
        lambda r: r["incl_ns"].get("curves.reparametrize_arclength", 0)
        + r["self_ns_by_name"].get("curves.arclength_map", 0)) / 1e9
    m["immersion.samples"] = calls(*(f"immersion.geometric_sample.{v}"
                                     for v in ("analytic", "jet", "fd")))
    m["immersion.shape_packets"] = calls("immersion.shape_packet")
    m["expressions.parse_calls"] = calls("expressions.parse")
    m["expressions.map_points"] = counter("expressions.map_points")
    m["catalog.map_points"] = counter("catalog.map_points")
    m["catalog.jet_calls"] = counter("catalog.jet_calls")
    m["catalog.analytic_calls"] = counter("catalog.analytic_calls")
    map_points = m["catalog.map_points"] + m["expressions.map_points"]
    m["map_points.per_job"] = map_points
    distinct = mean(lambda r: r["distinct_points"])
    m["map_points.distinct_ratio"] = distinct / map_points if map_points else 1.0
    m["residual.kernel_calls"] = calls("residual.residual", "residual._raw_spaceform")
    m["residual.coefficient_calls"] = calls("residual.coefficients")
    m["residual.solver_system_evals"] = counter("residual.solver_system_evals")
    m["residual.newton_iterations"] = counter("residual.newton_iterations")
    m["residual.classify_s"] = counter("residual.classify_ns", 1e-9)
    m["residual.solve_s"] = counter("residual.solve_ns", 1e-9)
    m["cli.calls"] = mean(lambda r: sum(c for name, c in r["calls"].items()
                                        if name.startswith("cli.") and name != "cli.map"))
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = mean(lambda r: r["self_ns"].get(layer, 0)) / 1e9
    for layer in tracing.LAYERS:
        m[f"{layer}.errors"] = counter(f"{layer}.errors")
    traced_times = [r["job_ns"] / 1e9 for r in records]
    m["trace.job_s"] = statistics.fmean(traced_times)
    m["trace.remainder_s"] = mean(lambda r: r["job_ns"] - r["covered_ns"]) / 1e9
    paired = min(n, len(untraced_times))
    m["trace.overhead_s"] = (statistics.median(traced_times[:paired])
                             - statistics.median(untraced_times[:paired]))
    m["trace.spans_per_job"] = span_count / n
    for key, name in BASELINE:
        total = sum(r["calls"].get(name, 0) for r in records)
        ns = sum(r["incl_ns"].get(name, 0) for r in records)
        points = sum(r["incl_points"].get(name, 0) for r in records)
        m[f"baseline.{key}.ms"] = ns / total / 1e6 if total else 0.0
        m[f"baseline.{key}.points"] = points / total if total else 0.0
    return m


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("distinct_ratio"):
        return "1"
    if name.endswith("points") or name == "map_points.per_job":
        return "points"
    return "count"


# -- provenance -----------------------------------------------------------------

def git_rev():
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, wl, results):
    import numpy
    import scipy
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "pqharmonic").glob("*.py")))
    seen, repeats = set(), 0
    for r in results:
        repeats += r["chart_key"] in seen
        seen.add(r["chart_key"])
    return {
        "git_rev": git_rev(), "src_pqharmonic_lines": lines, "seed": args.seed,
        "workload": wl.name, "why": wl.why, "seconds": args.seconds,
        "repeated_input_share": repeats / len(results),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "clients": 1, "loop": "closed",
    }


# -- main -----------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("PQHARM_THREADS", None)    # one worker: the CLI default
    if not (SRC / "pqharmonic" / "__init__.py").is_file():
        fail(f"no pqharmonic sources under {SRC}")
    if args.setup_probe:
        calibration = calibration_sample()
        _, _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "calibration_s": calibration}))
        return 0

    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    calibration = calibration_sample()
    workloads, wl, seconds = setup(args.workload, args.seed)
    setup_samples.append((seconds, calibration))

    results, wall, calibration = timed_phase(workloads, wl, args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import tracer
    tr, records = traced_phase(workloads, tracer, wl)

    e2e, extra = end_to_end(results, wall, calibration, setup_samples, records, peak_rss_kb)
    layers = per_layer(tracer, records,
                       [r["seconds"] for r in results], tr.span_count)

    failures = [r for r in results if not r["ok"]]
    unexpected = [r for r in failures if not r["known_defect"]]
    mismatched = [i for i, rec in enumerate(records)
                  if i < len(results) and rec["ok"] != results[i]["ok"]]
    correct = not unexpected and not mismatched
    # self times plus the unattributed remainder add up to the traced job time
    attributed = sum(sum(r["self_ns"].values()) + r["job_ns"] - r["covered_ns"]
                     for r in records)
    balanced = attributed == sum(r["job_ns"] for r in records)

    info = provenance(args, wl, results)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tr.save(str(OUT / f"{wl.name}.spans.npz"))
    with open(f"{stem}.json", "w") as fh:
        json.dump({"provenance": info, "end_to_end": e2e, "extra": extra,
                   "per_layer": layers, "jobs": results, "traced_jobs": records,
                   "trace_balanced": balanced}, fh, indent=1, default=str)

    print(f"workload {wl.name}: {wl.why}")
    for key, value in info.items():
        print(f"  provenance.{key}: {value}")
    for name, unit in END_TO_END:
        print(f"  {name}: {e2e[name]!r} {unit}")
    print(f"  job_s.tail is P{extra['job_s.tail.percentile']:.1f} of {extra['jobs']} jobs")
    print(f"  error_rate: {extra['error_rate']!r} ({len(failures)} of {len(results)} jobs)")
    print(f"  ref_err.max: {extra['ref_err.max']!r}")
    for name, value in layers.items():
        print(f"  {name}: {value!r} {per_layer_unit(name)}")
    print(f"  self times + remainder == traced job time: {balanced}")
    for r in failures:
        tag = "known defect" if r["known_defect"] else "UNEXPECTED"
        print(f"  failed job {r['index']} [{tag}] {r['kind']} {r['describe']}: {r['detail']}")
    for i in mismatched:
        print(f"  traced job {i} disagrees with its timed run")

    chosen = e2e if args.trace == 0 else layers
    units = dict(END_TO_END) if args.trace == 0 else {k: per_layer_unit(k) for k in layers}
    print(json.dumps({"correct": correct and balanced, "attempted": len(results),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
