"""Spans and counters around pqharmonic's public functions, installed from outside.

:meth:`Tracer.install` replaces every public function and public method of
the package modules (the layers) with a wrapper, at every module-level
binding that refers to it, so ``pqharmonic.numeric.deriv1``, the
``geometric_sample`` imported into ``residual`` and ``cli``, and the names
re-exported by the package all record the same span.  Chart and curve
callbacks (map, exact jacobian and hessian, closed-form samples) are wrapped
where charts are built or loaded, and count the points they evaluate.

A span is (name, job, parent, start, end) in nanoseconds; spans are kept in
flat arrays and written when the run ends.  Self time is a span's duration
minus the part covered by its child spans, so time in closures, numpy and
scipy counts toward the innermost enclosing public function.  Wrappers only
record while a job is active, so reference checks outside jobs cost nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("numeric", "spaceform", "immersion", "residual", "curves", "variation",
          "expressions", "catalog", "cli")

# private module functions that are a separate copy of the residual formula or
# the solver objective; callers reach them through module globals
PRIVATE_WRAPPED = {"residual": ("_raw_spaceform", "_residual_arrays")}

# constructors and loaders whose returned charts get counting callbacks
CONSTRUCTORS = {"catalog.cone", "catalog.sphere_in_sphere", "catalog.great_sphere",
                "catalog.plane", "catalog.circle", "curves.helix",
                "cli.build_hypersurface", "cli.build_curve", "cli.load_chart_file"}

SOLVERS = ("residual.solve_p", "residual.solve_param_pair")

# functions that call back into closures built by other modules: argument
# positions of those callables, whose time then counts for the module that
# defined them instead of for the stencil or connection that calls them
CALLBACK_TAKERS = {
    "numeric.deriv1": (0,), "numeric.deriv1_richardson": (0,), "numeric.deriv2": (0,),
    "numeric.partial1": (0,), "numeric.partial2": (0,),
    "spaceform.SpaceForm.covariant_derivative": (1, 2), "spaceform.SpaceForm.speed": (1,),
}

_clock = time.perf_counter_ns


def _mark(fn, original):
    fn.__bench_original__ = original
    return fn


def _is_wrapped(fn):
    return hasattr(fn, "__bench_original__")


class Tracer:
    """Spans, self times and counters for the jobs of one traced pass."""

    def __init__(self):
        self.names = []
        self.modules = []
        self._ids = {}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.job = -1
        self.stack = []
        self.solve_depth = 0
        self.pair_depth = 0
        self._patches = []
        self._map_keys = {}

    # -- names and per-job state ----------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.modules.append(name.split(".", 1)[0])
            if self.job >= 0:
                for stats in (self.self_ns, self.incl_ns, self.incl_points, self.calls):
                    stats.append(0)
        return nid

    def begin_job(self, job_id):
        n = len(self.names)
        self.self_ns = [0] * n
        self.incl_ns = [0] * n
        self.incl_points = [0] * n
        self.calls = [0] * n
        self.counters = {}
        self.distinct = set()
        self._errors_seen = []
        self.solve_depth = self.pair_depth = 0
        self.root = [-1, -1, 0, 0, 0]
        self.stack = [self.root]
        self.job = job_id
        self.root[2] = _clock()

    def end_job(self):
        """Close the job and return its record (times in ns)."""
        end = _clock()
        self.job = -1
        job_ns = end - self.root[2]
        per_module = {}
        for nid, ns in enumerate(self.self_ns):
            per_module[self.modules[nid]] = per_module.get(self.modules[nid], 0) + ns
        return {
            "job_ns": job_ns,
            "covered_ns": self.root[3],
            "self_ns": per_module,
            "self_ns_by_name": {self.names[i]: t for i, t in enumerate(self.self_ns) if t},
            "calls": {self.names[i]: c for i, c in enumerate(self.calls) if c},
            "incl_ns": {self.names[i]: t for i, t in enumerate(self.incl_ns) if t},
            "incl_points": {self.names[i]: t for i, t in enumerate(self.incl_points) if t},
            "counters": dict(self.counters),
            "distinct_points": len(self.distinct),
        }

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- span bookkeeping -----------------------------------------------------

    def _enter(self, nid, points=0):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_job.append(self.job)
        self.span_parent.append(self.stack[-1][0])
        self.span_end.append(0)
        frame = [idx, nid, 0, 0, points]   # span index, name, start, child ns, map points
        self.stack.append(frame)
        frame[2] = start = _clock()
        self.span_start.append(start)
        return frame

    def _exit(self, frame, exc=None):
        end = _clock()
        self.stack.pop()
        idx, nid, start, child, points = frame
        self.span_end[idx] = end
        dur = end - start
        own = dur - child
        parent = self.stack[-1]
        parent[3] += dur
        parent[4] += points
        self.self_ns[nid] += own
        self.incl_ns[nid] += dur
        self.incl_points[nid] += points
        self.calls[nid] += 1
        module = self.modules[nid]
        if module == "residual":
            self.count("residual.solve_ns" if self.solve_depth else "residual.classify_ns", own)
        if exc is not None:
            outer = self.modules[parent[1]] if parent[1] >= 0 else None
            if outer != module and not any(e is exc and m == module
                                           for m, e in self._errors_seen):
                self._errors_seen.append((module, exc))
                self.count(f"{module}.errors")

    def _call(self, nid, fn, args, kwargs, points=0):
        frame = self._enter(nid, points)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._exit(frame, exc)
            raise
        self._exit(frame)
        return result

    def _spanned(self, nid, fn):
        """``fn`` recording a span named ``nid`` while a job is active."""
        tracer = self

        def spanned(*args, **kwargs):
            if tracer.job < 0:
                return fn(*args, **kwargs)
            return tracer._call(nid, fn, args, kwargs)

        return _mark(spanned, fn)

    def wrap_function(self, name, fn, post=None):
        """A recording wrapper; ``post(result)`` may replace the result."""
        nid = self.name_id(name)
        tracer = self
        solver = name in SOLVERS
        pair = name == "residual.solve_param_pair"
        takes = CALLBACK_TAKERS.get(name, ())
        module = self.modules[nid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job < 0:
                return fn(*args, **kwargs)
            if takes:
                args = list(args)
                for i in takes:
                    if i < len(args):
                        args[i] = tracer._closure(args[i], module)
            if solver:
                tracer.solve_depth += 1
                tracer.pair_depth += pair
            try:
                result = tracer._call(nid, fn, args, kwargs)
            finally:
                if solver:
                    tracer.solve_depth -= 1
                    tracer.pair_depth -= pair
            return result if post is None else post(result)

        return _mark(traced, fn)

    def _closure(self, fn, caller_module):
        """Span a closure handed to ``caller_module`` by another package module."""
        owner = getattr(fn, "__module__", None) or ""
        if _is_wrapped(fn) or not owner.startswith("pqharmonic."):
            return fn
        layer = owner.split(".")[1]
        if layer == caller_module or layer not in LAYERS:
            return fn
        return self._spanned(self.name_id(f"{layer}.closure"), fn)

    # -- chart callbacks ------------------------------------------------------

    @staticmethod
    def _points(x, hyper):
        """Rows in a map argument: (N, m) or (m,) for charts, (N,) or scalar for curves."""
        if isinstance(x, float):
            return (x,)
        arr = np.asarray(x, dtype=float)
        if hyper:
            return [row.tobytes() for row in (arr.reshape(1, -1) if arr.ndim == 1 else arr)]
        return [float(t) for t in arr.ravel()]

    def _callback(self, fn, span, counter, hyper, is_map, eval_point=True):
        """Wrap one chart callback; the map also records its distinct points."""
        nid = self.name_id(span)
        # the entry keeps fn alive, so its id is not reused by another chart
        key = self._map_keys.setdefault(id(fn), (len(self._map_keys), fn))[0]
        tracer = self

        def traced(x, *rest):
            if tracer.job < 0:
                return fn(x, *rest)
            points = tracer._points(x, hyper)
            n = len(points)
            tracer.count(counter, n)
            if eval_point:
                tracer.count("eval_points", n)
            if is_map:
                tracer.distinct.update((key, p) for p in points)
            return tracer._call(nid, fn, (x,) + rest, {}, n if is_map else 0)

        return _mark(traced, fn)

    def wrap_chart(self, obj, source="builtin"):
        """Copy of a chart, curve or helix result with counting callbacks.

        ``source`` is "builtin" for catalog entries (counted as
        catalog.map_points) or "file" for chart-file expressions (counted as
        expressions.map_points, with the map's own time under cli).
        """
        from pqharmonic.curves import CurveChart, HelixResult
        from pqharmonic.immersion import ImmersionChart
        if isinstance(obj, HelixResult):
            return dataclasses.replace(obj, curve=self.wrap_chart(obj.curve, source))
        if not isinstance(obj, (ImmersionChart, CurveChart)) or _is_wrapped(obj.map):
            return obj
        hyper = isinstance(obj, ImmersionChart)
        map_span = "catalog.map" if source == "builtin" else "cli.map"
        map_counter = "catalog.map_points" if source == "builtin" else "expressions.map_points"
        changes = {"map": self._callback(obj.map, map_span, map_counter, hyper, True)}
        if hyper:
            for attr, span, counter in (
                    ("jacobian", "catalog.jacobian", "catalog.jet_calls"),
                    ("hessian", "catalog.hessian", "catalog.jet_calls"),
                    ("analytic_geometry", "catalog.analytic", "catalog.analytic_calls"),
                    ("reference_normal", "catalog.normal", "catalog.normal_calls")):
                cb = getattr(obj, attr)
                if cb is not None:
                    changes[attr] = self._callback(cb, span, counter, True, False,
                                                   eval_point=attr != "reference_normal")
        return dataclasses.replace(obj, **changes)

    def _wrap_reparametrize(self, fn):
        """reparametrize_arclength: count the raw map, time the arc-length map."""
        traced_fn = self.wrap_function("curves.reparametrize_arclength", fn)
        arclength = self.name_id("curves.arclength_map")
        tracer = self

        def reparam(curve, *args, **kwargs):
            if tracer.job >= 0:
                curve = tracer.wrap_chart(curve, "file")
            out = traced_fn(curve, *args, **kwargs)
            if out.map is curve.map:
                return out
            return dataclasses.replace(out, map=tracer._spanned(arclength, out.map))

        return _mark(functools.wraps(fn)(reparam), fn)

    # -- installation ---------------------------------------------------------

    def _post_for(self, name):
        if name in CONSTRUCTORS:
            source = "file" if name == "cli.load_chart_file" else "builtin"
            return lambda result: self.wrap_chart(result, source)
        if name == "residual.solve_param_pair":
            def newton(result):
                self.count("residual.newton_iterations", result.iterations)
                return result
            return newton
        if name == "residual._residual_arrays":
            def objective(result):
                self.count("residual.solver_system_evals")
                return result
            return objective
        if name == "residual.collect_samples":
            # each evaluation of the pair solver's system samples the family once
            def family_sample(result):
                if self.pair_depth:
                    self.count("residual.solver_system_evals")
                return result
            return family_sample
        return None

    def _sample_variants(self, fn):
        """geometric_sample, recorded under its path: analytic, exact jet or FD map."""
        spans = {v: self.wrap_function(f"immersion.geometric_sample.{v}", fn)
                 for v in ("analytic", "jet", "fd")}

        def sample(chart, u, h_step=None, use_analytic=True):
            if use_analytic and chart.analytic_geometry is not None:
                variant = "analytic"
            elif chart.jacobian is not None and chart.hessian is not None:
                variant = "jet"
            else:
                variant = "fd"
            return spans[variant](chart, u, h_step=h_step, use_analytic=use_analytic)

        return _mark(functools.wraps(fn)(sample), fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the layers at all bindings."""
        wrappers = {}
        modules = [importlib.import_module(f"pqharmonic.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                        not attr.startswith("_") or attr in PRIVATE_WRAPPED.get(layer, ())):
                    name = f"{layer}.{attr}"
                    if name == "immersion.geometric_sample":
                        wrapper = self._sample_variants(obj)
                    elif name == "curves.reparametrize_arclength":
                        wrapper = self._wrap_reparametrize(obj)
                    else:
                        wrapper = self.wrap_function(name, obj, self._post_for(name))
                    wrappers[id(obj)] = (obj, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth,
                                        self.wrap_function(f"{layer}.{attr}.{meth}", fn))
        import pqharmonic
        owners = [pqharmonic] + modules + [importlib.import_module("pqharmonic.errors")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if hit is not None and hit[0] is obj:
                    self._patch(owner, attr, hit[1])
        for name in ("catalog.map", "cli.map", "catalog.jacobian", "catalog.hessian",
                     "catalog.analytic", "catalog.normal"):
            self.name_id(name)
        for layer in LAYERS:
            self.name_id(f"{layer}.closure")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 job=np.frombuffer(self.span_job, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 start_ns=np.frombuffer(self.span_start, np.int64),
                 end_ns=np.frombuffer(self.span_end, np.int64))

    @property
    def span_count(self):
        return len(self.span_start)
