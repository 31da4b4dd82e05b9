"""In-memory span tracer over the public API of the qestgeo modules.

``install`` wraps, inside the benchmark process only, every public
function and every public class (constructor and public methods) of the
package modules, and rebinds each reference the package holds to them.
Each call records a span: name, start, end and the enclosing span.  A
span's self time is its duration minus the time of the spans it
encloses, so the self times of all layers plus the benchmark's own share
of each operation add up to the operation's wall time.

Spans are aggregated as they close.  The first ``KEEP_SPANS`` of a run
are also kept verbatim and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "model", "geometry", "holonomy", "hilbert", "symmetry", "estimation")
KEEP_SPANS = 100_000
SPECTRAL = ("eigh", "eigvalsh", "svd", "solve")

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "model.evaluate_s": ["model.PureStateModel.evaluate"],
    "model.tangent_s": ["model.PureStateModel.tangent"],
    "model.lift_s": ["model.PureStateModel.horizontal_lift"],
    "model.catalog_s": ["model.catalog"],
    "geometry.analyze_s": ["geometry.analyze"],
    "geometry.gram_s": ["geometry.sld_fisher", "geometry.berry_curvature"],
    "geometry.bound_s": ["geometry.d_transform", "geometry.attainable_cr_js",
                         "geometry.sld_bound", "geometry.GeometryReport.sld_bound"],
    "hilbert.inner_s": ["hilbert.inner"],
    "hilbert.gram_schmidt_s": ["hilbert.gram_schmidt_real"],
    "hilbert.complete_basis_s": ["hilbert.complete_basis"],
    "hilbert.momentum_s": ["hilbert.momentum_space", "hilbert.momentum_transform",
                           "hilbert.inverse_momentum_transform"],
    "holonomy.chain_s": ["holonomy.berry_phase_loop", "holonomy.berry_phase_open"],
    "holonomy.quasi_parallel_s": ["holonomy.is_quasi_parallel"],
    "holonomy.align_s": ["holonomy.align_phases"],
    "symmetry.conjugation_s": ["symmetry.conjugation_in_basis",
                               "symmetry.AntiunitaryOp.__init__",
                               "symmetry.AntiunitaryOp.apply"],
    "symmetry.momentum_check_s": ["symmetry.momentum_symmetry_check"],
    "estimation.povm_build_s": ["estimation.grid_pvm", "estimation.measurement_family",
                                "estimation.optimal_measurement_quasi_parallel",
                                "estimation.CellPovm.__init__",
                                "estimation.ProjectorPovm.__init__",
                                "estimation.MatrixPovm.__init__"],
    "estimation.probabilities_s": ["estimation.induced_distribution",
                                   "estimation.CellPovm.probabilities",
                                   "estimation.ProjectorPovm.probabilities",
                                   "estimation.MatrixPovm.probabilities"],
    "estimation.scores_s": ["estimation.CellPovm.scores", "estimation.ProjectorPovm.scores",
                            "estimation.MatrixPovm.scores",
                            "estimation.CellPovm.node_fisher",
                            "estimation.ProjectorPovm.node_fisher",
                            "estimation.MatrixPovm.node_fisher"],
    "estimation.classical_fisher_s": ["estimation.classical_fisher"],
    "estimation.sample_s": ["estimation.sample_outcomes"],
    "cli.parse_s": ["cli.build_parser", "cli.parse_model_spec", "cli.parse_theta_list",
                    "cli.default_grid_points"],
    "cli.render_s": ["cli.render_document"],
    "cli.self_s": ["cli.main"],
}

# per-layer metric -> spans whose calls it counts
CALLS = {
    "model.evaluate.calls": ["model.PureStateModel.evaluate"],
    "model.tangent.calls": ["model.PureStateModel.tangent"],
    "model.lift.calls": ["model.PureStateModel.horizontal_lift"],
    "geometry.analyze.calls": ["geometry.analyze"],
    "hilbert.inner.calls": ["hilbert.inner"],
    "holonomy.loop.calls": ["holonomy.berry_phase_loop", "holonomy.berry_phase_open"],
    "cli.docs": ["cli.main"],
}

# per-layer metric -> counter filled by a hook
COUNTERS = {
    "model.bytes_computed": "model.bytes",
    "hilbert.statevector.count": "hilbert.statevectors",
    "holonomy.segments": "holonomy.segments",
    "holonomy.refined_points": "holonomy.refined_points",
    "estimation.draws": "estimation.draws",
    "cli.render_bytes": "cli.render_bytes",
    "cli.exit_nonzero": "cli.exit_nonzero",
}

UNITS = {"model.bytes_computed": "B/op", "cli.render_bytes": "B/op",
         "model.evals_per_point": "1/point", "geometry.spectral_calls_per_point": "1/point"}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for layer in LAYERS:
        for table in (SELF_TIME, CALLS, COUNTERS):
            for name in table:
                if name.startswith(layer + "."):
                    names[name] = UNITS.get(name, "s/op" if name.endswith("_s") else "1/op")
        if layer == "model":
            names["model.evals_per_point"] = UNITS["model.evals_per_point"]
        if layer == "geometry":
            names["geometry.spectral_calls_per_point"] = UNITS["geometry.spectral_calls_per_point"]
    for layer in LAYERS:
        names[f"layer.{layer}_s"] = "s/op"
    names["trace.op_wall_s"] = "s/op"
    names["trace.unattributed_s"] = "s/op"
    names["trace.spans"] = "1/op"
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._stack = []
        self.analyze_depth = 0
        self.reset()

    def reset(self):
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counters = {}
        self.kept = []
        self.ops = 0
        self.points = 0

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _enter(self, nid):
        index = -1
        if len(self.kept) < KEEP_SPANS:
            index = len(self.kept)
            parent = self._stack[-1][1] if self._stack else -1
            self.kept.append([nid, 0.0, 0.0, parent, self.ops])
        frame = [0.0, index, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, nid, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        self.calls[nid] += 1
        self.self_time[nid] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if frame[1] >= 0:
            self.kept[frame[1]][1:3] = [frame[2], end]

    def wrap(self, name, fn, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(nid, frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, kind, points):
        """One benchmark operation: the root span of everything it calls."""
        nid = self._id("op." + kind)
        frame = self._enter(nid)
        try:
            yield
        finally:
            self._exit(nid, frame)
            self.ops += 1
            self.points += points

    # -- metrics -----------------------------------------------------------

    def metrics(self):
        per_op = 1.0 / max(self.ops, 1)
        by_name = {n: (self.calls[i], self.self_time[i]) for i, n in enumerate(self.names)}

        def self_sum(spans):
            return sum(by_name.get(s, (0, 0.0))[1] for s in spans)

        def calls(spans):
            return sum(by_name.get(s, (0, 0.0))[0] for s in spans)

        values = {}
        for name, spans in SELF_TIME.items():
            values[name] = self_sum(spans) * per_op
        for name, spans in CALLS.items():
            values[name] = calls(spans) * per_op
        for name, key in COUNTERS.items():
            values[name] = self.counters.get(key, 0) * per_op
        values["model.evals_per_point"] = (calls(CALLS["model.evaluate.calls"])
                                           / max(self.points, 1))
        analyzes = calls(CALLS["geometry.analyze.calls"])
        values["geometry.spectral_calls_per_point"] = (
            self.counters.get("geometry.spectral_calls", 0) / analyzes if analyzes else 0.0)
        op_spans = [n for n in self.names if n.startswith("op.")]
        wall = sum(by_name[n][1] for n in op_spans)
        for layer in LAYERS:
            spans = [n for n in self.names if n.startswith(layer + ".")]
            layer_self = self_sum(spans)
            values[f"layer.{layer}_s"] = layer_self * per_op
            wall += layer_self
        values["trace.op_wall_s"] = wall * per_op
        values["trace.unattributed_s"] = self_sum(op_spans) * per_op
        values["trace.spans"] = sum(c for c, _ in by_name.values()) * per_op
        units = metric_names()
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.kept}, fh)


def _statevector_hook(tracer, init):
    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        tracer.count("hilbert.statevectors")
        init(self, *args, **kwargs)

    return counted


def _hooks(tracer):
    def vector_bytes(args, kwargs, result):
        tracer.count("model.bytes", 16 * args[0].space.dim)

    def chain(args, kwargs, result):
        tracer.count("holonomy.segments", result.n_segments)
        tracer.count("holonomy.refined_points", result.n_segments - (len(args[0].points) - 1))

    return {
        "model.PureStateModel.evaluate": vector_bytes,
        "model.PureStateModel.tangent": vector_bytes,
        "holonomy.berry_phase_loop": chain,
        "holonomy.berry_phase_open": chain,
        "estimation.sample_outcomes": lambda a, k, r: tracer.count("estimation.draws", len(r)),
        "cli.render_document": lambda a, k, r: tracer.count("cli.render_bytes", len(r)),
        "cli.main": lambda a, k, r: tracer.count("cli.exit_nonzero", int(r != 0)),
    }


def _inside_analyze(tracer, fn):
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        tracer.analyze_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.analyze_depth -= 1

    return marked


def _count_spectral(tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.analyze_depth:
            tracer.count("geometry.spectral_calls")
        return fn(*args, **kwargs)

    return counted


def install(tracer):
    """Wrap the package's public API and count numpy.linalg spectral calls."""
    import numpy

    import qestgeo

    hooks = _hooks(tracer)
    modules = {layer: importlib.import_module(f"qestgeo.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj, hooks)
            elif inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped = tracer.wrap(name, obj, hooks.get(name))
                if name == "geometry.analyze":
                    wrapped = _inside_analyze(tracer, wrapped)
                replaced[id(obj)] = (obj, wrapped)
    # rebind names imported across modules (e.g. estimation.align_phases)
    for mod in (qestgeo, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for fname in SPECTRAL:
        setattr(numpy.linalg, fname, _count_spectral(tracer, getattr(numpy.linalg, fname)))


def _wrap_class(tracer, layer, cls, hooks):
    for attr, member in list(vars(cls).items()):
        if not inspect.isfunction(member):
            continue
        if attr != "__init__" and attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if name == "hilbert.StateVector.__init__":
            # built for every intermediate vector: counted, not spanned
            setattr(cls, attr, _statevector_hook(tracer, member))
        else:
            setattr(cls, attr, tracer.wrap(name, member, hooks.get(name)))
