"""Span tracing of trimodal's public functions, installed from outside.

`install` replaces every public function of the traced modules at every
module binding (``verification`` and ``cli`` import names directly, so
patching the defining module alone would miss their calls), wraps the
``Family`` methods, and wraps each objective callable handed to
``scan_extrema``.  Spans stay in memory; `write_spans` saves them when the
run ends.  `uninstall` puts the originals back, so one process can time
traced operations and untraced ones that pass through no wrapper at all.
A wrapper records nothing while the tracer is inactive (between operations).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("basis", "dressed", "dynamics", "evolve", "analytic", "entanglement",
          "scan", "verification", "cli")
# called once per matrix element inside the generator builders: a span per
# call would cost more than the element itself, so its time stays in the
# builders' self time
UNWRAPPED = frozenset({"dynamics.hopping_element"})
FAMILY_METHODS = ("representation", "evaluate_phases", "evaluate", "initial_state",
                  "state_vector", "amplitudes_from_state", "conservation_residual")


def _argument(fn, name: str):
    """(position, default) of parameter `name` of `fn`."""
    params = list(inspect.signature(fn).parameters.values())
    for k, p in enumerate(params):
        if p.name == name:
            return k, p.default
    raise KeyError(name)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.spans: list[tuple] = []   # (op, span id, parent id, name, start, end)
        self._stack: list[list] = []   # open spans: [span id, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span `name`; while a span is recorded,
        `count(counts, args, kwargs, result)` may add work counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans.append((tracer.op, span_id, parent, name, start, end))
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers in place of the originals at every binding."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the originals back, so untraced code runs without any wrapper."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _plan(self) -> list[tuple]:
        """(module or class, attribute, original, wrapper) for every binding."""
        modules = {layer: importlib.import_module(f"trimodal.{layer}") for layer in LAYERS}
        counters = self._counters(modules)
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                target = self._objective_spans(obj) if name == "scan.scan_extrema" else obj
                wrapped[id(obj)] = (obj, self.wrap(name, target, counters.get(name)))
        patches = []
        for mod in [*modules.values(), importlib.import_module("trimodal")]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        family = modules["analytic"].Family
        for method in FAMILY_METHODS:
            original = vars(family)[method]
            patches.append((family, method, original,
                            self.wrap(f"analytic.Family.{method}", original)))
        return patches

    def _objective_spans(self, scan_extrema):
        """`scan_extrema` wrapping the objective it is handed (a caller's
        closure), so each evaluation shows up as a child span of the scan."""
        at, _ = _argument(scan_extrema, "objective")
        tracer = self

        @functools.wraps(scan_extrema)
        def shim(*args, **kwargs):
            if "objective" in kwargs:
                kwargs["objective"] = tracer.wrap("scan.objective", kwargs["objective"])
            else:
                args = list(args)
                args[at] = tracer.wrap("scan.objective", args[at])
            return scan_extrema(*args, **kwargs)

        return shim

    @staticmethod
    def _counters(modules) -> dict:
        """Work counts taken from a call's arguments or result, by span name."""
        times_at, _ = _argument(modules["evolve"].propagate, "times")
        _, default_points = _argument(modules["scan"].dwell_time, "quadrature_points")

        def samples(counts, args, kwargs, result):
            times = kwargs["times"] if "times" in kwargs else args[times_at]
            counts["evolve.samples"] += np.atleast_1d(np.asarray(times)).size

        def sweeps(counts, args, kwargs, result):
            counts["entanglement.starts"] += result.n_starts
            counts["entanglement.sweeps"] += result.sweeps
            counts["entanglement.start_sweeps"] += result.n_starts * result.sweeps

        def points(counts, args, kwargs, result):
            counts["scan.quadrature_points"] += kwargs.get("quadrature_points", default_points)

        return {
            "evolve.propagate": samples,
            "entanglement.max_product_overlap": sweeps,
            "scan.dwell_time": points,
        }

    def snapshot(self) -> dict:
        """Calls, self seconds and work counts since the last reset."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for op, span, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{span}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _calls(snap, *names):
    return float(sum(snap["calls"].get(n, 0) for n in names))


def _self(snap, *names):
    return float(sum(snap["self_s"].get(n, 0.0) for n in names))


def _count(snap, name):
    return float(snap["counts"].get(name, 0.0))


# name -> (unit, value from one operation's snapshot)
LAYER_METRICS = {
    "basis.enumerate_calls": ("count", lambda s: _calls(s, "basis.enumerate_manifold")),
    "basis.enumerate_s": ("s", lambda s: _self(s, "basis.enumerate_manifold")),
    "basis.product_state_s": ("s", lambda s: _self(s, "basis.product_state")),
    "dynamics.build_calls": ("count", lambda s: _calls(
        s, "dynamics.build_large_xi_generator", "dynamics.build_full_generator")),
    "dynamics.build_large_s": ("s", lambda s: _self(s, "dynamics.build_large_xi_generator")),
    "dynamics.build_full_s": ("s", lambda s: _self(s, "dynamics.build_full_generator")),
    "evolve.propagate_calls": ("count", lambda s: _calls(s, "evolve.propagate")),
    "evolve.propagate_s": ("s", lambda s: _self(s, "evolve.propagate")),
    "evolve.samples": ("count", lambda s: _count(s, "evolve.samples")),
    "evolve.mode_expansion_s": ("s", lambda s: _self(s, "evolve.mode_expansion")),
    "evolve.sector_probabilities_s": ("s", lambda s: _self(s, "evolve.sector_probabilities")),
    "analytic.representation_calls": ("count", lambda s: _calls(s, "analytic.Family.representation")),
    "analytic.representation_s": ("s", lambda s: _self(s, "analytic.Family.representation")),
    "analytic.evaluate_calls": ("count", lambda s: _calls(s, "analytic.Family.evaluate")),
    "analytic.amplitudes_from_state_s": ("s", lambda s: _self(s, "analytic.Family.amplitudes_from_state")),
    "analytic.state_vector_s": ("s", lambda s: _self(s, "analytic.Family.state_vector")),
    "entanglement.overlap_calls": ("count", lambda s: _calls(s, "entanglement.max_product_overlap")),
    "entanglement.overlap_s": ("s", lambda s: _self(s, "entanglement.max_product_overlap")),
    "entanglement.starts": ("count", lambda s: _count(s, "entanglement.starts")),
    "entanglement.sweeps": ("count", lambda s: _count(s, "entanglement.sweeps")),
    "entanglement.start_sweeps": ("count", lambda s: _count(s, "entanglement.start_sweeps")),
    "scan.dwell_calls": ("count", lambda s: _calls(s, "scan.dwell_time")),
    "scan.dwell_s": ("s", lambda s: _self(s, "scan.dwell_time")),
    "scan.quadrature_points": ("count", lambda s: _count(s, "scan.quadrature_points")),
    "scan.extrema_calls": ("count", lambda s: _calls(s, "scan.scan_extrema")),
    "scan.extrema_s": ("s", lambda s: _self(s, "scan.scan_extrema")),
    "scan.objective_evals": ("count", lambda s: _calls(s, "scan.objective")),
    "verification.self_s": ("s", lambda s: _self(s, "verification.run_suite")),
    "analytic.matrix_representation_calls": ("count", lambda s: _calls(
        s, "analytic.matrix_representation")),
    "analytic.matrix_representation_s": ("s", lambda s: _self(s, "analytic.matrix_representation")),
}


def layer_metrics(snapshots: list[dict]) -> dict[str, dict]:
    """Each layer metric as its mean over the traced operations, with its unit."""
    n = len(snapshots)
    return {name: {"value": sum(fn(s) for s in snapshots) / n if n else 0.0, "unit": unit}
            for name, (unit, fn) in LAYER_METRICS.items()}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds to import trimodal and scipy from ``python -X importtime``.

    scipy's share is the cumulative time of each scipy module whose importer
    is not itself a scipy module, so what scipy pulls in is counted once.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    # importtime prints a module after its children, so a module's importer
    # is the next entry at a smaller depth
    trimodal_us = scipy_us = 0
    for k, (depth, cumulative, name) in enumerate(entries):
        if name == "trimodal":
            trimodal_us = cumulative
        if name == "scipy" or name.startswith("scipy."):
            parent = next((e[2] for e in entries[k + 1:] if e[0] < depth), "")
            if not (parent == "scipy" or parent.startswith("scipy.")):
                scipy_us += cumulative
    return {"trimodal": trimodal_us / 1e6, "scipy": scipy_us / 1e6}
