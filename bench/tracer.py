"""Spans around the public functions of darkshelf's layers, installed from outside.

Nothing under ``src/`` knows about tracing.  ``installed(tracer)`` replaces
each traced function in every darkshelf module namespace that holds it (so
``from .finitediff import second_derivative`` call sites are covered too),
and puts the originals back on exit.  A span records its call count, its
total time and its self time: total minus the time of the traced spans
nested inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from darkshelf import (
    airy, asymptotics, boundary_layer, finitediff, harness, perturbations, quadrature,
    simulator, soliton,
)


class Tracer:
    """In-memory span totals keyed by layer name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # work counts: points, steps, bytes, snapshots
        self._stack: list[list] = []  # [name, seconds spent in nested spans]

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn, record=None):
        """``fn`` inside a span called ``name``; ``record(tracer, args, kwargs, result)``
        adds work counts after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.own[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if record is not None:
                record(self, args, kwargs, result)
            return result

        return traced


def _points(key: str, index: int):
    def record(tracer, args, kwargs, result):
        tracer.counts[key] += int(np.size(args[index]))
    return record


def _bytes_written(tracer, args, kwargs, result):
    paths = [result] if isinstance(result, str) else list(result)
    tracer.counts["harness.bytes"] += sum(os.path.getsize(p) for p in paths)


def _snapshots(tracer, args, kwargs, result):
    grid = args[1]
    tracer.counts["simulator.snapshots"] += len(result)
    tracer.counts["simulator.snapshot_bytes"] += len(result) * grid.n_points * 16


def _steps(tracer, args, kwargs, result):
    # resolve() is also called by harness.simulate to size the snapshot
    # stride; only the call made by simulator.run sets the step count.
    if tracer.current() == "simulator.run":
        grid = args[1]
        tracer.counts["simulator.steps"] += result[1]
        tracer.counts["simulator.point_steps"] += result[1] * grid.n_points


# (module, function name, span name, work-count recorder)
FUNCTIONS = [
    (harness, "validate", "harness.validate", None),
    (harness, "predict", "harness.predict", None),
    (harness, "simulate", "harness.simulate", None),
    (harness, "compare", "harness.compare", None),
    (harness, "write_report", "harness.write", _bytes_written),
    (harness, "write_prediction_csv", "harness.write", _bytes_written),
    (harness, "emit_plotdata", "harness.write", _bytes_written),
    (simulator, "write_snapshot_csv", "harness.write", _bytes_written),
    (simulator, "run", "simulator.run", _snapshots),
    (simulator, "measure_shelf", "simulator.measure", None),
    (simulator, "measure_sigma0_rate", "simulator.measure", None),
    (simulator, "track_edges", "simulator.measure", None),
    (simulator, "measure_core_minimum", "simulator.measure", None),
    (finitediff, "second_derivative", "finitediff.d2", _points("finitediff.d2_points", 0)),
    (asymptotics, "evolve_core_parameters", "asymptotics.cascade", None),
    (asymptotics, "grey_parameter_rhs", "asymptotics.rhs", None),
    (asymptotics, "evolve_background", "asymptotics.background", None),
    (asymptotics, "background_rate", "asymptotics.background_rate", None),
    (soliton, "grey_profile", "soliton.profile", None),
    (soliton, "profile_with_derivatives", "soliton.profile", None),
    (boundary_layer, "shelf_magnitude_profile", "boundary_layer.profile",
     _points("boundary_layer.points", 2)),
    (boundary_layer, "shelf_phase_profile", "boundary_layer.profile",
     _points("boundary_layer.points", 2)),
    (airy, "airy_ai", "airy", _points("airy.points", 0)),
    (airy, "airy_ai_prime", "airy", _points("airy.points", 0)),
    (airy, "airy_ai_integral", "airy", _points("airy.points", 0)),
    (airy, "airy_ai_double_integral", "airy", _points("airy.points", 0)),
    (quadrature, "integrate", "quadrature.integrate", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Install ``tracer``'s spans for the duration of the block (no-op for None)."""
    if tracer is None:
        yield None
        return
    undo = []

    def patch(owner, key, new):
        if isinstance(owner, dict):
            undo.append((owner, key, owner[key]))
            owner[key] = new
        else:
            undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    modules = [m for name, m in sys.modules.items()
               if name == "darkshelf" or name.startswith("darkshelf.")]
    try:
        for module, attr, span, record in FUNCTIONS:
            original = getattr(module, attr)
            traced = tracer.wrap(span, original, record)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        patch(m, name, traced)

        resolve = tracer.wrap("simulator.resolve", simulator.SimConfig.resolve, _steps)
        patch(simulator.SimConfig, "resolve", resolve)

        # Perturbations and decaying backgrounds are built per experiment, so
        # their per-call evaluators are wrapped where they are made.
        for label, factory in list(perturbations.BUILTINS.items()):
            def make(*args, _factory=factory, **kwargs):
                pert = _factory(*args, **kwargs)
                return dataclasses.replace(
                    pert, grid_eval=tracer.wrap("perturbations.grid_eval", pert.grid_eval))
            patch(perturbations.BUILTINS, label, make)

        from_perturbation = simulator.SimBackground.__dict__["from_perturbation"]

        def background(cls, *args, **kwargs):
            bg = from_perturbation.__func__(cls, *args, **kwargs)
            return dataclasses.replace(
                bg,
                u_inf_fn=tracer.wrap("simulator.background", bg.u_inf_fn),
                rate_fn=tracer.wrap("simulator.background", bg.rate_fn),
            )

        patch(simulator.SimBackground, "from_perturbation", classmethod(background))
        yield tracer
    finally:
        for owner, key, old in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}."""

    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    return {
        "simulator.run_s": (t.total["simulator.run"], "s"),
        "simulator.self_s": (t.own["simulator.run"], "s"),
        "simulator.steps": (t.counts["simulator.steps"], "count"),
        "simulator.point_steps": (t.counts["simulator.point_steps"], "count"),
        "simulator.ns_per_point_step": (
            per(t.total["simulator.run"], t.counts["simulator.point_steps"], 1e9), "ns"),
        "finitediff.d2_calls": (t.calls["finitediff.d2"], "count"),
        "finitediff.d2_s": (t.total["finitediff.d2"], "s"),
        "finitediff.ns_per_point": (
            per(t.total["finitediff.d2"], t.counts["finitediff.d2_points"], 1e9), "ns"),
        "simulator.background_lookups": (t.calls["simulator.background"], "count"),
        "simulator.background_s": (t.total["simulator.background"], "s"),
        "perturbations.grid_eval_calls": (t.calls["perturbations.grid_eval"], "count"),
        "perturbations.grid_eval_s": (t.total["perturbations.grid_eval"], "s"),
        "simulator.snapshots": (t.counts["simulator.snapshots"], "count"),
        "simulator.snapshot_mb": (t.counts["simulator.snapshot_bytes"] / 2**20, "MiB"),
        "simulator.measure_calls": (t.calls["simulator.measure"], "count"),
        "simulator.measure_s": (t.total["simulator.measure"], "s"),
        "asymptotics.cascade_s": (t.total["asymptotics.cascade"], "s"),
        "asymptotics.rhs_evals": (t.calls["asymptotics.rhs"], "count"),
        "asymptotics.us_per_rhs_eval": (
            per(t.total["asymptotics.rhs"], t.calls["asymptotics.rhs"], 1e6), "us"),
        "asymptotics.background_calls": (t.calls["asymptotics.background_rate"], "count"),
        "asymptotics.background_s": (t.total["asymptotics.background"], "s"),
        "soliton.profile_s": (t.total["soliton.profile"], "s"),
        "boundary_layer.profile_points": (t.counts["boundary_layer.points"], "count"),
        "boundary_layer.profile_s": (t.total["boundary_layer.profile"], "s"),
        "airy.ns_per_point": (per(t.total["airy"], t.counts["airy.points"], 1e9), "ns"),
        "quadrature.integrate_calls": (t.calls["quadrature.integrate"], "count"),
        "harness.validate_s": (t.total["harness.validate"], "s"),
        "harness.compare_self_s": (t.own["harness.compare"], "s"),
        "harness.write_s": (t.total["harness.write"], "s"),
        "harness.bytes_written": (t.counts["harness.bytes"], "B"),
    }
