"""Spans around the public call boundaries of each fanshift layer.

The tracer patches each boundary from outside the package, where the name is
looked up at call time, so the program under test is unchanged. Spans are
kept in memory and reduced to per-layer metrics when the command ends.

A span's self time is its duration minus the time of its direct child spans;
the program is single threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

# (module attribute path, layer) for every boundary the tracer wraps.
# ``cli`` binds the engine's run_* names at import, so they are patched in
# both modules: ``cli`` for the commands, ``engine`` for the tuner.
BOUNDARIES = (
    ("cli.main", "orchestration"),
    ("cli.run_event_pair", "event_pair"),
    ("cli.tune_open_loop_event", "tune"),
    ("data_io.load_scenario_config", "config"),
    ("cli.run_baseline", "march"),
    ("cli.run_open_loop", "march"),
    ("cli.run_closed_loop", "march"),
    ("engine.run_baseline", "march"),
    ("engine.run_open_loop", "march"),
    ("engine.OutdoorProfile.series", "series"),
    ("kernels.simulate_loop", "kernel"),
    ("metrics.evaluate_event", "metrics"),
    ("metrics.energy_in_out", "metrics"),
    ("data_io.write_trace", "trace_write"),
    ("data_io.write_results", "results_write"),
)

# kernels.MODEL_MIXING, the kernel's first argument for the mixing-air plant
MODEL_MIXING = 1


@dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records one span per call of every wrapped boundary."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> list[str]:
        """Wrap every boundary; return the paths of those not found.

        A missing boundary leaves its layer unmeasured, so its metrics would
        read 0; the caller must treat the traced run as failed.
        """
        missing = []
        for path, layer in BOUNDARIES:
            *owner_path, name = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                missing.append(path)
                continue
            self._restore.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer))
        return missing

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, tracer._stack[-1] if tracer._stack else None,
                        time.perf_counter())
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].children_s += span.duration
            _annotate(span, args)
            return result

        return wrapper

    def _ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the benchmark's per-layer metrics."""
        spans = self.spans
        by_layer: dict[str, list[Span]] = {}
        for s in spans:
            by_layer.setdefault(s.layer, []).append(s)

        def of(layer):
            return by_layer.get(layer, [])

        def total(layer):
            # outermost spans only, so a layer calling itself counts once
            return sum(s.duration for s in of(layer)
                       if s.parent is None or spans[s.parent].layer != layer)

        kernel = of("kernel")
        mixing = [s for s in kernel if s.info["model"] == MODEL_MIXING]
        mixing_steps = sum(s.info["steps"] for s in mixing)
        writes = of("trace_write") + of("results_write")
        write_bytes = sum(s.info["bytes"] for s in writes)
        write_s = total("trace_write") + total("results_write")
        probes = sum(1 for s in kernel
                     if any(a.layer == "tune" for a in self._ancestors(s)))
        return {
            "kernel.calls": len(kernel),
            "kernel.steps": sum(s.info["steps"] for s in kernel),
            "kernel.s": total("kernel"),
            "kernel.us_per_step.mixing": (sum(s.duration for s in mixing)
                                          / mixing_steps * 1e6 if mixing_steps else 0.0),
            "march.self_s": sum(s.self_s for s in of("march")),
            "series.s": total("series"),
            "metrics.calls": len(of("metrics")),
            "metrics.s": total("metrics"),
            "trace_write.calls": len(of("trace_write")),
            "trace_write.bytes": sum(s.info["bytes"] for s in of("trace_write")),
            "write.s": write_s,
            "write.mb_per_s": write_bytes / 1e6 / write_s if write_s else 0.0,
            "results_write.s": total("results_write"),
            "tune.probes": probes,
            "event_pair.calls": len(of("event_pair")),
            "orchestration.self_s": sum(s.self_s for s in of("orchestration")),
            "config.s": total("config"),
        }


def _annotate(span: Span, args: tuple) -> None:
    """Record a span's work counts; runs after the span has ended."""
    if span.layer == "kernel":
        span.info["model"] = int(args[0])
        span.info["steps"] = int(args[1])
    elif span.layer in ("trace_write", "results_write"):
        span.info["bytes"] = os.path.getsize(args[1])
