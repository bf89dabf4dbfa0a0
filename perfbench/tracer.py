"""Outside-in layer tracing of ``csm_sim``.

The tracer swaps a timing wrapper in for each public function at a layer
boundary, under the module attribute its caller looks up (``runner`` imports
``irreversible_return`` into its own namespace, so the wrapper goes on
``csm_sim.runner.irreversible_return``).  Each call records a span: request,
name, start, end and parent.  Spans stay in memory; the caller writes them
out at the end.  A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import namedtuple
from time import perf_counter

Span = namedtuple("Span", "request name start end parent units")


def _n_samples(args, kwargs, result) -> int:
    return int(kwargs["n_samples"] if "n_samples" in kwargs else args[1])


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


# span name -> (module attributes to wrap, units recorded per call)
LAYERS = {
    "cli.main": (("csm_sim.cli.main",), None),
    "scenario.parse": (("csm_sim.cli.parse_scenario",), None),
    "hilbert.build_context": (("csm_sim.runner.build_context",), None),
    "measurement.return": (
        (
            "csm_sim.runner.reversible_return",
            "csm_sim.runner.irreversible_return",
            "csm_sim.runner.interference_return",
        ),
        None,
    ),
    "measurement.transition_matrix": (
        ("csm_sim.runner.transition_matrix", "csm_sim.trajectory.transition_matrix"),
        None,
    ),
    "qnd.validate_gram": (
        (
            "csm_sim.qnd.validate_gram",
            "csm_sim.runner.validate_gram",
            "csm_sim.trajectory.validate_gram",
        ),
        None,
    ),
    "qnd.meter_return": (("csm_sim.runner.meter_return_probability",), None),
    "qnd.meter_states": (
        ("csm_sim.runner.meter_states_from_gram", "csm_sim.trajectory.meter_states_from_gram"),
        None,
    ),
    "qnd.meter_chain": (("csm_sim.runner.meter_chain_reduced_state",), None),
    "trajectory.meter_entropy": (("csm_sim.runner.meter_protocol_entropy",), None),
    "trajectory.ensemble": (("csm_sim.runner.mean_entropy_production",), _n_samples),
    "trajectory.exhaustive": (("csm_sim.runner.exhaustive_entropy_production",), None),
    "trajectory.entropy_production": (("csm_sim.trajectory.entropy_production",), None),
    "runner.run_scenario": (("csm_sim.cli.run_scenario",), None),
    "runner.verify": (("csm_sim.cli.verify_report",), None),
    "runner.sweep_rows": (("csm_sim.cli.sweep_rows",), None),
    "runner.serialize": (("csm_sim.cli.report_to_json", "csm_sim.cli.format_csv"), _text_bytes),
}


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`uninstall`."""

    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.spans: list[Span | None] = []
        self.missing: list[str] = []
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for name, (targets, units) in self.layers.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(target)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(target)
                    continue
                setattr(module, attr, self._wrap(name, original, units))
                self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def missing_layers(self) -> list[str]:
        """Span names none of whose targets exist."""
        return [
            name
            for name, (targets, _) in self.layers.items()
            if all(t in self.missing for t in targets)
        ]

    def _wrap(self, name: str, fn, units):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                count = units(args, kwargs, result) if units and result is not None else 0
                self.spans[index] = Span(self.request, name, start, end, parent, count)

        return traced


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and units.

    Self time is a span's duration minus its direct children's durations, so
    the self times of all spans add up to the duration of the root spans.
    Inclusive time counts only the outermost span of a name.
    """
    spans = [Span(*s) for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})
        entry["calls"] += 1
        entry["units"] += s.units
        entry["self_s"] += (s.end - s.start) - child_time[i]
        ancestor = s.parent
        while ancestor is not None and spans[ancestor].name != s.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            entry["total_s"] += s.end - s.start
    return out


# per-layer metric -> (span name, field of its summary); "trace.*" and
# "cli.import_s" come from the traced process's own clock.
LAYER_METRICS = {
    "scenario.parse_s": ("scenario.parse", "total_s"),
    "hilbert.build_context_s": ("hilbert.build_context", "total_s"),
    "measurement.return_s": ("measurement.return", "total_s"),
    "measurement.return.calls": ("measurement.return", "calls"),
    "measurement.transition_matrix_s": ("measurement.transition_matrix", "total_s"),
    "qnd.validate_gram_s": ("qnd.validate_gram", "total_s"),
    "qnd.validate_gram.calls": ("qnd.validate_gram", "calls"),
    "qnd.meter_return_s": ("qnd.meter_return", "total_s"),
    "qnd.meter_states_s": ("qnd.meter_states", "total_s"),
    "qnd.meter_chain_s": ("qnd.meter_chain", "total_s"),
    "trajectory.meter_entropy_s": ("trajectory.meter_entropy", "total_s"),
    "trajectory.ensemble_s": ("trajectory.ensemble", "total_s"),
    "trajectory.ensemble.samples": ("trajectory.ensemble", "units"),
    "trajectory.exhaustive_s": ("trajectory.exhaustive", "total_s"),
    "trajectory.entropy_production_s": ("trajectory.entropy_production", "total_s"),
    "trajectory.entropy_production.calls": ("trajectory.entropy_production", "calls"),
    "runner.run_scenario.self_s": ("runner.run_scenario", "self_s"),
    "runner.verify.self_s": ("runner.verify", "self_s"),
    "runner.sweep_rows.self_s": ("runner.sweep_rows", "self_s"),
    "runner.serialize_s": ("runner.serialize", "total_s"),
    "runner.report_bytes": ("runner.serialize", "units"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
COUNT_FIELDS = ("calls", "units")


def layer_metrics(traced: dict) -> tuple[dict[str, float], bool]:
    """Per-layer metrics from the traced process's output.

    Times are medians over the traced passes; counts come from the first
    pass.  The flag is False if a count differs between passes.
    """
    passes = traced["passes"]
    summaries = [summarize(p["spans"]) for p in passes]
    metrics: dict[str, float] = {}
    counts_repeat = True
    for metric, (name, field) in LAYER_METRICS.items():
        values = [s.get(name, {}).get(field, 0) for s in summaries]
        if field in COUNT_FIELDS:
            metrics[metric] = values[0]
            counts_repeat &= len(set(values)) == 1
        else:
            metrics[metric] = statistics.median(values)
    metrics["cli.import_s"] = traced["import_s"]
    metrics["trace.traced_wall_s"] = statistics.median(p["traced_s"] for p in passes)
    metrics["trace.untraced_wall_s"] = statistics.median(p["untraced_s"] for p in passes)
    metrics["trace.overhead_s"] = statistics.median(
        p["traced_s"] - p["untraced_s"] for p in passes
    )
    return metrics, counts_repeat
