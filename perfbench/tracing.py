"""Span tracing installed from outside the program, around calls into each layer.

``Tracer.install()`` replaces the module and class attributes the program
looks up at call time with timing wrappers; ``Tracer.restore()`` puts the
originals back.  The co-efficient selector must be wrapped before
``build_scenario``, because ``register_module`` stores the selector on each
agent when the endpoint modules are registered.

Each wrapper records one span -- name, start, end, parent span -- in
compact in-memory arrays, plus counts taken from the call's arguments and
result.  ``layer_metrics`` turns them into per-layer self times and counts
after the run; ``write_spans`` writes the raw spans out.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import coagent.coefficiency as coefficiency
import coagent.scenarios as scenarios
from coagent.bdi.expressions import Expr

#: Span name -> the per-layer metric its self time adds to.
SPAN_LAYER = {
    "tick": "scenarios.tick.self_s",
    "run_cycle": "bdi.run_cycle.self_s",
    "expr": "bdi.expr.s",
    "select_event_coefficient": "coefficiency.select.s",
    "resolve_mapping": "coefficiency.select.s",
    "eval_guard": "coefficiency.select.s",
    "tick_medium": "coordination.tick_medium.s",
    "endpoint_deliver": "coordination.deliver.s",
    "publish": "coordination.publish.s",
    "apply_demand": "scenarios.apply_demand.s",
    "snapshot_record": "scenarios.snapshot.s",
    "perform": "scenarios.perform.s",
}

#: Spans opened by the benchmark itself around whole pipeline stages; they
#: lie outside the simulate time and are reported as stage durations.
STAGE_METRIC = {
    "parse_scenario": "loader.parse_scenario.s",
    "build_scenario": "scenarios.build_scenario.s",
    "trace_rows": "scenarios.trace_rows.s",
}

#: The unattributed share of traced simulate time above which the traced
#: run fails: it means a span's self time escaped every reported metric.
UNATTRIBUTED_BOUND = 0.02


class Tracer:
    """In-memory span recorder with attribute-patching wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.idle_spans = array("i")
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """A timing wrapper for ``fn``.

        ``before(args)`` runs ahead of the span and returns a token;
        ``after(token, args, result, index)`` runs once the span has closed,
        outside its timed interval.
        """
        name_id = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(token, args, result, index)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the program's layer entry points; call before ``build_scenario``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        s, c = scenarios, coefficiency
        self._patch(s, "run_cycle", self.wrap("run_cycle", s.run_cycle, self._cycle_before, self._cycle_after))
        self._patch(s, "tick_medium", self.wrap("tick_medium", s.tick_medium, after=self._medium_after))
        self._patch(s, "endpoint_deliver", self.wrap("endpoint_deliver", s.endpoint_deliver, self._deliver_before, self._deliver_after))
        self._patch(s, "publish", self.wrap("publish", s.publish, after=self._counter("publish.calls")))
        self._patch(s, "apply_demand", self.wrap("apply_demand", s.apply_demand, after=self._counter("apply_demand.calls")))
        self._patch(s.SimulationState, "snapshot_record", self.wrap("snapshot_record", s.SimulationState.snapshot_record, after=self._counter("snapshot.calls")))
        self._patch(s.ScenarioEnvironment, "perform", self.wrap("perform", s.ScenarioEnvironment.perform, after=self._perform_after))
        self._patch(c, "select_event_coefficient", self.wrap("select_event_coefficient", c.select_event_coefficient, after=self._counter("select.calls")))
        self._patch(c, "resolve_mapping", self.wrap("resolve_mapping", c.resolve_mapping, after=self._resolve_after))
        self._patch(c, "eval_guard", self.wrap("eval_guard", c.eval_guard, after=self._guard_after))
        for method in ("evaluate", "as_condition", "as_value"):
            self._patch(Expr, method, self.wrap("expr", Expr.__dict__[method], after=self._counter("expr.evals")))
        original_init = Expr.__init__

        def counting_init(expr, source):
            self.count("expr.parses")
            original_init(expr, source)

        self._patch(Expr, "__init__", counting_init)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- count hooks ------------------------------------------------------------

    def _counter(self, key: str):
        def after(token, args, result, index):
            self.count(key)

        return after

    @staticmethod
    def _cycle_before(args) -> bool:
        cfg = args[0]
        return not cfg.mail.inbox and not cfg.circumstance.events and not cfg.circumstance.intentions

    def _cycle_after(self, idle, args, result, index) -> None:
        self.count("cycles")
        if idle:
            self.idle_spans.append(index)

    def _medium_after(self, token, args, result, index) -> None:
        self.count("tick_medium.calls")
        self.count("tick_medium.released", len(result[1]))

    @staticmethod
    def _deliver_before(args) -> int:
        return len(args[2].circumstance.events)

    def _deliver_after(self, queued, args, result, index) -> None:
        self.count("deliveries")
        if len(args[2].circumstance.events) > queued:
            self.count("deliver.injected")

    def _perform_after(self, token, args, result, index) -> None:
        self.count(f"perform.{args[2]}")

    def _resolve_after(self, token, args, result, index) -> None:
        if result is not None:
            self.count("observed")

    def _guard_after(self, token, args, result, index) -> None:
        self.count("guard.calls")
        if result:
            self.count("guard.true")

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total self time and total duration, in seconds."""
        child = array("d", bytes(8 * len(self.span_start)))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for index, name_id in enumerate(self.span_name):
            duration = ends[index] - starts[index]
            total_s[name_id] += duration
            self_s[name_id] += duration - child[index]
        return dict(zip(self.names, self_s)), dict(zip(self.names, total_s))

    def idle_cycle_seconds(self) -> float:
        starts, ends = self.span_start, self.span_end
        return sum(ends[index] - starts[index] for index in self.idle_spans)

    def write_spans(self, path: Path) -> None:
        """Write the spans as ``<path>.bin`` (raw arrays) and ``<path>.json`` (layout)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = [
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("start", self.span_start),
            ("end", self.span_end),
        ]
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, values in arrays:
                values.tofile(handle)
        layout = {
            "spans": len(self.span_start),
            "names": self.names,
            "arrays": [
                {"field": field, "typecode": values.typecode, "itemsize": values.itemsize}
                for field, values in arrays
            ],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, samples: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``samples`` carries what the repetition sampled between ticks from
    public state (queue depths, in-flight publications, observations), the
    simulation totals, and the traced simulate time.
    """
    self_s, total_s = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {name: 0.0 for name in set(SPAN_LAYER.values())}
    for span, value in self_s.items():
        if span in SPAN_LAYER:
            metrics[SPAN_LAYER[span]] += value
    for span, metric in STAGE_METRIC.items():
        metrics[metric] = total_s.get(span, 0.0)
    attributed = sum(metrics[name] for name in set(SPAN_LAYER.values()))

    publications = counts.get("publish.calls", 0)
    deliveries = counts.get("deliveries", 0)
    moves = samples["moves"] + samples["rejected_moves"]
    switches = samples["switches"] + samples["rejected_switches"]
    metrics.update(
        {
            "coordination.publications": publications,
            "coordination.deliveries": deliveries,
            "coordination.fanout": _ratio(deliveries, publications),
            "coordination.deliver.injected": counts.get("deliver.injected", 0),
            "coordination.deliver.useful_ratio": _ratio(counts.get("deliver.injected", 0), deliveries),
            "coordination.in_flight.max": samples["in_flight_max"],
            "bdi.cycles": counts.get("cycles", 0),
            "bdi.cycles_idle": len(tracer.idle_spans),
            "bdi.idle_cycle.s": tracer.idle_cycle_seconds(),
            "bdi.queue_depth.max": samples["queue_depth_max"],
            "bdi.queue_depth.end_sum": samples["queue_depth_end_sum"],
            "bdi.expr.evals": counts.get("expr.evals", 0),
            "bdi.expr.parses": counts.get("expr.parses", 0),
            "coefficiency.select.calls": counts.get("select.calls", 0),
            "coefficiency.observed": counts.get("observed", 0),
            "coefficiency.injected": counts.get("guard.true", 0),
            "coefficiency.inject_ratio": _ratio(counts.get("guard.true", 0), counts.get("observed", 0)),
            "scenarios.actions.relocate": counts.get("perform.relocate", 0),
            "scenarios.actions.reallocate": counts.get("perform.reallocate", 0),
            "scenarios.actions.publish": counts.get("perform.coord.publish", 0),
            "scenarios.moves.attempted": moves,
            "scenarios.moves.accept_ratio": _ratio(samples["moves"], moves),
            "scenarios.switches.attempted": switches,
            "scenarios.switches.accept_ratio": _ratio(samples["switches"], switches),
            "mem.observations": samples["observations"],
            "trace.spans": len(tracer.span_start),
            "trace.unattributed_share": _ratio(
                abs(samples["simulate_s"] - attributed), samples["simulate_s"]
            ),
        }
    )
    return metrics


def accounting_errors(tracer: Tracer, metrics: dict[str, float], samples: dict) -> list[str]:
    """Why the trace cannot be trusted, or an empty list.

    Self times always sum to the tick spans by construction, so the
    unattributed share only catches a span left out of every metric.  A
    wrapper that was never installed -- such as a selector patched after
    ``build_scenario`` -- leaves its time inside its caller's self time, so
    each wrapper is also checked against a call count the program's
    structure fixes.
    """
    counts = tracer.counts
    ticks, agents, media = samples["ticks"], samples["agents"], samples["media"]
    expected = {
        "run_cycle calls": (metrics["bdi.cycles"], agents * ticks),
        "select_event_coefficient calls": (metrics["coefficiency.select.calls"], agents * ticks),
        "apply_demand calls": (counts.get("apply_demand.calls", 0), ticks),
        "snapshot_record calls": (counts.get("snapshot.calls", 0), ticks),
        "tick_medium calls": (counts.get("tick_medium.calls", 0), ticks * media),
        "endpoint_deliver calls": (metrics["coordination.deliveries"], counts.get("tick_medium.released", 0)),
        "publish calls": (metrics["coordination.publications"], metrics["scenarios.actions.publish"]),
        "eval_guard calls": (counts.get("guard.calls", 0), metrics["coefficiency.observed"]),
        "expression parses": (metrics["bdi.expr.parses"] > 0, True),
        "expression evaluations": (metrics["bdi.expr.evals"] > 0, True),
    }
    errors = [
        f"{what}: traced {got}, expected {want}"
        for what, (got, want) in expected.items()
        if got != want
    ]
    if metrics["trace.unattributed_share"] > UNATTRIBUTED_BOUND:
        errors.append(
            f"unattributed share {metrics['trace.unattributed_share']:.4f} of traced "
            f"simulate time exceeds {UNATTRIBUTED_BOUND}"
        )
    return errors
