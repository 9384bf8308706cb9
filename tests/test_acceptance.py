"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines on the terminal.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

from coagent.bdi.config import AgentConfiguration, Step
from coagent.bdi.events import TOP, EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import post_external_event, reasoning_step
from coagent.bdi.plans import Act, Plan, PlanLibrary, PlanRecord
from coagent.cli import main
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    Placement,
    register_module,
    select_event_coefficient,
)
from coagent.coordination import (
    CoordinationMedium,
    EndpointDeclaration,
    attach_endpoint,
    publish,
    tick_medium,
)
from coagent.loader import load_scenario
from coagent.scenarios import build_scenario, quiescence_tick, run_simulation

from tests.conftest import SCENARIO_A, SCENARIO_B, instantiate, random_program
from tests.helpers import (
    assert_lockstep,
    check_structural_invariants,
    check_trace_safety,
    equivalence_run,
    first_capacity_delivery_tick,
)


def report(line: str) -> None:
    print(line, flush=True)


class TestCriterion1SemanticsOracle:
    def test_thousand_random_programs_agree_with_reference(self):
        """1000 random small programs, exact trace equality, under 30 s."""
        started = time.perf_counter()
        for seed in range(1000):
            equivalence_run(seed, cycles=20)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle batch took {elapsed:.1f}s"
        report(
            f"PASS criterion 1: 1000/1000 random programs trace-identical to the "
            f"reference interpreter in {elapsed:.1f}s (< 30s)"
        )


def _observed_agent(guard, placement=Placement.NEW_INTENTION, plans=()):
    cfg = AgentConfiguration("a", plans=PlanLibrary(plans), actions=set())
    cfg.beliefs.set("deployed", 1)
    cfg.beliefs.set("capacity", 5)
    module = CoefficientModule(
        "obs",
        mapping=[
            EventMappingEntry(
                observe=pattern("belief-updated", "load"),
                inject=EventTemplate(EventCategory.GOAL_ADDED, "mapped", {}),
                placement=placement,
                guard=guard,
            )
        ],
    )
    register_module(cfg, module)
    return cfg


class TestCriterion2SelectionRuleBranches:
    def test_all_branches_of_the_extended_selection_rule(self):
        """Every outcome of the guarded-injection selection rule."""
        hit = set()

        # Branch: empty queue behaves as the skip rule.
        cfg = _observed_agent(guard=None)
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        assert cfg.step is Step.SEL_INT
        hit.add("empty")

        # Branch: observed event, guard true -> exactly one injection.
        cfg = _observed_agent(guard=Expr("deployed < capacity"))
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        cfg.step = Step.SEL_EV
        queue = len(cfg.circumstance.events)
        select_event_coefficient(cfg)
        assert cfg.temp.epsilon is not None and cfg.temp.epsilon.te.subject == "load"
        assert len(cfg.circumstance.events) == queue  # one out, one in
        (injected,) = cfg.circumstance.events
        assert injected.te.subject == "mapped" and injected.intention is TOP
        hit.add("observed-guard-true")

        # Placement: current-intention pairs with the selected event's intention.
        cfg = _observed_agent(
            guard=None,
            placement=Placement.CURRENT_INTENTION,
            plans=[Plan("h", pattern("goal-added", "mapped"), (Act("noop", {}),))],
        )
        intention = cfg.new_intention()
        intention.stack.append(
            PlanRecord("h", TriggeringEvent(EventCategory.GOAL_ADDED, "seed", {}))
        )
        cfg.append_event(
            TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}), intention.intention_id
        )
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        (injected,) = cfg.circumstance.events
        assert injected.intention == intention.intention_id
        hit.add("placement-current")

        # Branch: observed event, guard false -> removal only.
        cfg = _observed_agent(guard=Expr("deployed > capacity"))
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        assert cfg.circumstance.events == []
        assert cfg.temp.epsilon is not None and cfg.step is Step.REL_PL
        hit.add("observed-guard-false")

        # Branch: unobserved event is step-identical to plain selection.
        from coagent.bdi.interpreter import select_event

        observed = _observed_agent(guard=None)
        plain = _observed_agent(guard=None)
        plain.select_event_override = None
        plain.mapping.clear()
        plain.modules.clear()
        te = TriggeringEvent(EventCategory.GOAL_ADDED, "unrelated", {})
        for candidate in (observed, plain):
            post_external_event(candidate, te)
            candidate.step = Step.SEL_EV
        select_event_coefficient(observed)
        select_event(plain)
        assert observed.snapshot_json() == plain.snapshot_json()
        hit.add("unobserved")

        assert hit == {
            "empty",
            "observed-guard-true",
            "placement-current",
            "observed-guard-false",
            "unobserved",
        }
        report(
            "PASS criterion 2: all branches of the guarded-injection selection rule "
            "exercised (injection+placement, removal-only, fall-through, empty queue)"
        )


class TestCriterion3BaselineBisimulation:
    def test_empty_rule_set_endpoints_preserve_traces(self):
        """100 random programs; empty endpoints leave traces byte-identical."""
        for seed in range(100):
            rng = random.Random(seed)
            program = random_program(rng)
            bare = instantiate(*program)
            hosted = instantiate(*program)
            noop = EndpointDeclaration(process_id="noop", role="service")
            attach_endpoint(noop, hosted)
            assert_lockstep(bare, hosted, 150, label=f"seed {seed}: ")
        report(
            "PASS criterion 3: empty-rule-set endpoints byte-identical to bare agents "
            "over 100 random programs"
        )


class TestCriterion4ScenarioA:
    def test_server_utilization_reconstruction(self):
        """2 servers, (5,1) start: quiescent with zero underloaded in 200 ticks."""
        started = time.perf_counter()
        config = load_scenario(SCENARIO_A)
        assert config.seed == 0 and config.media["capacity"] == 1
        state = build_scenario(config)
        trace = run_simulation(state, 200, seed=0)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"scenario A took {elapsed:.1f}s"
        q = quiescence_tick(trace)
        assert q is not None and q <= 200
        for record in trace:
            if record.tick >= q:
                assert record.moves == 0
        assert trace[-1].underloaded == 0
        check_trace_safety(trace, config)
        report(
            f"PASS criterion 4: scenario A quiescent at tick {q} with underloaded=0, "
            f"conservation and capacity safe at every tick, {elapsed:.2f}s (< 5s)"
        )


class TestCriterion5ScenarioB:
    def test_demand_balancing_reconstruction(self):
        """10 servers, 5 types, spike at tick 10: one wave, reinforcement, safety."""
        started = time.perf_counter()
        config = load_scenario(SCENARIO_B)
        assert config.uniqueness_constraint and config.significance_threshold == 0.5
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks, seed=config.seed)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"scenario B took {elapsed:.1f}s"
        waves = sum(record.publications.get("demand-change", 0) for record in trace)
        assert waves == 1, f"expected exactly one demand publication, saw {waves}"
        q = quiescence_tick(trace)
        assert q is not None
        counts = [record.type_counts(state.types)["type-1"] for record in trace]
        assert counts[q] > counts[10]
        window = counts[10 : q + 1]
        assert all(a <= b for a, b in zip(window, window[1:]))
        check_trace_safety(trace, config)
        report(
            f"PASS criterion 5: scenario B fired one demand wave; type-1 deployments "
            f"{counts[10]} -> {counts[q]} non-decreasing to quiescence at tick {q}; "
            f"uniqueness and capacity safe; {elapsed:.2f}s (< 10s)"
        )


class TestCriterion6Determinism:
    @staticmethod
    def _hash(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("scenario", [SCENARIO_A, SCENARIO_B], ids=["a", "b"])
    def test_identical_seeds_identical_trace_bytes(self, scenario, tmp_path):
        first, second, third = (tmp_path / name for name in ("r1", "r2", "r3"))
        for out in (first, second):
            code = main(
                ["run", "--scenario", str(scenario), "--seed", "3", "--out", str(out)]
            )
            assert code == 0
        assert self._hash(first / "trace.csv") == self._hash(second / "trace.csv")
        # A different seed must still run cleanly; its bytes may differ.
        assert (
            main(["run", "--scenario", str(scenario), "--seed", "4", "--out", str(third)])
            == 0
        )
        report(
            f"PASS criterion 6: {scenario.name} trace bytes identical across runs "
            "with the same seed"
        )


class TestCriterion7InvariantSuite:
    def test_module_invariants_checklist(self):
        """Every module-level invariant re-checked in one place."""
        checks: list[str] = []

        # bdi-core: structural invariants under randomized load.
        for seed in range(40):
            rng = random.Random(10_000 + seed)
            cfg = instantiate(*random_program(rng))
            for _ in range(150):
                reasoning_step(cfg)
                check_structural_invariants(cfg)
        checks.append("bdi-core: seq monotonicity, live references, pc bounds, Ap within R")

        # bdi-core: cycle closure.
        cfg = AgentConfiguration("idle", actions=set())
        for _ in range(9):
            reasoning_step(cfg)
        assert cfg.step is Step.PROC_MSG
        checks.append("bdi-core: cycle closure")

        # bdi-core: determinism.
        rng = random.Random(777)
        program = random_program(rng)
        first, second = instantiate(*program), instantiate(*program)
        assert_lockstep(first, second, 180)
        checks.append("bdi-core: determinism")

        # coefficiency: empty-K bisimulation, injection count, placement.
        rng = random.Random(778)
        program = random_program(rng)
        bare, hosted = instantiate(*program), instantiate(*program)
        register_module(hosted, CoefficientModule("noop"))
        assert_lockstep(bare, hosted, 150)
        checks.append("coefficiency: empty-mapping bisimulation")

        cfg = _observed_agent(guard=None)
        post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {}))
        before = len(cfg.circumstance.events)
        cfg.step = Step.SEL_EV
        select_event_coefficient(cfg)
        injected = [e for e in cfg.circumstance.events if e.te.subject == "mapped"]
        assert len(injected) == 1 and injected[0].intention is TOP
        assert cfg.temp.epsilon.te.subject == "load"  # non-interference
        checks.append("coefficiency: at most one injection, placement, non-interference")

        # coordination: delivery completeness, latency bound, no self-delivery.
        medium = CoordinationMedium("t", latency=2)
        for host_id in ("h1", "h2", "h3"):
            medium.subscribe(f"{host_id}/e", host_id)
        from coagent.coordination import CoordinationInformation

        publish(
            medium,
            CoordinationInformation("p", "t", {"n": 1}, source="h1", publish_tick=0),
            now=0,
        )
        _, early = tick_medium(medium, now=1)
        assert early == []  # nothing before publish+latency
        _, due = tick_medium(medium, now=2)
        assert sorted(e for e, _ in due) == ["h2/e", "h3/e"]
        _, late = tick_medium(medium, now=3)
        assert late == []  # item not retained past its due tick
        checks.append("coordination: completeness, latency bound, no self-delivery")

        # coordination: separation (empty endpoints, trace equality) is
        # criterion 3; process isolation over two endpoints.
        host = AgentConfiguration("srv", actions=set())
        host.beliefs.set("server", "srv")
        host.beliefs.set("deployed", 1)
        host.beliefs.set("capacity", 5)
        host.beliefs.set("preferred_min", 3)
        from coagent.coordination import PublicationRule

        decl1 = EndpointDeclaration(
            process_id="p1",
            role="server",
            publications=(
                PublicationRule(observe=pattern("belief-updated", "deployed"), topic="t1"),
            ),
        )
        decl2 = EndpointDeclaration(
            process_id="p2",
            role="server",
            publications=(
                PublicationRule(observe=pattern("belief-updated", "capacity"), topic="t2"),
            ),
        )
        ep1 = attach_endpoint(decl1, host)
        ep2 = attach_endpoint(decl2, host)
        assert ep1.decl.module.module_id != ep2.decl.module.module_id
        assert set(host.mapping) == {"ep.p1", "ep.p2"}
        checks.append("coordination: process isolation")

        # scenarios: conservation, capacity, uniqueness, polarity, reinforcement,
        # seed determinism.
        config_a = load_scenario(SCENARIO_A)
        state_a = build_scenario(config_a)
        trace_a = run_simulation(state_a, config_a.ticks, seed=0)
        check_trace_safety(trace_a, config_a)
        start = first_capacity_delivery_tick(state_a)
        previous = None
        for record in trace_a:
            if record.tick < start:
                continue
            if record.rejected_moves:
                previous = record.underloaded
                continue
            if previous is not None:
                assert record.underloaded <= previous
            previous = record.underloaded
        checks.append("scenarios: conservation, capacity safety, loop polarity")

        config_b = load_scenario(SCENARIO_B)
        trace_b = run_simulation(build_scenario(config_b), config_b.ticks, seed=0)
        check_trace_safety(trace_b, config_b)
        trace_b2 = run_simulation(
            build_scenario(load_scenario(SCENARIO_B)), config_b.ticks, seed=0
        )
        assert trace_b == trace_b2
        checks.append("scenarios: uniqueness safety, reinforcement window, seed determinism")

        for line in checks:
            report(f"  - invariant group green: {line}")
        report(f"PASS criterion 7: {len(checks)} invariant groups encoded and green")
