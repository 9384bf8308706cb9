"""Main interpreter versus the naive reference, over random programs.

The acceptance suite runs the full thousand-program batch; this module keeps
a faster randomized sample plus a few handcrafted worst cases for day-to-day
development.
"""

import pytest

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import post_external_event
from coagent.bdi.plans import Act, Believe, Plan, PlanLibrary, Subgoal, Unbelieve
from coagent.bdi.reference import reference_step

from tests.helpers import assert_lockstep, equivalence_run, same_snapshot


@pytest.mark.parametrize("seed", range(0, 120))
def test_randomized_equivalence_sample(seed):
    equivalence_run(seed, cycles=20)


@pytest.mark.parametrize(
    "a, b",
    [
        (-0.0, 0.0),
        (True, 1),
        (1, 1.0),
        ((1,), [1]),
        ({"x": 1}, {"x": 1, "y": 2}),
        ([{"x": [1, 2]}], [{"x": [2, 1]}]),
        ({"x": {"y": False}}, {"x": {"y": 0}}),
    ],
)
def test_same_snapshot_is_type_strict(a, b):
    assert not same_snapshot(a, b)
    assert not same_snapshot(b, a)


def test_same_snapshot_ignores_dict_key_order():
    assert same_snapshot({"x": 1, "y": [0.5, None]}, {"y": [0.5, None], "x": 1})


def test_same_snapshot_rejects_non_json_values():
    with pytest.raises(TypeError):
        same_snapshot({"x": object(), "y": 1}, {"y": 1, "x": object()})


def _twin_agents(plans, beliefs, events):
    agents = []
    for _ in range(2):
        cfg = AgentConfiguration(
            "t", BeliefBase(dict(beliefs)), PlanLibrary(list(plans)), actions={"ping"}
        )
        for te in events:
            post_external_event(cfg, te)
        agents.append(cfg)
    return agents


def test_subgoal_chain_with_failure_cascade():
    plans = [
        Plan("outer", pattern("goal-added", "g1"), (Subgoal("g2", {}), Act("ping", {}))),
        Plan("mid", pattern("goal-added", "g2"), (Subgoal("g3", {}),)),
        Plan("bad", pattern("goal-added", "g3"), (Act("boom", {}),)),
    ]
    events = [TriggeringEvent(EventCategory.GOAL_ADDED, "g1", {})]
    main, ref = _twin_agents(plans, {}, events)
    assert_lockstep(main, ref, 220, right_step=reference_step)
    assert main.circumstance.intentions == {}


def test_dropped_subgoal_fails_waiting_parent():
    plans = [
        Plan("outer", pattern("goal-added", "g1"), (Subgoal("nohandler", {}),)),
    ]
    events = [TriggeringEvent(EventCategory.GOAL_ADDED, "g1", {})]
    main, ref = _twin_agents(plans, {}, events)
    assert_lockstep(main, ref, 220, right_step=reference_step)
    assert main.circumstance.intentions == {}
    dropped = [o for o in main.observations if o["kind"] == "event-discarded"]
    assert any(o["te"]["subject"] == "nohandler" for o in dropped)


def test_belief_triggered_interrupt_on_same_intention():
    # A belief event pairs with its producing intention; the handling plan
    # stacks on the same intention and must not disturb the base record.
    plans = [
        Plan(
            "base",
            pattern("goal-added", "g1"),
            (Believe("x", Expr("1")), Act("ping", {}), Act("ping", {})),
        ),
        Plan("react", pattern("belief-added", "x"), (Believe("y", Expr("10")),)),
    ]
    events = [TriggeringEvent(EventCategory.GOAL_ADDED, "g1", {})]
    main, ref = _twin_agents(plans, {}, events)
    assert_lockstep(main, ref, 220, right_step=reference_step)
    assert main.beliefs.as_dict() == {"x": 1, "y": 10}


def test_unbelieve_and_requeue_interleavings():
    plans = [
        Plan("a", pattern("goal-added", "g1"), (Believe("x", Expr("1")), Unbelieve("x"))),
        Plan("b", pattern("belief-removed", "x"), (Believe("y", Expr("2")),)),
    ]
    events = [
        TriggeringEvent(EventCategory.GOAL_ADDED, "g1", {}),
        TriggeringEvent(EventCategory.GOAL_ADDED, "g1", {}),
    ]
    main, ref = _twin_agents(plans, {"x": 0}, events)
    assert_lockstep(main, ref, 220, right_step=reference_step)


def test_concurrent_intentions_interleave_identically():
    body = (Believe("x", Expr("x + 1")), Act("ping", {}), Believe("x", Expr("x + 1")))
    plans = [Plan("inc", pattern("goal-added", None), body)]
    events = [
        TriggeringEvent(EventCategory.GOAL_ADDED, f"g{i}", {}) for i in range(4)
    ]
    main, ref = _twin_agents(plans, {"x": 0}, events)
    assert_lockstep(main, ref, 400, right_step=reference_step)
    assert main.beliefs.get("x") == 8
