"""Edge cases of the configuration machinery and the public import surface."""

import dataclasses

import pytest

import coagent
from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import (
    AgentConfiguration,
    Circumstance,
    ConfigurationCorruption,
    MailState,
    Step,
    TempInfo,
)
from coagent.bdi.events import EventCategory, TriggeringEvent, pattern
from coagent.bdi.interpreter import (
    add_intended_means,
    execute_intention,
    run_cycle,
)
from coagent.bdi.plans import Act, Plan, PlanLibrary


def test_public_surface_importable():
    for name in coagent.__all__:
        assert getattr(coagent, name) is not None


def test_add_intended_means_dangling_intention_is_corruption():
    cfg = AgentConfiguration(
        "a",
        plans=PlanLibrary([Plan("p", pattern("goal-added", "g"), (Act("x", {}),))]),
        actions={"x"},
    )
    # Forge an event referencing an intention id that never existed.
    cfg.append_event(TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}), 99)
    cfg.step = Step.SEL_EV
    from coagent.bdi.interpreter import compute_relevant_plans, select_applicable, select_event
    from coagent.bdi.interpreter import compute_applicable_plans

    select_event(cfg)
    compute_relevant_plans(cfg)
    compute_applicable_plans(cfg)
    select_applicable(cfg)
    with pytest.raises(ConfigurationCorruption, match="missing intention"):
        add_intended_means(cfg)


def test_run_cycle_requires_proc_msg():
    cfg = AgentConfiguration("a", actions=set())
    cfg.step = Step.SEL_EV
    with pytest.raises(ValueError, match="ProcMsg"):
        run_cycle(cfg)


def test_execute_intention_without_selection_is_corruption():
    cfg = AgentConfiguration("a", actions=set())
    cfg.step = Step.EXEC_INT
    with pytest.raises(ConfigurationCorruption):
        execute_intention(cfg)


def test_step_mismatch_is_corruption():
    cfg = AgentConfiguration("a", actions=set())
    assert cfg.step is Step.PROC_MSG
    with pytest.raises(ConfigurationCorruption, match="expected step"):
        execute_intention(cfg)


def test_environment_fault_fails_plan_but_not_the_agent():
    class Flaky:
        def perform(self, cfg, action, args):
            from coagent.bdi.config import ActionFault

            raise ActionFault("downstream unavailable")

    cfg = AgentConfiguration(
        "a",
        plans=PlanLibrary([Plan("p", pattern("goal-added", "g"), (Act("x", {}),))]),
        actions={"x"},
        environment=Flaky(),
    )
    from coagent.bdi.interpreter import post_external_event

    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    run_cycle(cfg)  # must not raise
    assert cfg.circumstance.intentions == {}
    assert any(o["kind"] == "plan-failed" for o in cfg.observations)


def test_an_empty_belief_base_passed_in_is_kept():
    # An empty base is falsy; the configuration keeps it all the same, so
    # the caller's base sees the agent's later writes.
    base = BeliefBase()
    cfg = AgentConfiguration("a", beliefs=base)
    assert cfg.beliefs is base
    cfg.write_belief("x", 1)
    assert base.as_dict() == {"x": 1}


def test_a_falsy_environment_passed_in_is_kept():
    class Recorder(list):  # empty, so falsy
        def perform(self, cfg, action, args):
            self.append(action)

    env = Recorder()
    cfg = AgentConfiguration(
        "a",
        plans=PlanLibrary([Plan("p", pattern("goal-added", "g"), (Act("x", {}),))]),
        actions={"x"},
        environment=env,
    )
    assert cfg.environment is env
    from coagent.bdi.interpreter import post_external_event

    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    run_cycle(cfg)
    assert env == ["x"]


def test_per_agent_records_are_slotted_and_start_empty():
    cfg = AgentConfiguration("a", actions=["x"])
    other = AgentConfiguration("b")
    records = {"circumstance": Circumstance, "mail": MailState, "temp": TempInfo}
    for name, kind in records.items():
        record = getattr(cfg, name)
        assert type(record) is kind and not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1
        # As built by keyword, with the declared defaults.
        assert record == (kind(actions=frozenset({"x"})) if kind is Circumstance else kind())
        for field in dataclasses.fields(kind):
            value = getattr(record, field.name)
            if isinstance(value, (list, dict)):
                assert value is not getattr(getattr(other, name), field.name)
