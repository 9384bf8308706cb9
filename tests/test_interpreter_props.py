"""Interpreter-wide properties over randomized programs and event loads."""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coagent.bdi.config import AgentConfiguration, Step
from coagent.bdi.events import TOP, EventCategory, EventPattern, TriggeringEvent, pattern
from coagent.bdi.interpreter import (
    _remove_intention,
    post_external_event,
    reasoning_step,
    run_cycle,
    select_intention,
)
from coagent.bdi.plans import Act, Plan, PlanLibrary, PlanRecord, Subgoal
from coagent.bdi.reference import reference_step

from tests.conftest import instantiate, random_program
from tests.helpers import check_structural_invariants, run_traced


def stepped_agent(seed: int):
    rng = random.Random(seed)
    return instantiate(*random_program(rng))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_structural_invariants_hold_after_every_step(seed):
    """seq monotonicity, live intention references, pc bounds, Ap within R."""
    cfg = stepped_agent(seed)
    for _ in range(120):
        reasoning_step(cfg)
        check_structural_invariants(cfg)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_event_conservation(seed):
    """Every queued event is selected or discarded exactly once, never duplicated."""
    cfg = stepped_agent(seed)
    seen_seqs: set[int] = set()
    selected: list[int] = []
    for _ in range(200):
        before = {event.seq for event in cfg.circumstance.events}
        previous_epsilon = cfg.temp.epsilon
        reasoning_step(cfg)
        after = {event.seq for event in cfg.circumstance.events}
        assert not (before & seen_seqs - after - before), "resurrection"
        if cfg.temp.epsilon is not None and cfg.temp.epsilon is not previous_epsilon:
            seq = cfg.temp.epsilon.seq
            assert seq not in selected, "event selected twice"
            selected.append(seq)
        seen_seqs |= after
    # Whatever was ever selected is no longer in the queue.
    remaining = {event.seq for event in cfg.circumstance.events}
    assert remaining.isdisjoint(selected)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_cycle_closure(seed):
    """From ProcMsg, the cycle always wraps within nine steps, no step repeated."""
    cfg = stepped_agent(seed)
    for _ in range(20):
        assert cfg.step is Step.PROC_MSG
        visited = []
        for _ in range(9):
            visited.append(cfg.step)
            reasoning_step(cfg)
            if cfg.step is Step.PROC_MSG:
                break
        assert cfg.step is Step.PROC_MSG
        assert len(visited) == len(set(visited)), f"repeated step in {visited}"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_determinism(seed):
    """Identical configurations stepped identically yield identical traces."""
    rng = random.Random(seed)
    program = random_program(rng)
    first = instantiate(*program)
    second = instantiate(*program)
    assert run_traced(first, 90) == run_traced(second, 90)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_no_live_intention_keeps_a_finished_top(seed):
    """After every cycle, each live intention's top record waits on a
    subgoal or has a step left: ClrInt, which visits only the intention
    ExecInt ran, leaves no finished top behind."""
    cfg = stepped_agent(seed)
    for _ in range(40):
        run_cycle(cfg)
        for intention in cfg.circumstance.intentions.values():
            assert intention.stack
            top = intention.stack[-1]
            body = cfg.plans.by_id[top.plan_id].body
            assert top.waiting_on is not None or top.pc < len(body), (seed, intention)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_deepcopy_isolation(seed):
    """Stepping a copy never disturbs the original configuration."""
    cfg = stepped_agent(seed)
    for _ in range(30):
        reasoning_step(cfg)
    frozen = cfg.snapshot_json()
    clone = copy.deepcopy(cfg)
    for _ in range(30):
        reasoning_step(clone)
    assert cfg.snapshot_json() == frozen


def test_events_from_dead_intentions_repair_to_top():
    """An intention's leftover events re-pair with the empty intention."""
    from coagent.bdi.beliefs import BeliefBase
    from coagent.bdi.config import AgentConfiguration
    from coagent.bdi.events import EventCategory, TriggeringEvent, pattern
    from coagent.bdi.expressions import Expr
    from coagent.bdi.interpreter import post_external_event, run_cycle
    from coagent.bdi.plans import Believe, Plan, PlanLibrary

    # The plan writes two beliefs and finishes; its belief events survive it.
    plan = Plan(
        "writer",
        pattern("goal-added", "g"),
        (Believe("x", Expr("1")), Believe("y", Expr("2"))),
    )
    cfg = AgentConfiguration("a", BeliefBase(), PlanLibrary([plan]), actions=set())
    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    run_cycle(cfg)
    run_cycle(cfg)  # second step finishes the plan; the intention is removed
    assert cfg.circumstance.intentions == {}
    assert cfg.circumstance.events, "belief events should still be queued"
    assert all(event.intention is TOP for event in cfg.circumstance.events)


CATEGORIES = (
    EventCategory.GOAL_ADDED,
    EventCategory.GOAL_SUCCEEDED,
    EventCategory.BELIEF_UPDATED,
    EventCategory.MESSAGE_RECEIVED,
)
payloads = st.dictionaries(st.sampled_from(["k", "m"]), st.integers(0, 1), max_size=2)
triggers = st.builds(
    EventPattern,
    categories=st.none()
    | st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=2, unique=True).map(tuple),
    subject=st.sampled_from([None, "a", "ab", "b", "*", "a*", "ab*", "c*"]),
    payload=payloads,
)
events = st.builds(
    TriggeringEvent, st.sampled_from(CATEGORIES), st.sampled_from(["a", "ab", "b", "c"]), payloads
)


@given(st.lists(st.tuples(st.just("add"), triggers) | st.tuples(st.just("relevant"), events), max_size=40))
@settings(max_examples=200, deadline=None)
def test_indexed_relevance_equals_the_declaration_order_scan(operations):
    """Exact, prefix and any-subject triggers, payload constraints, and plans
    added after a lookup: the index answers as a scan of every plan would."""
    library = PlanLibrary()
    for index, (operation, value) in enumerate(operations):
        if operation == "add":
            library.add(Plan(f"p{index}", value, (Act("ping"),)))
        else:
            scan = [plan.plan_id for plan in library.in_order() if plan.trigger.matches(value)]
            assert library.relevant(value) == scan


# -- intention order and scheduling -------------------------------------------

#: ``ok`` succeeds through a subgoal; ``bad``'s subgoal runs an unknown action,
#: so the failure cascades up the stack; ``lost`` waits on a subgoal no plan
#: handles, whose discard fails the waiter.
ORDER_PLANS = (
    Plan("ok", pattern("goal-added", "ok"), (Subgoal("leaf"), Act("ping"))),
    Plan("leaf", pattern("goal-added", "leaf"), (Act("ping"),)),
    Plan("bad", pattern("goal-added", "bad"), (Subgoal("boom"), Act("ping"))),
    Plan("boom", pattern("goal-added", "boom"), (Act("explode"),)),
    Plan("lost", pattern("goal-added", "lost"), (Subgoal("nowhere"), Act("ping"))),
)

order_operations = st.lists(
    st.tuples(st.just("post"), st.sampled_from(["ok", "bad", "lost"]))
    | st.tuples(st.just("cycle"), st.integers(1, 3))
    | st.tuples(st.just("remove"), st.integers(0, 7)),
    max_size=40,
)


@given(order_operations)
@settings(max_examples=150, deadline=None)
def test_intentions_iterate_in_ascending_id_order(operations):
    """Creation, goal success, the failure cascade and dropping an intention
    interleaved: the circumstance's intentions stay in ascending id order."""
    cfg = AgentConfiguration("a", plans=PlanLibrary(list(ORDER_PLANS)), actions={"ping"})
    intentions = cfg.circumstance.intentions
    created = 0
    adoptable = sum(operation == "post" for operation, _ in operations)
    allocate = cfg.new_intention

    def new_intention():
        nonlocal created
        created += 1
        return allocate()

    cfg.new_intention = new_intention

    def cycle() -> None:
        run_cycle(cfg)
        assert list(intentions) == sorted(intentions)

    for operation, value in operations:
        if operation == "post":
            post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, value, {}))
        elif operation == "cycle":
            for _ in range(value):
                cycle()
        elif intentions:
            dropped = list(intentions)[value % len(intentions)]
            # Its queued subgoals re-pair with TOP: each one a plan handles
            # is adopted as a new intention.
            adoptable += sum(
                event.intention == dropped
                and event.te.category is EventCategory.GOAL_ADDED
                and bool(cfg.plans.relevant(event.te))
                for event in cfg.circumstance.events
            )
            _remove_intention(cfg, dropped)
        assert list(intentions) == sorted(intentions)
    for _ in range(1000):  # every goal runs to its end
        if not intentions and not cfg.circumstance.events:
            break
        cycle()
    assert not intentions
    assert created == adoptable


TOPS = ("runnable", "waiting", "finished")


@st.composite
def scheduled_agents(draw):
    """An agent at SelInt: intentions with gaps in their ids, each with one or
    two records whose top is runnable, waiting or finished; a random cursor."""
    plan = Plan("p", pattern("goal-added", "g"), (Act("ping"), Act("ping"), Act("ping")))
    cfg = AgentConfiguration("a", plans=PlanLibrary([plan]), actions={"ping"})
    goal = TriggeringEvent(EventCategory.GOAL_ADDED, "g", {})
    for _ in range(draw(st.integers(0, 6))):
        intention = cfg.new_intention()
        if draw(st.booleans()):
            _remove_intention(cfg, intention.intention_id)
            continue
        for _ in range(draw(st.integers(0, 1))):
            intention.stack.append(PlanRecord("p", goal, pc=0, waiting_on="g"))
        top = draw(st.sampled_from(TOPS))
        intention.stack.append(
            PlanRecord(
                "p",
                goal,
                pc=3 if top == "finished" else draw(st.integers(0, 2)),
                waiting_on="g" if top == "waiting" else None,
            )
        )
    cfg.last_intention_run = draw(st.none() | st.integers(0, 7))
    cfg.step = Step.SEL_INT
    return cfg


@given(scheduled_agents())
@settings(max_examples=300, deadline=None)
def test_intention_selection_equals_the_sorted_scan(cfg):
    """SelInt picks what the reference's scan over the sorted ids picks."""
    expected = reference_step(copy.deepcopy(cfg))
    select_intention(cfg)
    assert (cfg.step, cfg.temp.iota, cfg.last_intention_run) == (
        expected.step,
        expected.temp.iota,
        expected.last_intention_run,
    )
