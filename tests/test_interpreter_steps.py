"""Per-step behavior of the reasoning cycle, one class per transition."""

import copy
import dataclasses
import itertools

import pytest

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration, Message, Step
from coagent.bdi.events import TOP, Event, EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import (
    _remove_intention,
    add_intended_means,
    clear_intention,
    compute_applicable_plans,
    compute_relevant_plans,
    execute_intention,
    post_external_event,
    process_messages,
    reasoning_step,
    run_cycle,
    select_applicable,
    select_event,
    select_intention,
)
from coagent.bdi.plans import Act, Believe, Plan, PlanLibrary, Subgoal


def agent(plans=(), beliefs=None, actions=("ping",)) -> AgentConfiguration:
    return AgentConfiguration(
        "a",
        beliefs=BeliefBase(dict(beliefs or {})),
        plans=PlanLibrary(list(plans)),
        actions=set(actions),
    )


def goal(subject, payload=None):
    return TriggeringEvent(EventCategory.GOAL_ADDED, subject, dict(payload or {}))


def step_to(cfg, step):
    guard = 0
    while cfg.step is not step:
        reasoning_step(cfg)
        guard += 1
        assert guard < 50, f"never reached {step}"
    return cfg


class TestSelectEvent:
    def test_empty_queue_skips_to_intention_selection(self, idle_agent):
        idle_agent.step = Step.SEL_EV
        before = idle_agent.snapshot()
        select_event(idle_agent)
        assert idle_agent.step is Step.SEL_INT
        after = idle_agent.snapshot()
        before.pop("step"), after.pop("step")
        assert before == after  # unchanged except the step

    def test_singleton_forces_the_choice(self):
        cfg = agent()
        cfg.step = Step.SEL_EV
        event = cfg.append_event(goal("g1"), TOP)
        select_event(cfg)
        assert cfg.temp.epsilon == event
        assert cfg.circumstance.events == []
        assert cfg.step is Step.REL_PL

    def test_fifo_pick_against_enumeration_oracle(self):
        # Oracle: enumerate both posting orders; the selected event must be
        # the one with the lowest sequence number in each.
        for first, second in itertools.permutations(["te1", "te2"]):
            cfg = agent()
            e1 = cfg.append_event(goal(first), TOP)
            e2 = cfg.append_event(goal(second), 0 if False else TOP)
            cfg.step = Step.SEL_EV
            select_event(cfg)
            oracle_choice = min([e1, e2], key=lambda event: event.seq)
            assert cfg.temp.epsilon == oracle_choice
            assert [event.seq for event in cfg.circumstance.events] == [e2.seq]


class TestComputeRelevantPlans:
    def test_pattern_match_selects_matching_plan_only(self):
        matching = Plan("pm", pattern("goal-added", "g1"), (Act("ping", {}),))
        other = Plan("po", pattern("goal-added", "g2"), (Act("ping", {}),))
        cfg = agent([matching, other])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.REL_PL)
        compute_relevant_plans(cfg)
        assert cfg.temp.relevant == ["pm"]
        assert cfg.step is Step.APPL_PL

    def test_no_match_drops_event_not_requeued(self):
        cfg = agent([Plan("p", pattern("goal-added", "other"), (Act("ping", {}),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.REL_PL)
        compute_relevant_plans(cfg)
        assert cfg.temp.relevant == []
        assert cfg.temp.epsilon is None
        assert cfg.step is Step.SEL_INT
        # Oracle check: the event is gone for good, not re-queued.
        assert cfg.circumstance.events == []
        assert cfg.observations[-1]["kind"] == "event-discarded"

    def test_wildcard_payload_trigger_matches_any_payload(self):
        plan = Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))
        cfg = agent([plan])
        post_external_event(cfg, goal("g1", {"anything": 42}))
        step_to(cfg, Step.REL_PL)
        compute_relevant_plans(cfg)
        assert cfg.temp.relevant == ["p"]


class TestComputeApplicablePlans:
    def test_tautological_context_keeps_all_relevant(self):
        plans = [
            Plan("p1", pattern("goal-added", "g1"), (Act("ping", {}),), Expr("true")),
            Plan("p2", pattern("goal-added", "g1"), (Act("ping", {}),), Expr("true")),
        ]
        cfg = agent(plans)
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.APPL_PL)
        compute_applicable_plans(cfg)
        assert cfg.temp.applicable == cfg.temp.relevant == ["p1", "p2"]

    def test_context_filters_on_beliefs(self):
        plan = Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),), Expr("deployed < 5"))
        cfg = agent([plan], beliefs={"deployed": 5})
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.APPL_PL)
        compute_applicable_plans(cfg)
        assert cfg.temp.applicable == []
        assert cfg.step is Step.SEL_INT  # event discarded

    def test_contexts_evaluated_independently_oracle(self):
        # Oracle: evaluate both context expressions directly against the
        # belief base; Ap must equal exactly the plans whose context is true.
        beliefs = {"x": 2}
        c1, c2 = Expr("x > 3"), Expr("x <= 3")
        plans = [
            Plan("p1", pattern("goal-added", "g1"), (Act("ping", {}),), c1),
            Plan("p2", pattern("goal-added", "g1"), (Act("ping", {}),), c2),
        ]
        cfg = agent(plans, beliefs=beliefs)
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.APPL_PL)
        compute_applicable_plans(cfg)
        expected = [p.plan_id for p in plans if p.context.as_condition(beliefs, goal("g1"))]
        assert cfg.temp.applicable == expected == ["p2"]


class TestSelectApplicable:
    def test_singleton(self):
        cfg = agent([Plan("p2", pattern("goal-added", "g1"), (Act("ping", {}),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.SEL_APPL)
        select_applicable(cfg)
        assert cfg.temp.rho == "p2"
        assert cfg.step is Step.ADD_IM

    def test_declaration_order_tie_break(self):
        # Oracle: the applicable plan with the lowest declaration index wins.
        plans = [
            Plan("p1", pattern("goal-added", "g1"), (Act("ping", {}),)),
            Plan("p2", pattern("goal-added", "g2"), (Act("ping", {}),)),
            Plan("p3", pattern("goal-added", "g1"), (Act("ping", {}),)),
        ]
        cfg = agent(plans)
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.SEL_APPL)
        assert cfg.temp.applicable == ["p1", "p3"]
        select_applicable(cfg)
        indexes = {p.plan_id: i for i, p in enumerate(plans)}
        assert cfg.temp.rho == min(cfg.temp.applicable, key=indexes.get) == "p1"


class TestAddIntendedMeans:
    def test_external_event_creates_fresh_intention(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.ADD_IM)
        assert len(cfg.circumstance.intentions) == 0
        add_intended_means(cfg)
        assert len(cfg.circumstance.intentions) == 1
        (intention,) = cfg.circumstance.intentions.values()
        assert len(intention.stack) == 1
        assert cfg.temp.rho is None and cfg.temp.epsilon is None
        assert cfg.step is Step.SEL_INT

    def test_internal_event_pushes_on_existing_stack(self):
        plans = [
            Plan("outer", pattern("goal-added", "g1"), (Subgoal("g2", {}),)),
            Plan("inner", pattern("goal-added", "g2"), (Act("ping", {}),)),
        ]
        cfg = agent(plans)
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)  # posts the subgoal from the new intention
        (intention,) = cfg.circumstance.intentions.values()
        assert len(intention.stack) == 1
        step_to(cfg, Step.ADD_IM)
        add_intended_means(cfg)
        assert len(intention.stack) == 2

    def test_two_external_events_two_distinct_intentions(self):
        # Oracle: replay and count; ids must be distinct.
        cfg = agent([Plan("p", pattern("goal-added", None), (Act("ping", {}),))])
        post_external_event(cfg, goal("g1"))
        post_external_event(cfg, goal("g2"))
        run_cycle(cfg)
        run_cycle(cfg)
        started = [o for o in cfg.observations if o["kind"] == "plan-started"]
        assert len(started) == 2
        assert started[0]["intention"] != started[1]["intention"]

    def test_plan_started_goes_to_observation_stream_not_events(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.ADD_IM)
        add_intended_means(cfg)
        assert all(
            event.te.category is not EventCategory.PLAN_STARTED
            for event in cfg.circumstance.events
        )
        assert cfg.observations[-1]["kind"] == "plan-started"


class TestSelectIntention:
    def test_no_intentions_wraps_to_message_processing(self, idle_agent):
        idle_agent.step = Step.SEL_INT
        select_intention(idle_agent)
        assert idle_agent.step is Step.PROC_MSG
        assert idle_agent.temp.iota is None

    def test_singleton(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}), Act("ping", {})))])
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)
        (iid,) = cfg.circumstance.intentions
        step_to(cfg, Step.SEL_INT)
        select_intention(cfg)
        assert cfg.temp.iota == iid

    def test_round_robin_cursor_oracle(self):
        # Two long-lived intentions; the scheduled ids must follow the
        # simulated round-robin cursor exactly.
        body = tuple(Act("ping", {}) for _ in range(6))
        cfg = agent([Plan("p", pattern("goal-added", None), body)])
        post_external_event(cfg, goal("g1"))
        post_external_event(cfg, goal("g2"))
        run_cycle(cfg)
        run_cycle(cfg)
        ids = sorted(cfg.circumstance.intentions)
        assert len(ids) == 2
        scheduled = []
        for _ in range(4):
            step_to(cfg, Step.SEL_INT)
            select_intention(cfg)
            scheduled.append(cfg.temp.iota)
            step_to(cfg, Step.PROC_MSG)
        # Oracle: from the first observed pick, simulate the cursor.
        cursor = scheduled[0]
        expected = [cursor]
        for _ in range(3):
            following = [iid for iid in ids if iid > cursor]
            cursor = following[0] if following else ids[0]
            expected.append(cursor)
        assert scheduled == expected
        assert set(scheduled) == set(ids)  # both intentions get turns


class TestExecuteIntention:
    def test_believe_absent_key_emits_belief_added_paired_with_intention(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Believe("x", Expr("3")),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.EXEC_INT)
        iota = cfg.temp.iota
        execute_intention(cfg)
        (event,) = cfg.circumstance.events
        assert event.te == TriggeringEvent(EventCategory.BELIEF_ADDED, "x", {"value": 3})
        assert event.intention == iota

    def test_subgoal_event_associated_with_current_intention(self):
        # Follow-up events pair with the intention that produced them.
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Subgoal("g2", {"v": Expr("1")}),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.EXEC_INT)
        iota = cfg.temp.iota
        execute_intention(cfg)
        (event,) = cfg.circumstance.events
        assert event.te == goal("g2", {"v": 1})
        assert event.intention == iota
        (intention,) = cfg.circumstance.intentions.values()
        assert intention.stack[-1].waiting_on == "g2"

    def test_unknown_action_fails_plan_and_propagates(self):
        # Oracle: two-plan program; the inner plan's action fault must fail
        # the inner plan, emit goal-failed, and cascade into the outer plan.
        plans = [
            Plan("outer", pattern("goal-added", "g1"), (Subgoal("g2", {}),)),
            Plan("inner", pattern("goal-added", "g2"), (Act("missing", {}),)),
        ]
        cfg = agent(plans, actions=("ping",))
        post_external_event(cfg, goal("g1"))
        for _ in range(6):
            run_cycle(cfg)
        assert any(o["kind"] == "plan-failed" for o in cfg.observations)
        failed_subjects = [
            o["te"]["subject"]
            for o in cfg.observations
            if o["kind"] == "event-discarded" and o["te"]["category"] == "goal-failed"
        ]
        # Both the inner goal and the outer goal failed; the whole intention died.
        assert "g2" in failed_subjects and "g1" in failed_subjects
        assert cfg.circumstance.intentions == {}

    def test_send_moves_message_to_outbox(self):
        from coagent.bdi.plans import Send

        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Send("peer", {"v": Expr("1")}),))])
        post_external_event(cfg, goal("g1"))
        step_to(cfg, Step.EXEC_INT)
        execute_intention(cfg)
        (message,) = cfg.mail.outbox
        assert message == Message("a", "peer", {"v": 1})

    def test_exactly_one_body_step_per_cycle(self):
        cfg = agent(
            [Plan("p", pattern("goal-added", "g1"), (Believe("x", Expr("1")), Believe("y", Expr("2"))))]
        )
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)  # cycle 1: plan adopted and first step runs
        assert cfg.beliefs.as_dict() == {"x": 1}
        run_cycle(cfg)
        assert cfg.beliefs.as_dict() == {"x": 1, "y": 2}


class TestClearIntention:
    def test_finished_single_record_removes_intention(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))])
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)
        assert cfg.circumstance.intentions == {}

    def test_goal_succeeded_unblocks_the_record_below(self):
        # Oracle: replay a subgoal chain end to end; the outer plan must
        # resume and complete after the inner plan finishes.
        plans = [
            Plan("outer", pattern("goal-added", "g1"), (Subgoal("g2", {}), Believe("done", Expr("true")))),
            Plan("inner", pattern("goal-added", "g2"), (Believe("x", Expr("1")),)),
        ]
        cfg = agent(plans)
        post_external_event(cfg, goal("g1"))
        for _ in range(8):
            run_cycle(cfg)
        assert cfg.beliefs.get("done") is True
        assert cfg.circumstance.intentions == {}
        succeeded = [
            o["te"]["subject"]
            for o in cfg.observations
            if o["kind"] == "event-discarded" and o["te"]["category"] == "goal-succeeded"
        ]
        assert "g2" in succeeded and "g1" in succeeded

    def test_unfinished_records_untouched(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}), Act("ping", {})))])
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)
        (intention,) = cfg.circumstance.intentions.values()
        assert intention.stack[-1].pc == 1
        before = cfg.snapshot()
        cfg.step = Step.CLR_INT
        clear_intention(cfg)
        after = cfg.snapshot()
        before.pop("step"), after.pop("step")
        assert before == after


class TestRemoveIntention:
    def queue(self):
        """Intentions 1 and 2, with events paired with 1, TOP, 2 and 1 again."""
        cfg = agent()
        one, two = cfg.new_intention().intention_id, cfg.new_intention().intention_id
        for subject, iid in (("a", one), ("b", TOP), ("c", two), ("d", one)):
            cfg.append_event(goal(subject), iid)
        return cfg

    def test_queued_events_of_the_dropped_intention_re_pair_with_top(self):
        cfg = self.queue()
        before = list(cfg.circumstance.events)
        _remove_intention(cfg, 1)
        events = cfg.circumstance.events
        assert list(cfg.circumstance.intentions) == [2]
        assert [(e.te.subject, e.seq) for e in events] == [(e.te.subject, e.seq) for e in before]
        assert [e.intention for e in events] == [TOP, TOP, 2, TOP]
        assert [e is b for e, b in zip(events, before)] == [False, True, True, False]
        assert 1 not in cfg.circumstance.pending and cfg.circumstance.pending[2] == 1

    def test_no_pending_events_leaves_the_queue_objects_alone(self):
        cfg = self.queue()
        for _ in range(3):  # select "a", "b" and "c", intention 2's only event
            cfg.step = Step.SEL_EV
            select_event(cfg)
        kept = list(cfg.circumstance.events)
        assert cfg.circumstance.pending[2] == 0
        _remove_intention(cfg, 2)
        assert list(cfg.circumstance.intentions) == [1]
        assert len(cfg.circumstance.events) == len(kept) == 1
        assert cfg.circumstance.events[0] is kept[0]
        assert kept[0].intention == 1


class TestProcessMessages:
    def test_empty_inbox_only_advances_step(self, idle_agent):
        before = idle_agent.snapshot()
        process_messages(idle_agent)
        assert idle_agent.step is Step.SEL_EV
        after = idle_agent.snapshot()
        before.pop("step"), after.pop("step")
        assert before == after

    def test_message_becomes_event_with_payload(self):
        cfg = agent()
        cfg.mail.inbox.append(Message("peer", "a", {"k": 7}))
        process_messages(cfg)
        (event,) = cfg.circumstance.events
        assert event.te == TriggeringEvent(EventCategory.MESSAGE_RECEIVED, "peer", {"k": 7})
        assert event.intention is TOP
        assert not cfg.mail.inbox

    def test_fifo_order_preserved_oracle(self):
        cfg = agent()
        cfg.mail.inbox.append(Message("m1", "a", {}))
        cfg.mail.inbox.append(Message("m2", "a", {}))
        process_messages(cfg)
        seqs = {event.te.subject: event.seq for event in cfg.circumstance.events}
        assert seqs["m1"] < seqs["m2"]


class TestReasoningStepDispatch:
    def test_plain_agent_uses_plain_selection(self):
        cfg = agent()
        post_external_event(cfg, goal("g1"))
        cfg.step = Step.SEL_EV
        reasoning_step(cfg)
        assert cfg.step in (Step.REL_PL, Step.SEL_INT)

    @pytest.mark.parametrize(
        "driver, start, queued",
        [
            (reasoning_step, Step.SEL_EV, False),
            (run_cycle, Step.PROC_MSG, False),
            (run_cycle, Step.PROC_MSG, True),
        ],
        ids=["reasoning_step", "run_cycle-idle", "run_cycle-queued"],
    )
    def test_registered_modules_switch_selection(self, driver, start, queued):
        # Both drivers reach the registered selector exactly once: the traced
        # benchmark counts one selector call per agent cycle.
        from coagent.coefficiency import CoefficientModule, register_module

        calls = []
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))])
        register_module(cfg, CoefficientModule("m"))
        if queued:
            post_external_event(cfg, goal("g1"))
        original = cfg.select_event_override

        def spy(config):
            calls.append(True)
            return original(config)

        cfg.select_event_override = spy
        cfg.step = start
        driver(cfg)
        assert calls == [True]

    def test_cycle_closure_on_idle_agent(self, idle_agent):
        # Nine dispatched steps visit each step at most once per wrap and
        # return to ProcMsg on an idle agent.
        visited = []
        for _ in range(9):
            visited.append(idle_agent.step)
            reasoning_step(idle_agent)
        wraps = [i for i, s in enumerate(visited) if s is Step.PROC_MSG]
        assert wraps, "never passed through ProcMsg"
        for start, end in zip(wraps, wraps[1:]):
            segment = visited[start:end]
            assert len(segment) == len(set(segment))
        assert idle_agent.step is Step.PROC_MSG


def _entry_state(entry, registered):
    """An agent at ProcMsg that is idle or holds exactly one kind of work."""
    cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),) * 3)])
    if registered:
        from coagent.coefficiency import CoefficientModule, register_module

        register_module(cfg, CoefficientModule("m"))
    if entry == "inbox":
        cfg.mail.inbox.append(Message("peer", "a", {"v": 1}))
    elif entry == "event":
        post_external_event(cfg, goal("g1"))
    elif entry == "intention":
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)
        assert len(cfg.circumstance.intentions) == 1 and not cfg.circumstance.events
    return cfg


def _step_until_wrap(cfg):
    reasoning_step(cfg)
    while cfg.step is not Step.PROC_MSG:
        reasoning_step(cfg)


def _count_selections(cfg, monkeypatch):
    """Count ``cfg``'s selector calls: the registered one, else plain ``select_event``."""
    import coagent.bdi.interpreter as interpreter

    calls = []
    selector = cfg.select_event_override or interpreter.select_event

    def counting(config):
        if config is cfg:
            calls.append(True)
        return selector(config)

    if cfg.select_event_override is None:
        monkeypatch.setattr(interpreter, "select_event", counting)
    else:
        cfg.select_event_override = counting
    return calls


class TestIdleCycle:
    """``run_cycle`` ends an idle agent's cycle after selection; every entry
    state must still leave what the transition-by-transition walk leaves."""

    @pytest.mark.parametrize("registered", [False, True], ids=["plain", "module"])
    @pytest.mark.parametrize("entry", ["idle", "inbox", "event", "intention"])
    def test_run_cycle_matches_the_stepped_walk(self, entry, registered, monkeypatch):
        cycled = _entry_state(entry, registered)
        stepped = _entry_state(entry, registered)
        calls = _count_selections(cycled, monkeypatch)
        for cycle in range(1, 5):
            run_cycle(cycled)
            _step_until_wrap(stepped)
            assert cycled.snapshot_json() == stepped.snapshot_json()
            assert len(calls) == cycle

    def test_idle_cycle_wraps_with_no_selected_intention(self, idle_agent):
        idle_agent.temp.iota = 7  # stale: the wrap must clear it as SelInt does
        run_cycle(idle_agent)
        assert idle_agent.step is Step.PROC_MSG
        assert idle_agent.temp.iota is None

    @pytest.mark.parametrize("append_first", [True, False], ids=["then-select", "after-select"])
    def test_selector_that_queues_an_event_continues_the_walk(self, append_first, monkeypatch):
        def appending(cfg):
            if append_first:
                cfg.append_event(goal("g1"), TOP)
            select_event(cfg)
            if not append_first:
                cfg.append_event(goal("g1"), TOP)
            return cfg

        cycled = _entry_state("idle", registered=False)
        stepped = _entry_state("idle", registered=False)
        cycled.select_event_override = stepped.select_event_override = appending
        calls = _count_selections(cycled, monkeypatch)
        run_cycle(cycled)
        _step_until_wrap(stepped)
        assert cycled.snapshot_json() == stepped.snapshot_json()
        assert calls == [True]
        if append_first:
            assert len(cycled.circumstance.intentions) == 1
        else:
            assert len(cycled.circumstance.events) == 1


class TestPostExternalEvent:
    def test_event_appended_with_top_intention(self, idle_agent):
        post_external_event(idle_agent, goal("g1"))
        assert len(idle_agent.circumstance.events) == 1
        assert idle_agent.circumstance.events[0].intention is TOP

    def test_seq_strictly_increasing(self, idle_agent):
        post_external_event(idle_agent, goal("g1"))
        post_external_event(idle_agent, goal("g2"))
        seqs = [event.seq for event in idle_agent.circumstance.events]
        assert seqs[0] < seqs[1]

    def test_posted_goal_eventually_yields_intention(self):
        # Full-cycle replay oracle: a posted goal with a matching plan must
        # produce a new intention within one cycle.
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}), Act("ping", {})))])
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)
        assert len(cfg.circumstance.intentions) == 1


class TestSharedPayloads:
    """A payload is read-only once its event is built, so what is built from
    the event shares the payload: plan records, goal outcomes and
    message-received events hold the same dict, never a copy."""

    def test_plan_record_trigger_is_the_selected_event(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))])
        te = goal("g1", {"k": 1})
        post_external_event(cfg, te)
        step_to(cfg, Step.ADD_IM)
        add_intended_means(cfg)
        (intention,) = cfg.circumstance.intentions.values()
        assert intention.stack[-1].trigger_te is te

    def test_goal_succeeded_shares_the_goal_payload(self):
        cfg = agent([Plan("p", pattern("goal-added", "g1"), (Act("ping", {}),))])
        te = goal("g1", {"k": 1})
        post_external_event(cfg, te)
        run_cycle(cfg)
        (event,) = cfg.circumstance.events
        assert event.te.category is EventCategory.GOAL_SUCCEEDED
        assert event.te.payload is te.payload

    def test_goal_failed_shares_the_subgoal_payload(self):
        # No plan handles g2: its discard fails the record waiting on it.
        outer = Plan("outer", pattern("goal-added", "g1"), (Subgoal("g2", {"n": Expr("1")}),))
        cfg = agent([outer])
        post_external_event(cfg, goal("g1"))
        run_cycle(cfg)
        (subgoal,) = cfg.circumstance.events
        run_cycle(cfg)
        failed = [e.te for e in cfg.circumstance.events if e.te.subject == "g2"]
        assert [te.category for te in failed] == [EventCategory.GOAL_FAILED]
        assert failed[0].payload is subgoal.te.payload == {"n": 1}

    def test_message_received_shares_the_message_payload(self):
        cfg = agent()
        message = Message("peer", "a", {"k": 7})
        cfg.mail.inbox.append(message)
        process_messages(cfg)
        (event,) = cfg.circumstance.events
        assert event.te.payload is message.payload

    def test_event_records_are_frozen_slotted_and_deep_copy(self):
        te = goal("g1", {"k": 1})
        event = Event(te, TOP, 0)
        for record in (te, event):
            assert not hasattr(record, "__dict__")
            for name in (f.name for f in dataclasses.fields(record)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)
        clone = copy.deepcopy(event)
        assert clone == event and clone.te.payload is not te.payload
