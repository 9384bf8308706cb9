"""The nine-step reasoning cycle as small-step transition functions.

Each function consumes and returns an ``AgentConfiguration``, rewriting it in
place.  One table, ``_TRANSITIONS``, lists the transitions in cycle order and
is the only place that order is written: ``reasoning_step`` applies the entry
for the current step, and ``run_cycle`` walks the table once, back to message
processing.  Event selection has one rule for both drivers, the table's
SelEv entry: the selector registered on the configuration (module activation
extends event selection only), else plain ``select_event``.  ``run_cycle``
has one path for idle and busy agents alike: ProcMsg only for a non-empty
inbox, the selector called inline, a wrap as soon as selection leaves no
intention to schedule, else the rest of the table.

Selection functions are fixed deterministically: events are selected in FIFO
posting order, the applicable plan with the lowest declaration index wins,
and intentions are scheduled round-robin over intention ids with a persisted
cursor.  Events whose relevant or applicable plan set is empty are discarded,
never re-queued; a discarded achievement-goal event fails the plan record
waiting on it.  An unknown action or a failed expression fails the enclosing
plan; there is no retry.

A plan record closes by one rule, whether it finished or failed: if it was
an achievement goal, the goal's outcome (goal-succeeded or goal-failed) goes
to the record below, paired with the intention, or to TOP when the stack is
empty.  A failure climbs the stack for as long as the record below was
waiting on the failed goal.

Hot-path rule: runtime code names enum members through module constants
(``SEL_EV``, ``GOAL_ADDED``, ``NEW_INTENTION``), bound once, by name, next to
the enum that defines them.  A member lookup such as ``Step.SEL_EV`` costs
about 0.10 µs on CPython 3.11.7 (0.035 µs on 3.12) against 0.007 µs for a
module-global read, and a profiler shows it nowhere: it has no frame of its
own and is charged to its caller's self time.  An idle cycle made seven
such lookups; on 3.11.7 the rule took it from 1.0-1.3 µs to about 0.3 µs
(timeit, best of 7 x 200,000 cycles).  Code that runs once, ``_TRANSITIONS``
and class-level defaults, may spell members out, and so does the naive
``coagent.bdi.reference``.  The rule also counts frames, since each Python
call costs one:

* Step checks are inline (``if cfg.step is not X: _expect(cfg, X)``), so
  ``_expect`` runs only to raise.  ``run_cycle`` calls the SelEv entry's
  selector itself and ProcMsg only for mail: an idle module host enters
  ``run_cycle``, ``select_event_coefficient`` and ``select_event``, three
  frames, nothing more, and a busy cycle with an empty inbox enters neither
  ``process_messages`` nor ``_select``.
* In the simulator an idle agent enters no frame at all: it sleeps until an
  ``append_event`` wakes it (see ``coagent.scenarios``).  Only a selector
  that carries ``inert_on_empty_queue = True`` lets its agent sleep: it
  declares that at SelEv on an empty queue it only moves the step to
  SelInt.  ``select_event`` and ``select_event_coefficient`` carry it, and
  ``functools.wraps`` copies it onto a wrapper; any other selector runs
  every tick (quiet-fleet's median tick 0.45 -> 0.010 ms, ``BENCH_23.json``).
* Intentions are never sorted: they iterate in ascending id order (see
  ``Circumstance``).  SelInt checks runnability inline and stops at the
  first runnable id after the cursor, and ExecInt checks the record it runs
  inline.  ClrInt visits only the intention ExecInt ran, by one ``get``
  (a failure may have removed it), and reads its top directly: every other
  top was settled by an earlier ClrInt.  A plan id becomes a body by one
  subscript of ``PlanLibrary.by_id``, which only the library's constructor
  writes.
* ApplPl evaluates no context that is literally ``TRUE`` (the default),
  and evaluates every other context over the host's beliefs and the
  selected event as they are, building nothing for it.  A belief read is
  the facts dict's own ``get``, so it enters no frame.
* Lifecycle events exist only where they are recorded or hooked: plan-started
  and plan-finished are built only when the host records observations or has
  a hook, which only a module with mapping entries installs; other
  observations are built only when recorded.
* Relevance is indexed: ``PlanLibrary.relevant`` looks plans up by the
  event's category and subject, and only the reference scans the whole
  library.  Libraries are read-only values, so agents with one program
  share one library and fill its index once.  Each body step runs itself,
  so ExecInt has no type dispatch.
* The records built once per event are built positionally and cheaply.
  A delivered goal costs each host two ``Event``s (its queueing and its
  outcome's), an ``Intention`` and a ``PlanRecord``, and nothing more: the
  goal itself is one ``TriggeringEvent`` per publication, shared by every
  host it reaches (see ``EventTemplate.instantiate``), and its outcome is
  one per goal, shared by the hosts that finish it in a row (see
  ``_outcome``).  Payloads are shared, never copied, and so are the
  triggering events that carry them.  Clearing the temps after an event
  builds nothing: ``relevant`` and ``applicable`` go back to ``()``.
  ``Event`` and ``TriggeringEvent`` stay frozen, slotted
  dataclasses, but their ``__init__``s are written in
  ``coagent.bdi.events`` and set each slot through its own descriptor;
  ``PlanRecord`` and ``Intention`` are slotted.  On CPython 3.11.7 (best
  of 7 x 500,000) a keyword ``Event(te=..., intention=..., seq=...)`` with
  the generated ``__init__`` cost 0.95 µs, a positional one 0.56 µs, and
  now 0.35 µs; ``TriggeringEvent`` 0.61 -> 0.35 µs, ``PlanRecord`` by
  keyword 0.43 -> positionally 0.19 µs and ``Intention`` 0.50 -> 0.24 µs.
  Capacity-storm went from 232k to 268k agent-cycles/s and demand-churn
  from 269k to 298k (``BENCH_26.json``).

``tests/test_hot_path.py`` checks the rule.
"""

from __future__ import annotations

from dataclasses import replace

from coagent.bdi.config import (
    ADD_IM,
    APPL_PL,
    CLR_INT,
    EXEC_INT,
    PROC_MSG,
    REL_PL,
    SEL_APPL,
    SEL_EV,
    SEL_INT,
    ActionFault,
    AgentConfiguration,
    ConfigurationCorruption,
    Step,
)
from coagent.bdi.events import (
    GOAL_ADDED,
    GOAL_FAILED,
    GOAL_SUCCEEDED,
    MESSAGE_RECEIVED,
    PLAN_FINISHED,
    PLAN_STARTED,
    TOP,
    EventCategory,
    TriggeringEvent,
)
from coagent.bdi.expressions import TRUE, ExpressionEvalError
from coagent.bdi.plans import Intention, PlanRecord


def post_external_event(cfg: AgentConfiguration, te: TriggeringEvent) -> AgentConfiguration:
    """Append an externally produced event, paired with the empty intention."""
    cfg.append_event(te, TOP)
    return cfg


def process_messages(cfg: AgentConfiguration) -> AgentConfiguration:
    """ProcMsg: convert the inbox to message-received events in FIFO order."""
    if cfg.step is not PROC_MSG:
        _expect(cfg, PROC_MSG)
    inbox = cfg.mail.inbox
    for message in inbox:
        cfg.append_event(TriggeringEvent(MESSAGE_RECEIVED, message.sender, message.payload), TOP)
    inbox.clear()
    cfg.step = SEL_EV
    return cfg


def select_event(cfg: AgentConfiguration) -> AgentConfiguration:
    """SelEv: pick the oldest pending event, or skip to intention selection."""
    if cfg.step is not SEL_EV:
        _expect(cfg, SEL_EV)
    events = cfg.circumstance.events
    if not events:
        cfg.step = SEL_INT
        return cfg
    epsilon = cfg.temp.epsilon = events.pop(0)
    if epsilon.intention is not TOP:
        cfg.circumstance.pending[epsilon.intention] -= 1  # type: ignore[index]
    cfg.step = REL_PL
    return cfg


# The sleep declaration: on an empty queue at SelEv this selector does
# nothing but move the step to SelInt, so an idle agent that uses it may
# sleep (see ``coagent.scenarios``).
select_event.inert_on_empty_queue = True  # type: ignore[attr-defined]


def compute_relevant_plans(cfg: AgentConfiguration) -> AgentConfiguration:
    """RelPl: collect plans whose trigger matches the selected event."""
    if cfg.step is not REL_PL:
        _expect(cfg, REL_PL)
    epsilon = cfg.temp.epsilon
    if epsilon is None:
        raise ConfigurationCorruption("RelPl reached without a selected event")
    relevant = cfg.temp.relevant = cfg.plans.relevant(epsilon.te)
    if relevant:
        cfg.step = APPL_PL
        return cfg
    _discard_selected_event(cfg, reason="no-relevant-plan")
    cfg.step = SEL_INT
    return cfg


def compute_applicable_plans(cfg: AgentConfiguration) -> AgentConfiguration:
    """ApplPl: filter relevant plans by their context condition."""
    if cfg.step is not APPL_PL:
        _expect(cfg, APPL_PL)
    epsilon = cfg.temp.epsilon
    if epsilon is None:
        raise ConfigurationCorruption("ApplPl reached without a selected event")
    plans, beliefs, te = cfg.plans.by_id, cfg.beliefs, epsilon.te
    applicable = []
    for plan_id in cfg.temp.relevant:
        context = plans[plan_id].context
        if context is TRUE or context.as_condition(beliefs, te):
            applicable.append(plan_id)
    cfg.temp.applicable = applicable
    if applicable:
        cfg.step = SEL_APPL
        return cfg
    _discard_selected_event(cfg, reason="no-applicable-plan")
    cfg.step = SEL_INT
    return cfg


def select_applicable(cfg: AgentConfiguration) -> AgentConfiguration:
    """SelAppl: commit to the applicable plan declared earliest in the library."""
    if cfg.step is not SEL_APPL:
        _expect(cfg, SEL_APPL)
    if not cfg.temp.applicable:
        raise ConfigurationCorruption("SelAppl reached with no applicable plans")
    # temp.applicable preserves declaration order, so the head has the
    # lowest declaration index.
    cfg.temp.rho = cfg.temp.applicable[0]
    cfg.step = ADD_IM
    return cfg


def add_intended_means(cfg: AgentConfiguration) -> AgentConfiguration:
    """AddIm: push the chosen plan onto its intention, creating one if external."""
    if cfg.step is not ADD_IM:
        _expect(cfg, ADD_IM)
    epsilon, rho = cfg.temp.epsilon, cfg.temp.rho
    if epsilon is None or rho is None:
        raise ConfigurationCorruption("AddIm reached without event and plan")
    if epsilon.intention is TOP:
        intention = cfg.new_intention()
    else:
        intention = cfg.circumstance.intentions.get(epsilon.intention)  # type: ignore[arg-type]
        if intention is None:
            raise ConfigurationCorruption(
                f"event references missing intention {epsilon.intention!r}"
            )
    record = PlanRecord(rho, epsilon.te)
    intention.stack.append(record)
    if cfg.record_observations or cfg.observation_hooks:
        started = TriggeringEvent(PLAN_STARTED, rho, {})
        cfg.observe("plan-started", te=started, intention=intention.intention_id, notify=True)
    _clear_temp(cfg)
    cfg.step = SEL_INT
    return cfg


def select_intention(cfg: AgentConfiguration) -> AgentConfiguration:
    """SelInt: round-robin over runnable intentions; wrap the cycle if none.

    The intentions iterate in ascending id order (see ``Circumstance``), so
    one pass finds the first runnable id after the cursor and stops there,
    else takes the lowest runnable id.  An intention is runnable when its
    top record waits on no subgoal and has a next body step.
    """
    if cfg.step is not SEL_INT:
        _expect(cfg, SEL_INT)
    plans = cfg.plans.by_id
    cursor = cfg.last_intention_run
    first = None  # the lowest runnable id, taken if none follows the cursor
    for iid, intention in cfg.circumstance.intentions.items():
        stack = intention.stack
        if not stack:
            continue
        top = stack[-1]
        if top.waiting_on is None and top.pc < len(plans[top.plan_id].body):
            if cursor is None or iid > cursor:
                chosen = iid
                break
            if first is None:
                first = iid
    else:
        if first is None:
            cfg.temp.iota = None
            cfg.step = PROC_MSG
            return cfg
        chosen = first
    cfg.temp.iota = chosen
    cfg.last_intention_run = chosen
    cfg.step = EXEC_INT
    return cfg


def execute_intention(cfg: AgentConfiguration) -> AgentConfiguration:
    """ExecInt: run exactly one body step of the selected intention's top plan."""
    if cfg.step is not EXEC_INT:
        _expect(cfg, EXEC_INT)
    iota = cfg.temp.iota
    if iota is None:
        raise ConfigurationCorruption("ExecInt reached without a selected intention")
    intention = cfg.circumstance.intentions.get(iota)
    if intention is None:
        raise ConfigurationCorruption(f"selected intention {iota!r} is missing")
    stack = intention.stack
    record = stack[-1] if stack else None
    body = cfg.plans.by_id[record.plan_id].body if record is not None else ()
    if record is None or record.waiting_on is not None or record.pc >= len(body):
        raise ConfigurationCorruption(f"selected intention {iota!r} is not runnable")
    step = body[record.pc]
    try:
        posted = step.run(cfg, record)  # the event it posts on its own intention
        if posted is not None:
            cfg.append_event(posted, intention.intention_id)
        record.pc += 1
    except (ActionFault, ExpressionEvalError) as fault:
        if cfg.record_observations:
            cfg.observe(
                "plan-failed",
                intention=intention.intention_id,
                plan=record.plan_id,
                fault=str(fault),
            )
        _fail_top_record(cfg, intention)
    cfg.step = CLR_INT
    return cfg


def clear_intention(cfg: AgentConfiguration) -> AgentConfiguration:
    """ClrInt: pop the run intention's finished records, emit goal outcomes,
    drop it if empty."""
    if cfg.step is not CLR_INT:
        _expect(cfg, CLR_INT)
    # Only the intention ExecInt ran can have a finished top: every other
    # top was settled by an earlier ClrInt.  A failure may have removed it.
    intention = cfg.circumstance.intentions.get(cfg.temp.iota)  # type: ignore[arg-type]
    if intention is not None:
        _pop_finished(cfg, intention)
    cfg.temp.iota = None
    cfg.step = PROC_MSG
    return cfg


def _select(cfg: AgentConfiguration) -> AgentConfiguration:
    """SelEv: the registered selector (module activation), else plain selection."""
    return (cfg.select_event_override or select_event)(cfg)


#: The cycle in order.  A transition only moves the step forward in this
#: order, except the wrap to ProcMsg from SelInt or ClrInt.
_TRANSITIONS = (
    (Step.PROC_MSG, process_messages),
    (Step.SEL_EV, _select),
    (Step.REL_PL, compute_relevant_plans),
    (Step.APPL_PL, compute_applicable_plans),
    (Step.SEL_APPL, select_applicable),
    (Step.ADD_IM, add_intended_means),
    (Step.SEL_INT, select_intention),
    (Step.EXEC_INT, execute_intention),
    (Step.CLR_INT, clear_intention),
)

#: The walk ``run_cycle`` continues with after event selection.
_AFTER_SEL_EV = _TRANSITIONS[2:]


def reasoning_step(cfg: AgentConfiguration) -> AgentConfiguration:
    """Apply exactly one transition: the table entry for the current step."""
    for step, transition in _TRANSITIONS:
        if cfg.step is step:
            return transition(cfg)
    raise ConfigurationCorruption(f"unknown step {cfg.step!r}")


def run_cycle(cfg: AgentConfiguration) -> AgentConfiguration:
    """Run one full reasoning cycle: one walk of the table, back to ProcMsg.

    One path for every agent, with the first two entries inlined: ProcMsg
    runs only when the inbox holds a message (an empty inbox only moves the
    step to SelEv), and the registered selector, the SelEv entry, is called
    directly, exactly once.  If selection leaves SelInt with no intention,
    the cycle ends at ProcMsg with no selected intention -- the state
    SelInt would leave, without the call.  Otherwise the walk continues
    over the rest of the table from the step selection left.
    """
    if cfg.step is not PROC_MSG:
        raise ValueError("run_cycle must start at ProcMsg")
    if cfg.mail.inbox:
        process_messages(cfg)
    else:
        cfg.step = SEL_EV
    (cfg.select_event_override or select_event)(cfg)  # the SelEv entry, inlined
    if cfg.step is SEL_INT and not cfg.circumstance.intentions:
        cfg.temp.iota = None
        cfg.step = PROC_MSG
        return cfg
    for step, transition in _AFTER_SEL_EV:
        if cfg.step is step:
            transition(cfg)
    if cfg.step is not PROC_MSG:
        raise ConfigurationCorruption(f"reasoning cycle ended at {cfg.step.value}")
    return cfg


# -- shared internals --------------------------------------------------------


def _expect(cfg: AgentConfiguration, step: Step) -> None:
    if cfg.step is not step:
        raise ConfigurationCorruption(f"expected step {step.value}, at {cfg.step.value}")


def _clear_temp(cfg: AgentConfiguration) -> None:
    cfg.temp.epsilon = None
    cfg.temp.rho = None
    cfg.temp.relevant = ()
    cfg.temp.applicable = ()


#: The last outcome built: its category, its goal and the outcome.
_last_outcome: tuple[EventCategory, TriggeringEvent, TriggeringEvent] | None = None


def _outcome(category: EventCategory, goal: TriggeringEvent) -> TriggeringEvent:
    """A goal's outcome event: its subject and its payload, shared, not copied.

    The outcome depends only on the category and the goal, so consecutive
    calls on the same category and goal object return the same outcome: the
    hosts that finish one delivered goal, mostly in a row, queue one shared
    outcome.  The memo is one tuple, replaced whole.
    """
    global _last_outcome
    last = _last_outcome
    if last is not None and last[1] is goal and last[0] is category:
        return last[2]
    outcome = TriggeringEvent(category, goal.subject, goal.payload)
    _last_outcome = (category, goal, outcome)
    return outcome


def _discard_selected_event(cfg: AgentConfiguration, reason: str) -> None:
    """Drop the selected event; a dropped pending subgoal fails its waiter."""
    epsilon = cfg.temp.epsilon
    assert epsilon is not None
    if cfg.record_observations:
        cfg.observe("event-discarded", te=epsilon.te, intention=epsilon.intention, reason=reason)
    if epsilon.te.category is GOAL_ADDED and epsilon.intention is not TOP:
        intention = cfg.circumstance.intentions.get(epsilon.intention)  # type: ignore[arg-type]
        if (
            intention is not None
            and intention.stack
            and intention.stack[-1].waiting_on == epsilon.te.subject
        ):
            cfg.append_event(
                _outcome(GOAL_FAILED, epsilon.te), intention.intention_id
            )
            intention.stack[-1].waiting_on = None
            _fail_top_record(cfg, intention)
    _clear_temp(cfg)


def _close_top_record(
    cfg: AgentConfiguration, intention: Intention, outcome: EventCategory
) -> bool:
    """Pop the top record; the one rule that reports a goal's outcome.

    An achievement-goal record posts ``outcome`` for its goal to the record
    below, paired with the intention, or to TOP once the stack is empty.
    Returns whether the record below had been waiting on that goal; it
    waits no longer.
    """
    stack = intention.stack
    goal = stack.pop().trigger_te
    if goal.category is not GOAL_ADDED:
        return False
    below = stack[-1] if stack else None
    cfg.append_event(_outcome(outcome, goal), TOP if below is None else intention.intention_id)
    if below is None or below.waiting_on != goal.subject:
        return False
    below.waiting_on = None
    return True


def _fail_top_record(cfg: AgentConfiguration, intention: Intention) -> None:
    """Fail the top record, and each record below for as long as it waited."""
    while _close_top_record(cfg, intention, GOAL_FAILED):
        pass
    if not intention.stack:
        _remove_intention(cfg, intention.intention_id)


def _pop_finished(cfg: AgentConfiguration, intention: Intention) -> None:
    """Close finished top records with goal-succeeded; drop an emptied intention."""
    stack = intention.stack
    plans = cfg.plans.by_id
    while stack:
        top = stack[-1]
        if top.waiting_on is not None or top.pc < len(plans[top.plan_id].body):
            break
        if cfg.record_observations or cfg.observation_hooks:
            finished = TriggeringEvent(PLAN_FINISHED, top.plan_id, {})
            cfg.observe(
                "plan-finished", te=finished, intention=intention.intention_id, notify=True
            )
        _close_top_record(cfg, intention, GOAL_SUCCEEDED)
    if not stack:
        _remove_intention(cfg, intention.intention_id)


def _remove_intention(cfg: AgentConfiguration, intention_id: int) -> None:
    """Drop an intention; its still-queued events re-pair with TOP.

    The queue is scanned only when the pending count says an event there
    still refers to the dropped intention.
    """
    circumstance = cfg.circumstance
    circumstance.intentions.pop(intention_id, None)
    if circumstance.pending.pop(intention_id, 0):
        events = circumstance.events
        for index, event in enumerate(events):
            if event.intention == intention_id:
                events[index] = replace(event, intention=TOP)
