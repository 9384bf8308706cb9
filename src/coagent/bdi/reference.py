"""Naive reference interpreter used as a cross-check oracle.

This module re-implements the reasoning-cycle rules directly and
inefficiently, without reusing any of the step logic in
``coagent.bdi.interpreter``: pattern matching, event selection, plan
selection, intention scheduling, failure handling, and cleanup are all
re-derived here from their definitions.  Expressions are evaluated by a
naive walk of their parsed tree, re-derived from the grammar in the
``coagent.bdi.expressions`` docstring, not by the compiled functions the
main interpreter calls.  Only the passive data model is shared, with the
parsed tree, the ``UNDEFINED`` sentinel and the error types, and nothing is
shared by reference: a plan record holds its own copy of its triggering
event, and an expression reads a copy of the beliefs.  Agreement
between the two implementations over randomly generated programs is the
primary semantic acceptance check.

The reference does not support co-efficient modules; it covers the plain
interpreter semantics.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import replace
from typing import Any, Mapping

from coagent.bdi.config import AgentConfiguration, Step
from coagent.bdi.events import TOP, EventCategory, EventPattern, TriggeringEvent
from coagent.bdi.expressions import UNDEFINED, Expr, ExpressionEvalError
from coagent.bdi.plans import Act, Believe, Intention, PlanRecord, Send, Subgoal, Unbelieve
from coagent.bdi.config import ActionFault, Message


def _matches(pattern: EventPattern, te: TriggeringEvent) -> bool:
    # Re-derived from the pattern definition: category list, subject
    # exact/prefix, payload subset equality.
    if pattern.categories is not None:
        if all(te.category is not c for c in pattern.categories):
            return False
    if pattern.subject is not None:
        if pattern.subject.endswith("*"):
            prefix = pattern.subject[: len(pattern.subject) - 1]
            if te.subject[: len(prefix)] != prefix:
                return False
        else:
            if te.subject != pattern.subject:
                return False
    for key in pattern.payload:
        if key not in te.payload:
            return False
        if te.payload[key] != pattern.payload[key]:
            return False
    return True


# -- expressions ---------------------------------------------------------------

_COMPARE = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}
_ARITHMETIC = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_FUNCTIONS = {"abs": abs, "min": min, "max": max}


def _is_number(value: Any) -> bool:
    return type(value) is int or type(value) is float


def _truth(value: Any) -> bool:
    return value is not UNDEFINED and bool(value)


def _node_value(node: ast.AST, names: Mapping[str, Any], te: TriggeringEvent) -> Any:
    if isinstance(node, ast.Expression):
        return _node_value(node.body, names, te)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id == "true":
            return True
        if node.id == "false":
            return False
        if node.id == "subject":
            return te.subject
        return names.get(node.id, UNDEFINED)
    if isinstance(node, ast.Attribute):
        return te.payload.get(node.attr, UNDEFINED)
    if isinstance(node, ast.UnaryOp):
        operand = _node_value(node.operand, names, te)
        if isinstance(node.op, ast.Not):
            return not _truth(operand)
        return -operand if _is_number(operand) else UNDEFINED
    if isinstance(node, ast.BinOp):
        left = _node_value(node.left, names, te)
        right = _node_value(node.right, names, te)
        if not (_is_number(left) and _is_number(right)):
            return UNDEFINED
        try:
            return _ARITHMETIC[type(node.op)](left, right)
        except ZeroDivisionError:
            return UNDEFINED
    if isinstance(node, ast.Call):
        args = [_node_value(arg, names, te) for arg in node.args]
        if not all(_is_number(arg) for arg in args):
            return UNDEFINED
        try:
            return _FUNCTIONS[node.func.id](*args)
        except TypeError:  # the wrong number of arguments
            return UNDEFINED
    if isinstance(node, ast.Compare):
        left = _node_value(node.left, names, te)
        for op, comparator in zip(node.ops, node.comparators):
            right = _node_value(comparator, names, te)
            if left is UNDEFINED or right is UNDEFINED:
                return False
            try:
                if not _COMPARE[type(op)](left, right):
                    return False
            except TypeError:
                return False
            left = right
        return True
    if isinstance(node, ast.BoolOp):
        truths = (_truth(_node_value(operand, names, te)) for operand in node.values)
        return all(truths) if isinstance(node.op, ast.And) else any(truths)
    raise AssertionError(f"unchecked expression node {type(node).__name__}")


def expression_value(expr: Expr, names: Mapping[str, Any], te: TriggeringEvent) -> Any:
    """The expression's raw value over beliefs ``names`` and event ``te``;
    UNDEFINED where it has none."""
    return _node_value(expr.tree, names, te)


def expression_holds(expr: Expr, names: Mapping[str, Any], te: TriggeringEvent) -> bool:
    """Condition position: an undefined value is false."""
    return _truth(expression_value(expr, names, te))


def expression_strict(expr: Expr, names: Mapping[str, Any], te: TriggeringEvent) -> Any:
    """Value position: an undefined value raises ``ExpressionEvalError``."""
    value = expression_value(expr, names, te)
    if value is UNDEFINED:
        raise ExpressionEvalError(
            f"expression {expr.source!r} has no defined value in this context"
        )
    return value


# -- the cycle -----------------------------------------------------------------


def _repair_events(cfg: AgentConfiguration, dead: int) -> None:
    for position in range(len(cfg.circumstance.events)):
        event = cfg.circumstance.events[position]
        if event.intention is not TOP and event.intention == dead:
            cfg.circumstance.events[position] = replace(event, intention=TOP)


def _drop_intention(cfg: AgentConfiguration, iid: int) -> None:
    if iid in cfg.circumstance.intentions:
        del cfg.circumstance.intentions[iid]
    _repair_events(cfg, iid)


def _goal_event(category: EventCategory, te: TriggeringEvent) -> TriggeringEvent:
    return TriggeringEvent(category, te.subject, dict(te.payload))


def _fail_stack(cfg: AgentConfiguration, intention: Intention) -> None:
    # Pop the failing record; a parent suspended on the failed goal fails too.
    while True:
        failed = intention.stack.pop()
        goal = failed.trigger_te if failed.trigger_te.category is EventCategory.GOAL_ADDED else None
        if len(intention.stack) == 0:
            if goal is not None:
                cfg.append_event(_goal_event(EventCategory.GOAL_FAILED, goal), TOP)
            _drop_intention(cfg, intention.intention_id)
            return
        if goal is None:
            return
        cfg.append_event(_goal_event(EventCategory.GOAL_FAILED, goal), intention.intention_id)
        parent = intention.stack[-1]
        if parent.waiting_on != goal.subject:
            return
        parent.waiting_on = None


def _finished(cfg: AgentConfiguration, record: PlanRecord) -> bool:
    if record.waiting_on is not None:
        return False
    return record.pc >= len(cfg.plans.by_id[record.plan_id].body)


def _runnable(cfg: AgentConfiguration, intention: Intention) -> bool:
    if not intention.stack:
        return False
    record = intention.stack[-1]
    if record.waiting_on is not None:
        return False
    return record.pc < len(cfg.plans.by_id[record.plan_id].body)


def reference_step(cfg: AgentConfiguration) -> AgentConfiguration:
    """One transition of the naive interpreter; mirrors the main semantics."""
    s = cfg.step

    if s is Step.PROC_MSG:
        messages = list(cfg.mail.inbox)
        cfg.mail.inbox.clear()
        for message in messages:
            te = TriggeringEvent(
                EventCategory.MESSAGE_RECEIVED, message.sender, dict(message.payload)
            )
            cfg.append_event(te, TOP)
        cfg.step = Step.SEL_EV
        return cfg

    if s is Step.SEL_EV:
        if len(cfg.circumstance.events) == 0:
            cfg.step = Step.SEL_INT
            return cfg
        oldest = min(cfg.circumstance.events, key=lambda event: event.seq)
        cfg.circumstance.events.remove(oldest)
        cfg.temp.epsilon = oldest
        cfg.step = Step.REL_PL
        return cfg

    if s is Step.REL_PL:
        epsilon = cfg.temp.epsilon
        assert epsilon is not None
        relevant = []
        for plan in cfg.plans.by_id.values():
            if _matches(plan.trigger, epsilon.te):
                relevant.append(plan.plan_id)
        cfg.temp.relevant = relevant
        if relevant:
            cfg.step = Step.APPL_PL
        else:
            _discard(cfg, "no-relevant-plan")
            cfg.step = Step.SEL_INT
        return cfg

    if s is Step.APPL_PL:
        epsilon = cfg.temp.epsilon
        assert epsilon is not None
        applicable = []
        for plan_id in cfg.temp.relevant:
            plan = cfg.plans.by_id[plan_id]
            if expression_holds(plan.context, cfg.beliefs.as_dict(), epsilon.te):
                applicable.append(plan_id)
        cfg.temp.applicable = applicable
        if applicable:
            cfg.step = Step.SEL_APPL
        else:
            _discard(cfg, "no-applicable-plan")
            cfg.step = Step.SEL_INT
        return cfg

    if s is Step.SEL_APPL:
        best = None
        best_index = None
        for plan_id in cfg.temp.applicable:
            index = list(cfg.plans.by_id).index(plan_id)
            if best_index is None or index < best_index:
                best, best_index = plan_id, index
        cfg.temp.rho = best
        cfg.step = Step.ADD_IM
        return cfg

    if s is Step.ADD_IM:
        epsilon = cfg.temp.epsilon
        rho = cfg.temp.rho
        assert epsilon is not None and rho is not None
        if epsilon.intention is TOP:
            intention = cfg.new_intention()
        else:
            intention = cfg.circumstance.intentions[epsilon.intention]
        te = epsilon.te
        copied = TriggeringEvent(te.category, te.subject, dict(te.payload))
        intention.stack.append(PlanRecord(plan_id=rho, trigger_te=copied))
        cfg.observe(
            "plan-started",
            te=TriggeringEvent(EventCategory.PLAN_STARTED, rho, {}),
            intention=intention.intention_id,
        )
        cfg.temp.epsilon = None
        cfg.temp.rho = None
        cfg.temp.relevant = []
        cfg.temp.applicable = []
        cfg.step = Step.SEL_INT
        return cfg

    if s is Step.SEL_INT:
        candidates = []
        for iid in sorted(cfg.circumstance.intentions):
            if _runnable(cfg, cfg.circumstance.intentions[iid]):
                candidates.append(iid)
        if not candidates:
            cfg.temp.iota = None
            cfg.step = Step.PROC_MSG
            return cfg
        cursor = cfg.last_intention_run
        chosen = None
        if cursor is not None:
            for iid in candidates:
                if iid > cursor:
                    chosen = iid
                    break
        if chosen is None:
            chosen = candidates[0]
        cfg.temp.iota = chosen
        cfg.last_intention_run = chosen
        cfg.step = Step.EXEC_INT
        return cfg

    if s is Step.EXEC_INT:
        iota = cfg.temp.iota
        assert iota is not None
        intention = cfg.circumstance.intentions[iota]
        record = intention.stack[-1]
        plan = cfg.plans.by_id[record.plan_id]
        body_step = plan.body[record.pc]
        names, trigger = cfg.beliefs.as_dict(), record.trigger_te
        try:
            if isinstance(body_step, Act):
                if body_step.name not in cfg.circumstance.actions:
                    raise ActionFault(f"unknown action {body_step.name!r}")
                args = {}
                for key in body_step.args:
                    args[key] = expression_strict(body_step.args[key], names, trigger)
                cfg.environment.perform(cfg, body_step.name, args)
                record.pc += 1
            elif isinstance(body_step, Subgoal):
                args = {}
                for key in body_step.args:
                    args[key] = expression_strict(body_step.args[key], names, trigger)
                cfg.append_event(
                    TriggeringEvent(EventCategory.GOAL_ADDED, body_step.goal, args),
                    intention.intention_id,
                )
                record.waiting_on = body_step.goal
                record.pc += 1
            elif isinstance(body_step, Believe):
                value = expression_strict(body_step.value, names, trigger)
                te = cfg.beliefs.set(body_step.key, value)
                if te is not None:
                    cfg.append_event(te, intention.intention_id)
                record.pc += 1
            elif isinstance(body_step, Unbelieve):
                te = cfg.beliefs.remove(body_step.key)
                if te is not None:
                    cfg.append_event(te, intention.intention_id)
                record.pc += 1
            elif isinstance(body_step, Send):
                payload = {}
                for key in body_step.payload:
                    payload[key] = expression_strict(body_step.payload[key], names, trigger)
                cfg.mail.outbox.append(Message(cfg.agent_id, body_step.to, payload))
                record.pc += 1
        except (ActionFault, ExpressionEvalError) as fault:
            cfg.observe(
                "plan-failed",
                intention=intention.intention_id,
                plan=record.plan_id,
                fault=str(fault),
            )
            _fail_stack(cfg, intention)
        cfg.step = Step.CLR_INT
        return cfg

    if s is Step.CLR_INT:
        for iid in sorted(cfg.circumstance.intentions):
            intention = cfg.circumstance.intentions.get(iid)
            if intention is None:
                continue
            while intention.stack and _finished(cfg, intention.stack[-1]):
                done = intention.stack.pop()
                cfg.observe(
                    "plan-finished",
                    te=TriggeringEvent(EventCategory.PLAN_FINISHED, done.plan_id, {}),
                    intention=intention.intention_id,
                )
                if done.trigger_te.category is EventCategory.GOAL_ADDED:
                    success = _goal_event(EventCategory.GOAL_SUCCEEDED, done.trigger_te)
                    if intention.stack:
                        cfg.append_event(success, intention.intention_id)
                        parent = intention.stack[-1]
                        if parent.waiting_on == done.trigger_te.subject:
                            parent.waiting_on = None
                    else:
                        cfg.append_event(success, TOP)
            if not intention.stack:
                _drop_intention(cfg, iid)
        cfg.temp.iota = None
        cfg.step = Step.PROC_MSG
        return cfg

    raise AssertionError(f"unknown step {s!r}")


def _discard(cfg: AgentConfiguration, reason: str) -> None:
    epsilon = cfg.temp.epsilon
    assert epsilon is not None
    cfg.observe("event-discarded", te=epsilon.te, intention=epsilon.intention, reason=reason)
    te = epsilon.te
    if te.category is EventCategory.GOAL_ADDED and epsilon.intention is not TOP:
        holder = cfg.circumstance.intentions.get(epsilon.intention)
        if holder is not None and holder.stack:
            waiter = holder.stack[-1]
            if waiter.waiting_on == te.subject:
                cfg.append_event(
                    _goal_event(EventCategory.GOAL_FAILED, te), holder.intention_id
                )
                waiter.waiting_on = None
                _fail_stack(cfg, holder)
    cfg.temp.epsilon = None
    cfg.temp.rho = None
    cfg.temp.relevant = []
    cfg.temp.applicable = []


def reference_cycle(cfg: AgentConfiguration) -> AgentConfiguration:
    """Run reference steps until the cycle wraps back to ProcMsg."""
    if cfg.step is not Step.PROC_MSG:
        raise ValueError("reference_cycle must start at ProcMsg")
    for _ in range(9):
        reference_step(cfg)
        if cfg.step is Step.PROC_MSG:
            return cfg
    raise AssertionError("cycle did not wrap in nine steps")
