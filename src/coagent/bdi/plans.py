"""Plans, body steps, plan records, and intentions.

Each body step runs itself: ``run(cfg, record)`` applies the step for the
top record of the selected intention and returns the event it posts on that
intention, if any.  Its expressions read the host's beliefs,
``cfg.beliefs``, and the record's triggering event, ``record.trigger_te``.
A step fails its plan by raising ``ActionFault`` or ``ExpressionEvalError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from coagent.bdi.events import GOAL_ADDED, EventCategory, EventPattern, TriggeringEvent
from coagent.bdi.expressions import TRUE, Expr

if TYPE_CHECKING:
    from coagent.bdi.config import AgentConfiguration


class ActionFault(RuntimeError):
    """Raised by environment adapters when an action cannot be performed."""


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {"sender": self.sender, "receiver": self.receiver, "payload": dict(self.payload)}


def _evaluate(
    args: Mapping[str, Expr], cfg: AgentConfiguration, record: PlanRecord
) -> dict[str, Any]:
    """Evaluate the argument map of an Act, Subgoal or Send step."""
    beliefs, te = cfg.beliefs, record.trigger_te
    return {key: expr.as_value(beliefs, te) for key, expr in args.items()}


@dataclass(frozen=True)
class Act:
    """Invoke a named action on the environment adapter."""

    name: str
    args: Mapping[str, Expr] = field(default_factory=dict)

    def run(self, cfg: AgentConfiguration, record: PlanRecord) -> None:
        if self.name not in cfg.circumstance.actions:
            raise ActionFault(f"unknown action {self.name!r}")
        cfg.environment.perform(cfg, self.name, _evaluate(self.args, cfg, record))


@dataclass(frozen=True)
class Subgoal:
    """Post an achievement goal on the current intention and wait for it."""

    goal: str
    args: Mapping[str, Expr] = field(default_factory=dict)

    def run(self, cfg: AgentConfiguration, record: PlanRecord) -> TriggeringEvent:
        posted = TriggeringEvent(GOAL_ADDED, self.goal, _evaluate(self.args, cfg, record))
        record.waiting_on = self.goal
        return posted


@dataclass(frozen=True)
class Believe:
    """Write a belief; the value expression is evaluated at execution time."""

    key: str
    value: Expr

    def run(self, cfg: AgentConfiguration, record: PlanRecord) -> TriggeringEvent | None:
        return cfg.beliefs.set(self.key, self.value.as_value(cfg.beliefs, record.trigger_te))


@dataclass(frozen=True)
class Unbelieve:
    """Drop a belief if present."""

    key: str

    def run(self, cfg: AgentConfiguration, record: PlanRecord) -> TriggeringEvent | None:
        return cfg.beliefs.remove(self.key)


@dataclass(frozen=True)
class Send:
    """Queue a message to another agent in the outbox."""

    to: str
    payload: Mapping[str, Expr] = field(default_factory=dict)

    def run(self, cfg: AgentConfiguration, record: PlanRecord) -> None:
        cfg.mail.outbox.append(Message(cfg.agent_id, self.to, _evaluate(self.payload, cfg, record)))


BodyStep = Act | Subgoal | Believe | Unbelieve | Send


@dataclass(frozen=True)
class Plan:
    """A reactive plan: trigger pattern, applicability context, finite body."""

    plan_id: str
    trigger: EventPattern
    body: tuple[BodyStep, ...]
    context: Expr = TRUE

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError(f"plan {self.plan_id!r} must have a non-empty body")


class PlanLibrary:
    """Ordered plan collection; declaration order breaks applicable-plan ties.

    A library is a value: the constructor is the only writer of its plans,
    so one library can be shared by every agent with the same program.
    Module registration gives its host a new library instead of writing
    into the old one.

    ``relevant`` answers RelPl from an index built lazily per event category
    and subject: the plans whose trigger admits both, in declaration order.
    Triggers with payload constraints are re-checked against each event.
    Only ``coagent.bdi.reference`` scans the whole library for every event.

    ``by_id`` maps plan id -> plan in declaration order, so the interpreter
    turns a plan id into its body with one subscript.  It is the library's
    own dict, written only by the constructor: read it, never write it.
    """

    def __init__(self, plans: Iterable[Plan] = ()):
        self.by_id: dict[str, Plan] = {}
        for plan in plans:
            if plan.plan_id in self.by_id:
                raise ValueError(f"duplicate plan id {plan.plan_id!r}")
            self.by_id[plan.plan_id] = plan
        #: (category, subject) -> (the plan ids whose trigger admits both;
        #: those plans, to re-check per event, if any has payload
        #: constraints, else None).
        self._relevance: dict[tuple[EventCategory, str], tuple[list[str], list[Plan] | None]] = {}

    def __contains__(self, plan_id: str) -> bool:
        return plan_id in self.by_id

    def __len__(self) -> int:
        return len(self.by_id)

    def relevant(self, te: TriggeringEvent) -> list[str]:
        """Ids of the plans whose trigger matches ``te``, in declaration order.

        The list may be the index's own: read it, never mutate it.
        """
        entry = self._relevance.get((te.category, te.subject))
        if entry is None:
            entry = self._index(te.category, te.subject)
        ids, constrained = entry
        if constrained is None:
            return ids
        return [plan.plan_id for plan in constrained if plan.trigger.matches(te)]

    def _index(
        self, category: EventCategory, subject: str
    ) -> tuple[list[str], list[Plan] | None]:
        probe = TriggeringEvent(category, subject)
        plans = [
            plan
            for plan in self.by_id.values()
            if EventPattern(plan.trigger.categories, plan.trigger.subject).matches(probe)
        ]
        constrained = plans if any(plan.trigger.payload for plan in plans) else None
        entry = self._relevance[category, subject] = ([plan.plan_id for plan in plans], constrained)
        return entry


@dataclass(slots=True)
class PlanRecord:
    """One partially executed plan instance on an intention stack: its plan
    and the triggering event it handles, whose payload and subject its
    expressions read.

    ``waiting_on`` holds the subgoal name this record is suspended on, if any.
    """

    plan_id: str
    trigger_te: TriggeringEvent
    pc: int = 0
    waiting_on: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "plan": self.plan_id,
            "pc": self.pc,
            "waiting_on": self.waiting_on,
            "trigger": self.trigger_te.to_json(),
        }


@dataclass(slots=True)
class Intention:
    """A stack of plan records representing one course of action."""

    intention_id: int
    stack: list[PlanRecord] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.intention_id,
            "stack": [record.to_json() for record in self.stack],
        }
