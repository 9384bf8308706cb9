"""Plans, body steps, plan records, and intentions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from coagent.bdi.events import EventPattern, TriggeringEvent
from coagent.bdi.expressions import TRUE, Expr


@dataclass(frozen=True)
class Act:
    """Invoke a named action on the environment adapter."""

    name: str
    args: Mapping[str, Expr] = field(default_factory=dict)


@dataclass(frozen=True)
class Subgoal:
    """Post an achievement goal on the current intention and wait for it."""

    goal: str
    args: Mapping[str, Expr] = field(default_factory=dict)


@dataclass(frozen=True)
class Believe:
    """Write a belief; the value expression is evaluated at execution time."""

    key: str
    value: Expr


@dataclass(frozen=True)
class Unbelieve:
    """Drop a belief if present."""

    key: str


@dataclass(frozen=True)
class Send:
    """Queue a message to another agent in the outbox."""

    to: str
    payload: Mapping[str, Expr] = field(default_factory=dict)


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
    """Ordered plan collection; declaration order breaks applicable-plan ties."""

    def __init__(self, plans: list[Plan] | None = None):
        self._plans: dict[str, Plan] = {}
        for plan in plans or []:
            self.add(plan)

    def add(self, plan: Plan) -> None:
        if plan.plan_id in self._plans:
            raise ValueError(f"duplicate plan id {plan.plan_id!r}")
        self._plans[plan.plan_id] = plan

    def get(self, plan_id: str) -> Plan:
        return self._plans[plan_id]

    def __contains__(self, plan_id: str) -> bool:
        return plan_id in self._plans

    def __len__(self) -> int:
        return len(self._plans)

    def in_order(self) -> list[Plan]:
        return list(self._plans.values())


@dataclass
class PlanRecord:
    """One partially executed plan instance on an intention stack.

    ``bindings`` is the triggering event's payload, shared and read-only.
    ``waiting_on`` holds the subgoal name this record is suspended on, if any.
    """

    plan_id: str
    trigger_te: TriggeringEvent
    bindings: Mapping[str, Any]
    pc: int = 0
    waiting_on: str | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "plan": self.plan_id,
            "pc": self.pc,
            "waiting_on": self.waiting_on,
            "trigger": self.trigger_te.to_json(),
        }


@dataclass
class Intention:
    """A stack of plan records representing one course of action."""

    intention_id: int
    stack: list[PlanRecord] = field(default_factory=list)

    @property
    def top(self) -> PlanRecord:
        return self.stack[-1]

    def is_runnable(self, library: PlanLibrary) -> bool:
        """True when the top record has an executable next step."""
        if not self.stack:
            return False
        top = self.top
        if top.waiting_on is not None:
            return False
        return top.pc < len(library.get(top.plan_id).body)

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.intention_id,
            "stack": [record.to_json() for record in self.stack],
        }
