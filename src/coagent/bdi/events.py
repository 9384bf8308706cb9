"""Reasoning events and event patterns.

A triggering event describes one change in the agent: a belief mutation, a
goal lifecycle transition, a plan lifecycle transition, or an incoming
message.  Events queued for reactive processing are pairs of a triggering
event and the intention that caused it (``TOP`` for external events), tagged
with a monotone sequence number that fixes selection order.

Once an event is built its payload is read-only: events, plan records and
messages share a payload rather than copy it, and no code writes to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping


class EventCategory(str, Enum):
    BELIEF_ADDED = "belief-added"
    BELIEF_UPDATED = "belief-updated"
    BELIEF_REMOVED = "belief-removed"
    GOAL_ADDED = "goal-added"
    GOAL_SUCCEEDED = "goal-succeeded"
    GOAL_FAILED = "goal-failed"
    PLAN_STARTED = "plan-started"
    PLAN_FINISHED = "plan-finished"
    MESSAGE_RECEIVED = "message-received"


# The members as module constants, bound by name, for runtime code (see
# ``coagent.bdi.interpreter``).
BELIEF_ADDED = EventCategory.BELIEF_ADDED
BELIEF_UPDATED = EventCategory.BELIEF_UPDATED
BELIEF_REMOVED = EventCategory.BELIEF_REMOVED
GOAL_ADDED = EventCategory.GOAL_ADDED
GOAL_SUCCEEDED = EventCategory.GOAL_SUCCEEDED
GOAL_FAILED = EventCategory.GOAL_FAILED
PLAN_STARTED = EventCategory.PLAN_STARTED
PLAN_FINISHED = EventCategory.PLAN_FINISHED
MESSAGE_RECEIVED = EventCategory.MESSAGE_RECEIVED


#: Categories a co-efficient module may inject.  Plan lifecycle events exist
#: only on the observation stream and are never legal injection targets.
INJECTABLE_CATEGORIES = frozenset({GOAL_ADDED, BELIEF_UPDATED, MESSAGE_RECEIVED})

class _Top:
    """The empty intention: marks events not tied to any running intention."""

    _instance: "_Top | None" = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()


@dataclass(frozen=True, slots=True, init=False)
class TriggeringEvent:
    """One reasoning event: a category, the identifier it concerns, and bindings.

    Built without a payload (or with ``None``), it gets a fresh ``{}``.
    """

    category: EventCategory
    subject: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self, category: EventCategory, subject: str, payload: Mapping[str, Any] | None = None
    ) -> None:
        _set_category(self, category)
        _set_subject(self, subject)
        _set_payload(self, {} if payload is None else payload)

    def to_json(self) -> dict[str, Any]:
        return {
            "category": self.category.value,
            "subject": self.subject,
            "payload": dict(self.payload),
        }


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """A queued event: the triggering event paired with an intention id (or TOP)."""

    te: TriggeringEvent
    intention: int | _Top
    seq: int

    def __init__(self, te: TriggeringEvent, intention: int | _Top, seq: int) -> None:
        _set_te(self, te)
        _set_intention(self, intention)
        _set_seq(self, seq)

    def to_json(self) -> dict[str, Any]:
        iid = None if self.intention is TOP else self.intention
        return {"te": self.te.to_json(), "intention": iid, "seq": self.seq}


# The slots' own setters, which the ``__init__``s above call: a frozen
# dataclass's generated ``__init__`` sets each field through
# ``object.__setattr__``, at about twice the cost (see
# ``coagent.bdi.interpreter``).  Bound from the final classes, since
# ``slots=True`` makes the decorator return a new class.
_set_category = TriggeringEvent.__dict__["category"].__set__
_set_subject = TriggeringEvent.__dict__["subject"].__set__
_set_payload = TriggeringEvent.__dict__["payload"].__set__
_set_te = Event.__dict__["te"].__set__
_set_intention = Event.__dict__["intention"].__set__
_set_seq = Event.__dict__["seq"].__set__


@dataclass(frozen=True)
class EventPattern:
    """Matches triggering events by category, subject, and payload bindings.

    ``categories`` of ``None`` matches any category, otherwise the event's
    category must be listed.  ``subject`` is an exact identifier, a prefix
    pattern ending in ``*``, or ``None`` for any subject.  ``payload`` lists
    required key/value bindings; keys not listed are wildcards.
    """

    categories: tuple[EventCategory, ...] | None = None
    subject: str | None = None
    payload: Mapping[str, Any] = field(default_factory=dict)

    def matches(self, te: TriggeringEvent) -> bool:
        if self.categories is not None and te.category not in self.categories:
            return False
        if self.subject is not None:
            if self.subject.endswith("*"):
                if not te.subject.startswith(self.subject[:-1]):
                    return False
            elif te.subject != self.subject:
                return False
        for key, value in self.payload.items():
            if key not in te.payload or te.payload[key] != value:
                return False
        return True


def pattern(
    category: EventCategory | str | list | tuple | None,
    subject: str | None = None,
    payload: Mapping[str, Any] | None = None,
) -> EventPattern:
    """Convenience constructor accepting single categories, lists, or names."""
    cats: tuple[EventCategory, ...] | None
    if category is None:
        cats = None
    elif isinstance(category, (list, tuple)):
        cats = tuple(EventCategory(c) for c in category)
    else:
        cats = (EventCategory(category),)
    return EventPattern(categories=cats, subject=subject, payload=dict(payload or {}))
