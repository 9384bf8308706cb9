"""Ground key-value belief base.

Belief values are integers, floats, booleans, or symbols (strings).  Every
actual mutation produces exactly one triggering event describing the change;
writing a value equal to the stored one is a no-op and yields no event.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from coagent.bdi.events import BELIEF_ADDED, BELIEF_REMOVED, BELIEF_UPDATED, TriggeringEvent

BeliefValue = int | float | bool | str

#: Names the expression language reserves; belief keys must avoid them.
RESERVED_NAMES = frozenset({"payload", "subject", "true", "false", "abs", "min", "max", "not"})


class BeliefError(ValueError):
    """Raised for illegal belief keys or values."""


def _check_key(key: str) -> None:
    if not key or not isinstance(key, str):
        raise BeliefError(f"belief key must be a non-empty string, got {key!r}")
    if key in RESERVED_NAMES:
        raise BeliefError(f"belief key {key!r} collides with a reserved expression name")


class BeliefBase:
    """Map from belief key to ground value, emitting change events on mutation.

    ``get(key, default=None)`` is the facts dict's own ``get``, bound per
    instance, so a read (every bare name an expression reads) enters no
    Python frame.  Copies and unpickled instances bind it to their own facts.
    """

    def __init__(self, facts: dict[str, BeliefValue] | None = None):
        self._facts = own = {}
        self.get = own.get
        if facts:
            for key, value in facts.items():
                # ``_check_key``'s test, inline: its frame only for a refusal.
                if not key or not isinstance(key, str) or key in RESERVED_NAMES:
                    _check_key(key)
                own[key] = value

    def _bind(self, facts: dict[str, BeliefValue]) -> None:
        self._facts = facts
        self.get: Callable[..., Any] = facts.get

    def __getstate__(self) -> dict[str, Any]:
        return {"_facts": self._facts}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._bind(state["_facts"])

    def __contains__(self, key: str) -> bool:
        return key in self._facts

    def __iter__(self) -> Iterator[str]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def as_dict(self) -> dict[str, BeliefValue]:
        return dict(self._facts)

    def set(self, key: str, value: BeliefValue) -> TriggeringEvent | None:
        """Store a value; returns the belief-added/belief-updated event, or None."""
        _check_key(key)
        if key in self._facts:
            old = self._facts[key]
            if old == value and type(old) is type(value):
                return None
            self._facts[key] = value
            return TriggeringEvent(BELIEF_UPDATED, key, {"old": old, "new": value})
        self._facts[key] = value
        return TriggeringEvent(BELIEF_ADDED, key, {"value": value})

    def remove(self, key: str) -> TriggeringEvent | None:
        """Drop a belief; returns the belief-removed event, or None if absent."""
        if key not in self._facts:
            return None
        old = self._facts.pop(key)
        return TriggeringEvent(BELIEF_REMOVED, key, {"old": old})
