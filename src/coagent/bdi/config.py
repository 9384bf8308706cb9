"""Agent configurations: the complete interpreter state rewritten by the cycle."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.events import TOP, Event, TriggeringEvent, _Top
# ActionFault and Message are defined beside the body steps that raise and send them.
from coagent.bdi.plans import ActionFault, Intention, Message, PlanLibrary


class Step(str, Enum):
    """The nine steps of the reasoning cycle, in wrap order."""

    PROC_MSG = "ProcMsg"
    SEL_EV = "SelEv"
    REL_PL = "RelPl"
    APPL_PL = "ApplPl"
    SEL_APPL = "SelAppl"
    ADD_IM = "AddIm"
    SEL_INT = "SelInt"
    EXEC_INT = "ExecInt"
    CLR_INT = "ClrInt"


# The members as module constants, bound by name, for runtime code: a
# module-global read is cheaper than an Enum member lookup (see
# ``coagent.bdi.interpreter``).
PROC_MSG = Step.PROC_MSG
SEL_EV = Step.SEL_EV
REL_PL = Step.REL_PL
APPL_PL = Step.APPL_PL
SEL_APPL = Step.SEL_APPL
ADD_IM = Step.ADD_IM
SEL_INT = Step.SEL_INT
EXEC_INT = Step.EXEC_INT
CLR_INT = Step.CLR_INT


class ConfigurationCorruption(RuntimeError):
    """Raised when an interpreter invariant is violated (signals a bug)."""


class EnvironmentAdapter(Protocol):
    """Executes actions on behalf of an agent; must respond deterministically."""

    def perform(self, cfg: "AgentConfiguration", action: str, args: dict[str, Any]) -> None:
        """Apply the action's effect; raise ActionFault for unknown actions."""


class InertEnvironment:
    """Accepts every action; no effects.

    The interpreters reject actions outside the agent's action set before
    they reach the environment.
    """

    def perform(self, cfg: "AgentConfiguration", action: str, args: dict[str, Any]) -> None:
        pass


@dataclass(slots=True)
class MailState:
    """Minimal agent communication state: FIFO inbox and outbox."""

    inbox: list[Message] = field(default_factory=list)
    outbox: list[Message] = field(default_factory=list)


@dataclass(slots=True)
class Circumstance:
    """Execution context: intentions, pending events, available actions.

    ``actions`` is a frozenset, so one action set can be shared by every
    agent with the same program; registration replaces it, never writes it.

    ``intentions`` iterates in ascending id order: its only writer is
    ``AgentConfiguration.new_intention``, which inserts each intention under
    a fresh id greater than every id before it, and intentions are only ever
    removed.  The interpreter schedules and clears intentions in that order
    without sorting.

    ``pending`` counts the queued events paired with each intention id, so
    dropping an intention only rewrites the queue when something in it still
    refers to that id.
    """

    intentions: dict[int, Intention] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    actions: frozenset[str] = frozenset()
    pending: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class TempInfo:
    """Volatile per-cycle data used between reasoning steps.

    ``relevant`` and ``applicable`` are read-only: ``relevant`` may be the
    plan library's own indexed list, and both start, and are reset to, ``()``.
    """

    relevant: Sequence[str] = ()
    applicable: Sequence[str] = ()
    iota: int | None = None
    rho: str | None = None
    epsilon: Event | None = None


#: The library of every agent built without plans; its index only ever
#: holds empty answers.
_NO_PLANS = PlanLibrary()

#: The module table and mapping of every agent before registration: one
#: shared empty dict, read-only like every registered table (a mapping proxy
#: would be truly read-only, but configurations must stay deep-copyable).
_NO_ENTRIES: Mapping[str, Any] = {}


class AgentConfiguration:
    """The full interpreter state: program, circumstance, mail, temp data, step.

    Configurations are mutated only by their own reasoning steps (and by
    architecture-level writers such as external belief updates).  Their plan
    library, action set, module table, mapping and observation hooks are
    read-only values that other configurations may share: module
    registration replaces them, never writes them.  A shared library's
    relevance index still fills lazily, but each entry is a deterministic
    function of immutable plans, stored by one dict assignment; so
    configurations are safe to hand between threads as long as a single
    thread drives each one.
    """

    def __init__(
        self,
        agent_id: str,
        beliefs: BeliefBase | None = None,
        plans: PlanLibrary = _NO_PLANS,
        actions: Iterable[str] = frozenset(),
        environment: EnvironmentAdapter | None = None,
        record_observations: bool = True,
    ):
        self.agent_id = agent_id
        # ``is None``, not truthiness: an empty belief base passed in is kept.
        self.beliefs = BeliefBase() if beliefs is None else beliefs
        self.plans = plans
        self.circumstance = Circumstance({}, [], frozenset(actions), {})
        self.mail = MailState([], [])
        self.temp = TempInfo((), (), None, None, None)
        self.step: Step = PROC_MSG
        self.environment: EnvironmentAdapter = (
            InertEnvironment() if environment is None else environment
        )
        #: Whether ``observe`` keeps a record; ``observations`` stays empty when not.
        self.record_observations = record_observations
        self.observations: list[dict[str, Any]] = []
        # Co-efficient machinery, populated by module registration, which
        # replaces these shared empty values.
        self.modules: Mapping[str, Any] = _NO_ENTRIES
        #: Module id -> its mapping entries, for modules that declare any.
        self.mapping: Mapping[str, tuple[Any, ...]] = _NO_ENTRIES
        self.select_event_override: Callable[["AgentConfiguration"], "AgentConfiguration"] | None = None
        self.observation_hooks: Sequence[Callable[["AgentConfiguration", TriggeringEvent, int | _Top], None]] = ()
        self._next_seq = 0
        self._next_intention = 1
        self.last_intention_run: int | None = None
        #: While a scheduler lets the agent sleep, the callable that wakes
        #: it, called with the agent; otherwise None.  ``coagent.scenarios``
        #: sets and clears it.
        self.wake: Callable[["AgentConfiguration"], None] | None = None

    # -- event plumbing -----------------------------------------------------

    def append_event(self, te: TriggeringEvent, intention: int | _Top) -> Event:
        """Queue an event; the one funnel for belief writes, injections,
        deliveries and goal outcomes, so it also wakes a sleeping agent."""
        event = Event(te, intention, self._next_seq)
        self._next_seq += 1
        self.circumstance.events.append(event)
        if intention is not TOP:
            pending = self.circumstance.pending
            pending[intention] = pending.get(intention, 0) + 1  # type: ignore[index]
        if self.wake is not None:
            self.wake(self)
        return event

    def new_intention(self) -> Intention:
        intention = Intention(self._next_intention)
        self._next_intention += 1
        self.circumstance.intentions[intention.intention_id] = intention
        return intention

    def write_belief(self, key: str, value: Any) -> Event | None:
        """Architecture-level belief write: event enters the queue paired with TOP."""
        te = self.beliefs.set(key, value)
        if te is None:
            return None
        return self.append_event(te, TOP)

    def observe(
        self,
        kind: str,
        te: TriggeringEvent | None = None,
        intention: int | _Top = TOP,
        notify: bool = False,
        **extra: Any,
    ) -> None:
        """Record an observation-stream entry; optionally notify module observers.

        Only plan lifecycle events are notified: they are observable by
        event mappings without ever entering the reactive event queue.  The
        notification always happens; the record is built and kept only when
        ``record_observations`` is set (the default; ``build_scenario``
        clears it unless the run writes the agent log).  The interpreter
        calls this only when a record or a notification can follow.
        """
        if self.record_observations:
            record: dict[str, Any] = {"kind": kind}
            if te is not None:
                record["te"] = te.to_json()
            if te is not None or intention is not TOP:
                record["intention"] = None if intention is TOP else intention
            record.update(extra)
            self.observations.append(record)
        if notify and te is not None:
            for hook in self.observation_hooks:
                hook(self, te, intention)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Canonical view of the semantic state, used for trace comparison."""
        temp = self.temp
        return {
            "agent": self.agent_id,
            "step": self.step.value,
            "beliefs": dict(sorted(self.beliefs.as_dict().items())),
            "events": [event.to_json() for event in self.circumstance.events],
            "intentions": [
                self.circumstance.intentions[iid].to_json()
                for iid in sorted(self.circumstance.intentions)
            ],
            "temp": {
                "relevant": list(temp.relevant),
                "applicable": list(temp.applicable),
                "iota": temp.iota,
                "rho": temp.rho,
                "epsilon": temp.epsilon.to_json() if temp.epsilon else None,
            },
            "inbox": [message.to_json() for message in self.mail.inbox],
            "outbox": [message.to_json() for message in self.mail.outbox],
            "observations": [dict(record) for record in self.observations],
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))
