"""Coordination media and per-agent coordination endpoints.

Media are topic-scoped broadcast channels with a configurable delivery
latency, hidden behind a publish/subscribe interface.  Endpoints shield the
media from agent internals: a publication side observes significant host
state changes (compiled onto the co-efficient event mapping) and publishes
extracted data, and a reaction side interprets perceived coordination
information and injects adjustment events back into the host, through the
co-efficient injection rule.  The host reasoner keeps authority over every
injected event.

A declaration checks itself and compiles its module, its publication side
and the plans it declares, when it is built, so a built declaration is always
valid and complete.  This module owns the endpoint protocol: the compiled
module encodes which endpoint and rule a publish action comes from,
``build_publication`` decodes a performed publish action back into its
publication, and endpoint ids are formed only here.  A host environment
routes the action without knowing its argument format.
"""

from __future__ import annotations

import ast
import keyword
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Sequence

from coagent.bdi.beliefs import RESERVED_NAMES
from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import GOAL_ADDED, MESSAGE_RECEIVED, TOP, EventPattern, TriggeringEvent
from coagent.bdi.expressions import TRUE, Expr
from coagent.bdi.plans import Act, Plan
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    NEW_INTENTION,
    apply_mapping,
    register_module,
)

#: Action name endpoints register on their host for the publication plans.
PUBLISH_ACTION = "coord.publish"

#: Publish-action arguments naming the publishing endpoint's process and
#: rule; extract-event keys may not start with ``__``, so they never clash.
_PROCESS_ARG = "__process"
_RULE_ARG = "__rule"


class RoutingError(ValueError):
    """Publication or delivery on a topic the component is not bound to."""


class EndpointDeclarationError(ValueError):
    """Invalid endpoint declaration."""


@dataclass(frozen=True)
class CoordinationInformation:
    """One published data element flowing through a medium."""

    process_id: str
    topic: str
    payload: Mapping[str, Any]
    source: str
    publish_tick: int

    @cached_property
    def perceived(self) -> TriggeringEvent:
        """The event every subscriber's reactions observe: ``message-received
        <topic>`` carrying the payload itself, built once per publication."""
        return TriggeringEvent(MESSAGE_RECEIVED, self.topic, self.payload)


@dataclass
class _InFlight:
    info: CoordinationInformation
    due_tick: int


@dataclass
class CoordinationMedium:
    """Broadcast-with-latency conduit for one topic.

    Deliveries happen at exactly ``publish tick + latency``, and a medium
    names its latency: it has no default.  The publishing agent's endpoints
    never receive their own publication.  The publications released together
    by one ``tick_medium`` call go out in due-tick, then publication order,
    unless ``order`` is set: then they go out sorted by ``order(info)``, with
    that order kept on ties.  A release is a ``Release`` view, which makes
    each delivery pair only when it is read, so a broadcast to many
    subscribers builds no list of them.
    """

    topic: str
    latency: int
    subscribers: dict[str, str] = field(default_factory=dict)  # endpoint id -> host agent
    in_flight: list[_InFlight] = field(default_factory=list)
    order: Callable[[CoordinationInformation], Any] | None = None

    def subscribe(self, endpoint_id: str, host: str) -> None:
        self.subscribers[endpoint_id] = host


class Release:
    """The deliveries of one ``tick_medium`` call, as a sized view.

    It holds the released publications, in delivery order, and the
    subscribers as ``(endpoint id, host)`` pairs sorted by endpoint id, and
    reads as the ``(endpoint id, publication)`` pairs: each publication, in
    order, to every subscriber whose host is not its source.  A pair is made
    only when it is read, and reading again gives the same pairs.  ``len``
    counts the pairs without making them; nothing on the delivery path
    calls it.
    """

    __slots__ = ("released", "subscribers")

    def __init__(
        self,
        released: Sequence[CoordinationInformation],
        subscribers: Sequence[tuple[str, str]],
    ) -> None:
        self.released = released
        self.subscribers = subscribers

    def __iter__(self) -> Iterator[tuple[str, CoordinationInformation]]:
        # An empty release, what most calls give, starts no generator.
        return self._pairs() if self.released else iter(())

    def _pairs(self) -> Iterator[tuple[str, CoordinationInformation]]:
        subscribers = self.subscribers
        for info in self.released:
            source = info.source
            for endpoint_id, host in subscribers:
                if host != source:
                    yield endpoint_id, info

    def __len__(self) -> int:
        hosts = Counter(host for _, host in self.subscribers)
        count = len(self.subscribers)
        return sum(count - hosts[info.source] for info in self.released)


#: The release of a call with nothing due.
_NO_RELEASE = Release((), ())


def publish(
    medium: CoordinationMedium, info: CoordinationInformation, now: int
) -> CoordinationMedium:
    """Enqueue a publication for delivery at ``now + latency``."""
    if info.topic != medium.topic:
        raise RoutingError(
            f"publication for topic {info.topic!r} sent to medium {medium.topic!r}"
        )
    medium.in_flight.append(_InFlight(info=info, due_tick=now + medium.latency))
    return medium


def tick_medium(medium: CoordinationMedium, now: int) -> tuple[CoordinationMedium, Release]:
    """Release all due publications, fanned out to every non-source subscriber.

    The due publications are ordered by due tick, then publication order, and
    then, if the medium has an ``order`` key, stably by that key; each is
    delivered to the subscribers in endpoint-id order.  The deliveries come
    back as a ``Release`` view, on every path: the subscribers are sorted
    once per call, and no delivery pair is made until it is read.
    """
    due: list[_InFlight] = []
    waiting: list[_InFlight] = []
    for item in medium.in_flight:
        (due if item.due_tick <= now else waiting).append(item)
    medium.in_flight = waiting
    if not due:
        return medium, _NO_RELEASE
    due.sort(key=lambda item: item.due_tick)
    released = [item.info for item in due]
    if medium.order is not None:
        released.sort(key=medium.order)
    return medium, Release(released, sorted(medium.subscribers.items()))


@dataclass(frozen=True)
class PublicationRule:
    """When to publish: observed host event, guard, topic, and payload spec.

    A guard left out is ``TRUE``, which always holds and is never
    evaluated.  ``extract`` names host beliefs copied into the publication
    payload; ``extract_event`` maps payload keys to expressions over the
    observed event (``subject``, ``payload.<key>``).
    """

    observe: EventPattern
    topic: str
    guard: Expr = TRUE
    extract: tuple[str, ...] = ()
    extract_event: Mapping[str, Expr] = field(default_factory=dict)


@dataclass(frozen=True)
class EndpointDeclaration:
    """Declarative endpoint configuration, one per coordination process.

    A declaration names its ``role``, the kind of agent it is attached to;
    it has no default.  ``reactions`` are mapping entries on
    ``message-received``, one named topic each.  ``plans`` are the plans
    that pursue what the process asks of its hosts, such as the goals its
    reactions inject; they reach a host only through the declaration's
    module, under their own ids.  Building a declaration checks it, raising
    ``EndpointDeclarationError``, and derives ``topics``, the topics its
    reactions subscribe to, and ``module``, the co-efficient module of its
    publication side and its plans.  Both depend only on the declaration, so
    every host it is attached to shares them.
    """

    process_id: str
    role: str
    publications: tuple[PublicationRule, ...] = ()
    reactions: tuple[EventMappingEntry, ...] = ()
    plans: tuple[Plan, ...] = ()
    topics: frozenset[str] = field(init=False, repr=False, compare=False)
    module: CoefficientModule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.process_id:
            raise EndpointDeclarationError("endpoint declaration needs a process-id")
        # An endpoint id is ``<host>/<process id>``: a host id may hold a
        # slash, so a process id may not, or two endpoints could share an id.
        if "/" in self.process_id:
            raise EndpointDeclarationError(
                f"process-id {self.process_id!r} must not contain '/'"
            )
        for index, rule in enumerate(self.publications):
            _check_publication(rule, index)
        for index, entry in enumerate(self.reactions):
            topic = entry.observe.subject
            one_topic = bool(topic) and not topic.endswith("*")
            if entry.observe.categories != (MESSAGE_RECEIVED,) or not one_topic:
                raise EndpointDeclarationError(
                    f"reaction-rules[{index}]: a reaction must observe "
                    "'message-received' on one named topic"
                )
        topics = frozenset(entry.observe.subject for entry in self.reactions)
        object.__setattr__(self, "topics", topics)
        object.__setattr__(self, "module", _declaration_module(self))


@dataclass(slots=True, init=False)
class CoordinationEndpoint:
    """Per-agent middleware actor for one coordination process: the host's
    endpoint of ``decl``, whose id is ``<host>/<process id>``, unique since a
    process id holds no slash."""

    endpoint_id: str
    host: str
    decl: EndpointDeclaration

    def __init__(self, host: str, decl: EndpointDeclaration) -> None:
        self.endpoint_id = _endpoint_id(host, decl.process_id)
        self.host = host
        self.decl = decl


#: An endpoint id from its host and process id.  A bound C method, so
#: forming an id enters no Python frame.
_endpoint_id = "{}/{}".format


def _payload_refs(expr: Expr) -> set[str]:
    return {node.attr for node in ast.walk(expr.tree) if isinstance(node, ast.Attribute)}


def _bare_subject_ref(expr: Expr) -> bool:
    return any(isinstance(node, ast.Name) and node.id == "subject" for node in ast.walk(expr.tree))


def _check_publication(rule: PublicationRule, index: int) -> None:
    path = f"publication-rules[{index}]"
    if not rule.topic:
        raise EndpointDeclarationError(f"{path}: topic must not be empty")
    # Each extract name is a host belief, copied once into the payload.
    for position, name in enumerate(rule.extract):
        if not name or name in RESERVED_NAMES:
            raise EndpointDeclarationError(
                f"{path}: extract name {name!r} is empty or a reserved name"
            )
        if name in rule.extract[:position]:
            raise EndpointDeclarationError(f"{path}: extract name {name!r} is listed twice")
    for key in rule.extract_event:
        if not key.isidentifier() or keyword.iskeyword(key):
            raise EndpointDeclarationError(f"{path}: extract-event key {key!r} is not a name")
        if key.startswith("__"):
            raise EndpointDeclarationError(f"{path}: extract-event key {key!r} is reserved")
        if key in rule.extract:
            raise EndpointDeclarationError(
                f"{path}: payload key {key!r} declared in both extract and extract-event"
            )
    if _bare_subject_ref(rule.guard):
        raise EndpointDeclarationError(
            f"{path}: publication guards may not reference 'subject'; "
            "carry it through extract-event instead"
        )
    missing = _payload_refs(rule.guard) - set(rule.extract_event)
    if missing:
        raise EndpointDeclarationError(
            f"{path}: guard references event fields {sorted(missing)} "
            "not named in extract-event"
        )


def _declaration_module(decl: EndpointDeclaration) -> CoefficientModule:
    """The co-efficient module of a declaration: its publication side, then
    its declared plans.

    Each publication rule becomes one event-mapping entry that injects an
    internal publish goal, plus one plan that performs the publish action;
    the rule guard is re-checked in the plan context so stale goals never
    publish.  Registration reads names alike in mapping guards and plan
    contexts, so the guard means the same in both.  The declared plans are
    exported, so they keep their ids on the host.
    """
    module_id = f"ep.{decl.process_id}"
    mapping: list[EventMappingEntry] = []
    plans: list[Plan] = []
    for index, rule in enumerate(decl.publications):
        goal = f"{module_id}.publish.{index}"
        mapping.append(
            EventMappingEntry(
                observe=rule.observe,
                inject=EventTemplate(GOAL_ADDED, goal, dict(rule.extract_event)),
                placement=NEW_INTENTION,
                guard=rule.guard,
            )
        )
        args: dict[str, Expr] = {
            _PROCESS_ARG: Expr(repr(decl.process_id)),
            _RULE_ARG: Expr(repr(index)),
        }
        for key in rule.extract_event:
            args[key] = Expr(f"payload.{key}")
        plans.append(
            Plan(
                plan_id=f"publish.{index}",
                trigger=EventPattern(
                    categories=(GOAL_ADDED,), subject=goal
                ),
                context=rule.guard,
                body=(Act(PUBLISH_ACTION, args),),
            )
        )
    return CoefficientModule(
        module_id=module_id,
        plans=[*plans, *decl.plans],
        mapping=mapping,
        exports=frozenset(plan.plan_id for plan in decl.plans),
    )


def register_declaration(decl: EndpointDeclaration, host_cfg: AgentConfiguration) -> None:
    """Register the declaration's compiled module on the host, and give a
    publishing host a new action set with the publish action.

    Like ``register_module``, this writes into none of the host's old
    values, which other hosts may share.  The module declares no beliefs, so
    what a host gets depends only on the values it held: hosts that share
    them may register a declaration once, on one of them, and take the
    results (see ``build_scenario``).
    """
    register_module(host_cfg, decl.module)
    if decl.publications:
        host_cfg.circumstance.actions = host_cfg.circumstance.actions | {PUBLISH_ACTION}


def attach_endpoint(
    decl: EndpointDeclaration, host_cfg: AgentConfiguration
) -> CoordinationEndpoint:
    """Register the declaration on the host (see ``register_declaration``)
    and return the host's endpoint.

    Reactions stay on the endpoint and are applied at delivery time.  Each
    host that attaches a declaration gets its own new values: a library
    when the declaration's module carries plans, a module table, mapping,
    hook list and, when the declaration publishes, action set.  A build
    registers each declaration once per role instead, and its members share
    all of these.
    """
    register_declaration(decl, host_cfg)
    return CoordinationEndpoint(host_cfg.agent_id, decl)


def build_publication(
    endpoints: Mapping[str, CoordinationEndpoint],
    host_cfg: AgentConfiguration,
    args: Mapping[str, Any],
    now: int,
) -> CoordinationInformation:
    """Decode a performed publish action into the publication it stands for.

    ``args`` are the action's arguments as performed by the host; they name
    one of the host's endpoints in ``endpoints`` (keyed by endpoint id) and
    its publication rule.  The payload holds the rule's ``extract`` beliefs,
    then the observed event's fields.
    """
    endpoint = endpoints[_endpoint_id(host_cfg.agent_id, args[_PROCESS_ARG])]
    rule = endpoint.decl.publications[args[_RULE_ARG]]
    payload = {key: host_cfg.beliefs.get(key) for key in rule.extract}
    payload.update(
        (key, value) for key, value in args.items() if key not in (_PROCESS_ARG, _RULE_ARG)
    )
    return CoordinationInformation(
        process_id=endpoint.decl.process_id,
        topic=rule.topic,
        payload=payload,
        source=host_cfg.agent_id,
        publish_tick=now,
    )


def endpoint_deliver(
    endpoint: CoordinationEndpoint,
    info: CoordinationInformation,
    host_cfg: AgentConfiguration,
) -> AgentConfiguration:
    """Deliver perceived information: the endpoint's reactions observe it as
    ``message-received <topic>`` and inject a new course of action, or nothing."""
    if info.topic not in endpoint.decl.topics:
        raise RoutingError(
            f"endpoint {endpoint.endpoint_id!r} is not subscribed to {info.topic!r}"
        )
    apply_mapping(host_cfg, endpoint.decl.reactions, info.perceived, TOP)
    return host_cfg
