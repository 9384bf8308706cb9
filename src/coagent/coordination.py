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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

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
    that order kept on ties.
    """

    topic: str
    latency: int
    subscribers: dict[str, str] = field(default_factory=dict)  # endpoint id -> host agent
    in_flight: list[_InFlight] = field(default_factory=list)
    order: Callable[[CoordinationInformation], Any] | None = None

    def subscribe(self, endpoint_id: str, host: str) -> None:
        self.subscribers[endpoint_id] = host


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


def tick_medium(
    medium: CoordinationMedium, now: int
) -> tuple[CoordinationMedium, list[tuple[str, CoordinationInformation]]]:
    """Release all due publications, fanned out to every non-source subscriber.

    The due publications are ordered by due tick, then publication order, and
    then, if the medium has an ``order`` key, stably by that key; each is
    delivered to the subscribers in endpoint-id order.
    """
    due: list[_InFlight] = []
    waiting: list[_InFlight] = []
    for item in medium.in_flight:
        (due if item.due_tick <= now else waiting).append(item)
    medium.in_flight = waiting
    if not due:
        return medium, []
    due.sort(key=lambda item: item.due_tick)
    released = [item.info for item in due]
    if medium.order is not None:
        released.sort(key=medium.order)
    subscribers = sorted(medium.subscribers.items())
    deliveries = [
        (endpoint_id, info)
        for info in released
        for endpoint_id, host in subscribers
        if host != info.source
    ]
    return medium, deliveries


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
        for index, rule in enumerate(self.publications):
            _check_publication(rule, index)
        for index, entry in enumerate(self.reactions):
            topic = entry.observe.subject
            one_topic = topic is not None and not topic.endswith("*")
            if entry.observe.categories != (MESSAGE_RECEIVED,) or not one_topic:
                raise EndpointDeclarationError(
                    f"reaction-rules[{index}]: a reaction must observe "
                    "'message-received' on one named topic"
                )
        topics = frozenset(entry.observe.subject for entry in self.reactions)
        object.__setattr__(self, "topics", topics)
        object.__setattr__(self, "module", _declaration_module(self))


@dataclass
class CoordinationEndpoint:
    """Per-agent middleware actor for one coordination process."""

    endpoint_id: str
    host: str
    decl: EndpointDeclaration


def _payload_refs(expr: Expr) -> set[str]:
    return {node.attr for node in ast.walk(expr.tree) if isinstance(node, ast.Attribute)}


def _bare_subject_ref(expr: Expr) -> bool:
    return any(isinstance(node, ast.Name) and node.id == "subject" for node in ast.walk(expr.tree))


def _check_publication(rule: PublicationRule, index: int) -> None:
    path = f"publication-rules[{index}]"
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
    publish.  The declared plans are exported, so they keep their ids on
    the host.
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


def attach_endpoint(
    decl: EndpointDeclaration, host_cfg: AgentConfiguration
) -> CoordinationEndpoint:
    """Register the declaration's compiled module on the host and return the
    host's endpoint.

    Reactions stay on the endpoint and are applied at delivery time.  The
    hosts of one library that attach one declaration in a row share the new
    library ``register_module`` gives them.  A publishing host gets a new
    action set with the publish action; its old one, which other hosts may
    share, stays as it was.
    """
    register_module(host_cfg, decl.module)
    if decl.publications:
        host_cfg.circumstance.actions = host_cfg.circumstance.actions | {PUBLISH_ACTION}
    return CoordinationEndpoint(
        endpoint_id=_endpoint_id(host_cfg.agent_id, decl.process_id),
        host=host_cfg.agent_id,
        decl=decl,
    )


def _endpoint_id(host: str, process_id: str) -> str:
    return f"{host}/{process_id}"


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
