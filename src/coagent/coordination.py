"""Coordination media and per-agent coordination endpoints.

Media are topic-scoped broadcast channels with a configurable delivery
latency, hidden behind a publish/subscribe interface.  Endpoints shield the
media from agent internals: a publication side observes significant host
state changes (compiled onto the co-efficient event mapping) and publishes
extracted data, and a reaction side interprets perceived coordination
information and injects adjustment events back into the host.  The host
reasoner keeps authority over every injected event.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import EventCategory, EventPattern, TOP, TriggeringEvent
from coagent.bdi.expressions import TRUE, Env, Expr
from coagent.bdi.plans import Act, Plan
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    Placement,
    register_module,
)

#: Action name endpoints register on their host for the publication plans.
PUBLISH_ACTION = "coord.publish"


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

    def to_json(self) -> dict[str, Any]:
        return {
            "process-id": self.process_id,
            "topic": self.topic,
            "payload": dict(self.payload),
            "source": self.source,
            "publish-tick": self.publish_tick,
        }


@dataclass
class _InFlight:
    info: CoordinationInformation
    due_tick: int


@dataclass
class CoordinationMedium:
    """Broadcast-with-latency conduit for one topic.

    Deliveries happen at exactly ``publish tick + latency``; the publishing
    agent's endpoints never receive their own publication.  The publications
    released together by one ``tick_medium`` call go out in due-tick, then
    publication order, unless ``order`` is set: then they go out sorted by
    ``order(info)``, with that order kept on ties.
    """

    topic: str
    latency: int = 0
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

    ``extract`` names host beliefs copied into the publication payload;
    ``extract_event`` maps payload keys to expressions over the observed
    event's bindings (``subject``, ``payload.<key>``).
    """

    observe: EventPattern
    topic: str
    guard: Expr | None = None
    extract: tuple[str, ...] = ()
    extract_event: Mapping[str, Expr] = field(default_factory=dict)


@dataclass(frozen=True)
class ReactionRule:
    """How to react to perceived information: match, guard, injected event."""

    topic: str
    inject: EventTemplate
    match_payload: Mapping[str, Any] = field(default_factory=dict)
    guard: Expr | None = None
    placement: Placement = Placement.NEW_INTENTION

    def matches(self, info: CoordinationInformation) -> bool:
        if info.topic != self.topic:
            return False
        for key, value in self.match_payload.items():
            if key not in info.payload or info.payload[key] != value:
                return False
        return True


@dataclass(frozen=True)
class EndpointDeclaration:
    """Declarative endpoint configuration, one per coordination process."""

    process_id: str
    role: str = ""
    publications: tuple[PublicationRule, ...] = ()
    reactions: tuple[ReactionRule, ...] = ()
    topics: tuple[str, ...] = ()


@dataclass
class CoordinationEndpoint:
    """Per-agent middleware actor for one coordination process."""

    endpoint_id: str
    host: str
    process_id: str
    publication_rules: tuple[PublicationRule, ...]
    reaction_rules: tuple[ReactionRule, ...]
    module: CoefficientModule
    subscriptions: frozenset[str]


def _payload_refs(expr: Expr) -> set[str]:
    return {node.attr for node in ast.walk(expr.tree) if isinstance(node, ast.Attribute)}


def _bare_subject_ref(expr: Expr) -> bool:
    return any(isinstance(node, ast.Name) and node.id == "subject" for node in ast.walk(expr.tree))


def _check_publication(rule: PublicationRule, index: int) -> None:
    path = f"publication-rules[{index}]"
    for key in rule.extract_event:
        if key.startswith("__"):
            raise EndpointDeclarationError(f"{path}: extract-event key {key!r} is reserved")
        if key in rule.extract:
            raise EndpointDeclarationError(
                f"{path}: payload key {key!r} declared in both extract and extract-event"
            )
    if rule.guard is not None:
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


def check_declaration(decl: EndpointDeclaration) -> None:
    """Raise ``EndpointDeclarationError`` unless the declaration can be compiled."""
    if not decl.process_id:
        raise EndpointDeclarationError("endpoint declaration needs a process-id")
    if decl.topics:
        declared = set(decl.topics)
        used = {rule.topic for rule in (*decl.publications, *decl.reactions)}
        if declared != used:
            raise EndpointDeclarationError(
                f"declared topics {sorted(declared)} do not match rule topics {sorted(used)}"
            )
    for index, rule in enumerate(decl.publications):
        _check_publication(rule, index)


def endpoint_module(decl: EndpointDeclaration) -> CoefficientModule:
    """Check a declaration and build the co-efficient module of its publication side.

    Each publication rule becomes one event-mapping entry that injects an
    internal publish goal, plus one plan that performs the publish action;
    the rule guard is re-checked in the plan context so stale goals never
    publish.  The module depends only on the declaration, so one module
    serves every host the declaration is attached to.
    """
    check_declaration(decl)
    module_id = f"ep.{decl.process_id}"
    mapping: list[EventMappingEntry] = []
    plans: list[Plan] = []
    for index, rule in enumerate(decl.publications):
        goal = f"{module_id}.publish.{index}"
        mapping.append(
            EventMappingEntry(
                observe=rule.observe,
                inject=EventTemplate(EventCategory.GOAL_ADDED, goal, dict(rule.extract_event)),
                placement=Placement.NEW_INTENTION,
                guard=rule.guard,
            )
        )
        args: dict[str, Expr] = {
            "__process": Expr(repr(decl.process_id)),
            "__rule": Expr(repr(index)),
        }
        for key in rule.extract_event:
            args[key] = Expr(f"payload.{key}")
        plans.append(
            Plan(
                plan_id=f"publish.{index}",
                trigger=EventPattern(
                    categories=(EventCategory.GOAL_ADDED,), subject=goal
                ),
                context=rule.guard if rule.guard is not None else TRUE,
                body=(Act(PUBLISH_ACTION, args),),
            )
        )
    return CoefficientModule(module_id=module_id, plans=plans, mapping=mapping)


def attach_endpoint(
    decl: EndpointDeclaration, module: CoefficientModule, host_cfg: AgentConfiguration
) -> CoordinationEndpoint:
    """Register a declaration's module on the host and return the host's endpoint.

    Reaction rules stay on the endpoint and are evaluated at delivery time.
    """
    register_module(host_cfg, module)
    if decl.publications:
        host_cfg.circumstance.actions.add(PUBLISH_ACTION)
    return CoordinationEndpoint(
        endpoint_id=f"{host_cfg.agent_id}/{decl.process_id}",
        host=host_cfg.agent_id,
        process_id=decl.process_id,
        publication_rules=tuple(decl.publications),
        reaction_rules=tuple(decl.reactions),
        module=module,
        subscriptions=frozenset(rule.topic for rule in decl.reactions),
    )


def build_publication(
    endpoint: CoordinationEndpoint,
    host_cfg: AgentConfiguration,
    rule_index: int,
    event_fields: Mapping[str, Any],
    now: int,
) -> CoordinationInformation:
    """Assemble the payload for one publication rule: beliefs + event fields."""
    rule = endpoint.publication_rules[rule_index]
    payload: dict[str, Any] = {}
    for key in rule.extract:
        payload[key] = host_cfg.beliefs.get(key)
    for key, value in event_fields.items():
        payload[key] = value
    return CoordinationInformation(
        process_id=endpoint.process_id,
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
    """Deliver perceived information: the first matching rule with a true
    guard injects its event; otherwise the host is unchanged."""
    if info.topic not in endpoint.subscriptions:
        raise RoutingError(
            f"endpoint {endpoint.endpoint_id!r} is not subscribed to {info.topic!r}"
        )
    for rule in endpoint.reaction_rules:
        if not rule.matches(info):
            continue
        if rule.guard is not None:
            env = Env(
                names=host_cfg.beliefs,
                payload=info.payload,
                subject=info.topic,
            )
            if not rule.guard.as_condition(env):
                continue
        perceived = TriggeringEvent(
            EventCategory.MESSAGE_RECEIVED, info.topic, dict(info.payload)
        )
        te_d = rule.inject.instantiate(perceived)
        # No intention is active at delivery time, so current-intention
        # placement degenerates to a new course of action.
        host_cfg.append_event(te_d, TOP)
        break
    return host_cfg
