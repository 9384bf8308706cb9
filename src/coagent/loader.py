"""Loading and validation of declarative documents.

Two document kinds are supported, both JSON:

* agent programs -- beliefs, action set, plans, optional co-efficient
  modules, and external events to post (used by the oracle runner and
  tests);
* scenario configurations -- servers, services, brokers, demand schedule,
  media latencies, and an optional endpoint-declaration section, which
  ``parse_endpoints`` parses, as it parses the packaged canonical
  declarations (see ``coagent.scenarios.canonical_endpoints``).

Every guard, context, and value expression is parsed and checked at load
time; expression errors never surface at run time.  All validation failures
raise ``ConfigError`` carrying a path-qualified message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from coagent.bdi.beliefs import RESERVED_NAMES, BeliefBase
from coagent.bdi.config import AgentConfiguration, EnvironmentAdapter
from coagent.bdi.events import (
    EventCategory,
    EventPattern,
    TriggeringEvent,
)
from coagent.bdi.expressions import Expr, ExpressionSyntaxError, TRUE
from coagent.bdi.plans import Act, Believe, BodyStep, Plan, PlanLibrary, Send, Subgoal, Unbelieve
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    MappingError,
    ModuleRegistrationError,
    Placement,
    register_module,
)
from coagent.coordination import (
    EndpointDeclaration,
    EndpointDeclarationError,
    PublicationRule,
)
from coagent.scenarios import DemandDelta, ScenarioConfig, ScenarioError, ServerSpec, ServiceSpec


class ConfigError(ValueError):
    """A document failed to parse or validate; the message names the path."""


def _fail(path: str, message: str) -> "ConfigError":
    return ConfigError(f"{path}: {message}")


def _require(obj: Any, path: str, kind: type | tuple[type, ...], what: str) -> Any:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # JSON true/false load as bools, which Python also counts as ints.
    if not isinstance(obj, kinds) or (isinstance(obj, bool) and bool not in kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise _fail(path, f"{what} must be {names}, got {type(obj).__name__}")
    return obj


def _optional(
    obj: Mapping[str, Any], key: str, path: str, kind: type | tuple[type, ...], default: Any
) -> Any:
    """The value under ``key``, type-checked unless ``kind`` is None (any
    value); ``default`` when absent or null."""
    value = obj.get(key)
    if value is None:
        return default
    return value if kind is None else _require(value, f"{path}.{key}", kind, key)


def _each(
    obj: Mapping[str, Any], key: str, path: str, parse: Callable[[Any, str], Any]
) -> list[Any]:
    """The list under ``key``, absent or null read as empty, with each item
    parsed by ``parse`` at ``{path}.{key}[{index}]``."""
    return [
        parse(item, f"{path}.{key}[{index}]")
        for index, item in enumerate(_optional(obj, key, path, list, []))
    ]


def _strings(obj: Mapping[str, Any], key: str, path: str) -> tuple[str, ...]:
    return tuple(_each(obj, key, path, lambda item, at: _require(item, at, str, key)))


def _belief_key(key: Any, path: str) -> str:
    """``key``, if it may name a belief: a string, not empty, not a reserved name."""
    _require(key, path, str, "belief key")
    if not key or key in RESERVED_NAMES:
        raise _fail(path, f"belief key {key!r} is empty or a reserved name")
    return key


def _parse_beliefs(obj: Mapping[str, Any], path: str) -> dict[str, Any]:
    beliefs = dict(_optional(obj, "beliefs", path, dict, {}))
    for key, value in beliefs.items():
        _belief_key(key, f"{path}.beliefs")
        _require(value, f"{path}.beliefs.{key}", (int, float, bool, str), "belief value")
    return beliefs


def _check_keys(obj: Mapping[str, Any], path: str, allowed: set[str], required: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(obj)
    if missing:
        raise _fail(path, f"missing required keys {sorted(missing)}")


def _parse_expr(source: Any, path: str) -> Expr:
    _require(source, path, str, "expression")
    try:
        return Expr(source)
    except ExpressionSyntaxError as exc:
        raise _fail(path, str(exc)) from None


def _parse_optional_expr(obj: Mapping[str, Any], key: str, path: str) -> Expr:
    """The expression under ``key``; ``TRUE`` when absent or null."""
    if obj.get(key) is None:
        return TRUE
    return _parse_expr(obj[key], f"{path}.{key}")


def _parse_category(value: Any, path: str) -> EventCategory:
    try:
        return EventCategory(value)
    except ValueError:
        raise _fail(
            path,
            f"unknown event category {value!r}; one of {[c.value for c in EventCategory]}",
        ) from None


def parse_pattern(obj: Any, path: str) -> EventPattern:
    """Parse an event pattern: category (single or list), subject, payload."""
    _require(obj, path, dict, "event pattern")
    _check_keys(obj, path, {"category", "subject", "payload"}, set())
    categories = obj.get("category")
    if isinstance(categories, list):
        # Every event has a category, so an empty list would match none.
        if not categories:
            raise _fail(f"{path}.category", "category list must be non-empty")
        categories = tuple(_parse_category(c, f"{path}.category") for c in categories)
    elif categories is not None:
        categories = (_parse_category(categories, f"{path}.category"),)
    subject = _optional(obj, "subject", path, str, None)
    payload = _optional(obj, "payload", path, dict, {})
    return EventPattern(categories=categories, subject=subject, payload=dict(payload))


def parse_template(obj: Any, path: str) -> EventTemplate:
    """Parse an injectable event template with payload expressions."""
    _require(obj, path, dict, "event template")
    _check_keys(obj, path, {"category", "subject", "payload"}, {"category", "subject"})
    category = _parse_category(obj["category"], f"{path}.category")
    subject = _require(obj["subject"], f"{path}.subject", str, "subject")
    payload = _parse_args(obj, "payload", path)
    try:
        return EventTemplate(category, subject, payload)
    except MappingError as exc:
        raise _fail(path, str(exc)) from None


def _parse_placement(obj: Mapping[str, Any], path: str) -> Placement:
    value = _optional(obj, "placement", path, None, "new-intention")
    try:
        return Placement(value)
    except ValueError:
        raise _fail(
            f"{path}.placement",
            f"placement must be one of {[p.value for p in Placement]}, got {value!r}",
        ) from None


def _parse_args(obj: Mapping[str, Any], key: str, path: str) -> dict[str, Expr]:
    return {
        name: _parse_expr(source, f"{path}.{key}.{name}")
        for name, source in _optional(obj, key, path, dict, {}).items()
    }


def parse_body_step(obj: Any, path: str) -> BodyStep:
    _require(obj, path, dict, "body step")
    kind = obj.get("do")
    if kind == "act":
        _check_keys(obj, path, {"do", "name", "args"}, {"name"})
        return Act(_require(obj["name"], f"{path}.name", str, "action name"), _parse_args(obj, "args", path))
    if kind == "subgoal":
        _check_keys(obj, path, {"do", "goal", "args"}, {"goal"})
        return Subgoal(_require(obj["goal"], f"{path}.goal", str, "goal name"), _parse_args(obj, "args", path))
    if kind == "believe":
        _check_keys(obj, path, {"do", "key", "value"}, {"key", "value"})
        key = _belief_key(obj["key"], f"{path}.key")
        return Believe(key, _parse_expr(obj["value"], f"{path}.value"))
    if kind == "unbelieve":
        _check_keys(obj, path, {"do", "key"}, {"key"})
        return Unbelieve(_belief_key(obj["key"], f"{path}.key"))
    if kind == "send":
        _check_keys(obj, path, {"do", "to", "payload"}, {"to"})
        return Send(
            _require(obj["to"], f"{path}.to", str, "receiver"),
            _parse_args(obj, "payload", path),
        )
    raise _fail(path, f"body step 'do' must be one of act/subgoal/believe/unbelieve/send, got {kind!r}")


def parse_plan(obj: Any, path: str) -> Plan:
    _require(obj, path, dict, "plan")
    _check_keys(obj, path, {"id", "trigger", "context", "body"}, {"id", "trigger", "body"})
    plan_id = _require(obj["id"], f"{path}.id", str, "plan id")
    trigger = parse_pattern(obj["trigger"], f"{path}.trigger")
    context = _parse_optional_expr(obj, "context", path)
    if not _require(obj["body"], f"{path}.body", list, "plan body"):
        raise _fail(f"{path}.body", "plan body must be non-empty")
    body = tuple(_each(obj, "body", path, parse_body_step))
    return Plan(plan_id=plan_id, trigger=trigger, context=context, body=body)


def parse_mapping_entry(obj: Any, path: str) -> EventMappingEntry:
    _require(obj, path, dict, "mapping entry")
    _check_keys(obj, path, {"observe", "inject", "placement", "guard"}, {"observe", "inject"})
    return EventMappingEntry(
        observe=parse_pattern(obj["observe"], f"{path}.observe"),
        inject=parse_template(obj["inject"], f"{path}.inject"),
        placement=_parse_placement(obj, path),
        guard=_parse_optional_expr(obj, "guard", path),
    )


def parse_module(obj: Any, path: str) -> CoefficientModule:
    _require(obj, path, dict, "module")
    _check_keys(obj, path, {"id", "beliefs", "plans", "mapping", "exports"}, {"id"})
    module_id = _require(obj["id"], f"{path}.id", str, "module id")
    beliefs = _parse_beliefs(obj, path)
    return CoefficientModule(
        module_id=module_id,
        beliefs=beliefs,
        plans=_each(obj, "plans", path, parse_plan),
        mapping=_each(obj, "mapping", path, parse_mapping_entry),
        exports=frozenset(_strings(obj, "exports", path)),
    )


# -- agent programs -----------------------------------------------------------


@dataclass
class AgentProgram:
    """A loaded agent program plus the external events to post at start."""

    name: str
    beliefs: dict[str, Any]
    actions: set[str]
    plans: list[Plan]
    modules: list[CoefficientModule] = field(default_factory=list)
    events: list[TriggeringEvent] = field(default_factory=list)


def _parse_event(obj: Any, path: str) -> TriggeringEvent:
    _require(obj, path, dict, "event")
    _check_keys(obj, path, {"category", "subject", "payload"}, {"category", "subject"})
    return TriggeringEvent(
        _parse_category(obj["category"], f"{path}.category"),
        _require(obj["subject"], f"{path}.subject", str, "subject"),
        dict(_optional(obj, "payload", path, dict, {})),
    )


def parse_agent_program(doc: Any, path: str = "agent-program") -> AgentProgram:
    _require(doc, path, dict, "agent program")
    _check_keys(
        doc,
        path,
        {"name", "beliefs", "actions", "plans", "modules", "events"},
        set(),
    )
    beliefs = _parse_beliefs(doc, path)
    actions = set(_strings(doc, "actions", path))
    plans = _each(doc, "plans", path, parse_plan)
    seen = set()
    for plan in plans:
        if plan.plan_id in seen:
            raise _fail(f"{path}.plans", f"duplicate plan id {plan.plan_id!r}")
        seen.add(plan.plan_id)
    for plan in plans:
        for index, step in enumerate(plan.body):
            if isinstance(step, Act) and step.name not in actions:
                raise _fail(
                    f"{path}.plans[{plan.plan_id}].body[{index}]",
                    f"action {step.name!r} is not in the declared action set",
                )
    program = AgentProgram(
        beliefs=beliefs,
        actions=actions,
        plans=plans,
        modules=_each(doc, "modules", path, parse_module),
        events=_each(doc, "events", path, _parse_event),
        name=_optional(doc, "name", path, str, "") or "agent",
    )
    # Clashes between modules, or with the host, are only seen by registration.
    try:
        build_agent(program)
    except ModuleRegistrationError as exc:
        raise _fail(f"{path}.modules", str(exc)) from None
    return program


def build_agent(
    program: AgentProgram,
    agent_id: str | None = None,
    environment: EnvironmentAdapter | None = None,
) -> AgentConfiguration:
    """Instantiate a loaded program, registering its modules."""
    cfg = AgentConfiguration(
        agent_id or program.name,
        beliefs=BeliefBase(dict(program.beliefs)),
        plans=PlanLibrary(program.plans),
        actions=program.actions,
        environment=environment,
    )
    for module in program.modules:
        register_module(cfg, module)
    return cfg


def load_agent_program(path: str | Path) -> AgentProgram:
    return parse_agent_program(read_json(path), str(path))


# -- scenario documents ---------------------------------------------------------


def parse_publication_rule(obj: Any, path: str) -> PublicationRule:
    _require(obj, path, dict, "publication rule")
    _check_keys(
        obj, path, {"observe", "topic", "guard", "extract", "extract-event"}, {"observe", "topic"}
    )
    extract = _strings(obj, "extract", path)
    extract_event = _parse_args(obj, "extract-event", path)
    return PublicationRule(
        observe=parse_pattern(obj["observe"], f"{path}.observe"),
        topic=_require(obj["topic"], f"{path}.topic", str, "topic"),
        guard=_parse_optional_expr(obj, "guard", path),
        extract=extract,
        extract_event=extract_event,
    )


def parse_reaction_rule(obj: Any, path: str) -> EventMappingEntry:
    _require(obj, path, dict, "reaction rule")
    _check_keys(obj, path, {"match", "guard", "inject"}, {"match", "inject"})
    match = _require(obj["match"], f"{path}.match", dict, "match")
    _check_keys(match, f"{path}.match", {"topic", "payload"}, {"topic"})
    return EventMappingEntry(
        observe=EventPattern(
            categories=(EventCategory.MESSAGE_RECEIVED,),
            subject=_require(match["topic"], f"{path}.match.topic", str, "topic"),
            payload=dict(_optional(match, "payload", f"{path}.match", dict, {})),
        ),
        inject=parse_template(obj["inject"], f"{path}.inject"),
        guard=_parse_optional_expr(obj, "guard", path),
    )


def parse_endpoint_declaration(obj: Any, path: str) -> EndpointDeclaration:
    _require(obj, path, dict, "endpoint declaration")
    _check_keys(
        obj,
        path,
        {"process-id", "role", "publication-rules", "reaction-rules", "plans"},
        {"process-id", "role"},
    )
    publications = tuple(_each(obj, "publication-rules", path, parse_publication_rule))
    reactions = tuple(_each(obj, "reaction-rules", path, parse_reaction_rule))
    plans = tuple(_each(obj, "plans", path, parse_plan))
    role = _require(obj["role"], f"{path}.role", str, "role")
    process_id = _require(obj["process-id"], f"{path}.process-id", str, "process id")
    try:
        return EndpointDeclaration(process_id, role, publications, reactions, plans)
    except EndpointDeclarationError as exc:
        raise _fail(path, str(exc)) from None


def parse_endpoints(obj: Any, path: str) -> tuple[EndpointDeclaration, ...]:
    """Parse an ``endpoints`` section: a list of endpoint declarations."""
    return tuple(
        parse_endpoint_declaration(decl, f"{path}[{index}]")
        for index, decl in enumerate(_require(obj, path, list, "endpoints"))
    )


_SCENARIO_KEYS = {
    "name",
    "seed",
    "ticks",
    "significance-threshold",
    "uniqueness-constraint",
    "publish-when-empty",
    "move-acceptance-probability",
    "servers",
    "services",
    "brokers",
    "demand",
    "demand-schedule",
    "media",
    "endpoints",
}


_SERVER_KEYS = {"id", "capacity", "preferred-min"}
_SERVICE_KEYS = {"id", "type", "initial-server"}
_DEMAND_DELTA_KEYS = {"tick", "type", "delta"}
_NAME_OR_NULL = (str, type(None))


def _check_server(obj: Any, path: str) -> None:
    _require(obj, path, dict, "server")
    _check_keys(obj, path, _SERVER_KEYS, _SERVER_KEYS)
    _require(obj["id"], f"{path}.id", str, "server id")
    _require(obj["capacity"], f"{path}.capacity", int, "capacity")
    _require(obj["preferred-min"], f"{path}.preferred-min", int, "preferred-min")


def _check_service(obj: Any, path: str) -> None:
    _require(obj, path, dict, "service")
    _check_keys(obj, path, _SERVICE_KEYS, {"id", "type"})
    _optional(obj, "initial-server", path, str, None)
    _require(obj["id"], f"{path}.id", str, "service id")
    _require(obj["type"], f"{path}.type", str, "type")


def _check_demand_delta(obj: Any, path: str) -> None:
    _require(obj, path, dict, "demand delta")
    _check_keys(obj, path, _DEMAND_DELTA_KEYS, _DEMAND_DELTA_KEYS)
    _require(obj["tick"], f"{path}.tick", int, "tick")
    _require(obj["type"], f"{path}.type", str, "type")
    _require(obj["delta"], f"{path}.delta", int, "delta")


def parse_scenario(doc: Any, path: str = "scenario") -> ScenarioConfig:
    _require(doc, path, dict, "scenario document")
    _check_keys(doc, path, _SCENARIO_KEYS, {"servers", "services"})

    # A well-formed server, service or demand-schedule entry passes the
    # checks below with no path text; any other runs the full checks, which
    # build the path and refuse its first fault.  Specs are built
    # positionally, which costs less per entry than by keyword.
    servers = []
    for index, obj in enumerate(_require(doc["servers"], f"{path}.servers", list, "servers")):
        if not (
            isinstance(obj, dict)
            and obj.keys() == _SERVER_KEYS
            and type(obj["id"]) is str
            and type(obj["capacity"]) is int
            and type(obj["preferred-min"]) is int
        ):
            _check_server(obj, f"{path}.servers[{index}]")
        servers.append(ServerSpec(obj["id"], obj["capacity"], obj["preferred-min"]))

    services = []
    for index, obj in enumerate(_require(doc["services"], f"{path}.services", list, "services")):
        if not (
            isinstance(obj, dict)
            and obj.keys() <= _SERVICE_KEYS
            and type(obj.get("id")) is str
            and type(obj.get("type")) is str
            and type(obj.get("initial-server")) in _NAME_OR_NULL
        ):
            _check_service(obj, f"{path}.services[{index}]")
        services.append(ServiceSpec(obj["id"], obj["type"], obj.get("initial-server")))

    schedule = []
    for index, obj in enumerate(_optional(doc, "demand-schedule", path, list, [])):
        if not (
            isinstance(obj, dict)
            and obj.keys() == _DEMAND_DELTA_KEYS
            and type(obj["tick"]) is int
            and type(obj["type"]) is str
            and type(obj["delta"]) is int
        ):
            _check_demand_delta(obj, f"{path}.demand-schedule[{index}]")
        schedule.append(DemandDelta(obj["tick"], obj["type"], obj["delta"]))

    media = {}
    for topic, latency in _optional(doc, "media", path, dict, {}).items():
        media[topic] = _require(latency, f"{path}.media.{topic}", int, "latency")

    demand = {}
    for service_type, rate in _optional(doc, "demand", path, dict, {}).items():
        demand[service_type] = _require(rate, f"{path}.demand.{service_type}", int, "rate")

    # Without an endpoints section the config takes its default declarations.
    declared = {}
    if doc.get("endpoints") is not None:
        declared["endpoints"] = parse_endpoints(doc["endpoints"], f"{path}.endpoints")

    try:
        return ScenarioConfig(
            name=_optional(doc, "name", path, str, "") or "scenario",
            seed=_optional(doc, "seed", path, int, 0),
            ticks=_optional(doc, "ticks", path, int, 100),
            servers=servers,
            services=services,
            brokers=_optional(doc, "brokers", path, int, 0),
            demand=demand,
            demand_schedule=schedule,
            media=media,
            significance_threshold=float(
                _optional(doc, "significance-threshold", path, (int, float), 0.5)
            ),
            uniqueness_constraint=_optional(doc, "uniqueness-constraint", path, bool, False),
            publish_when_empty=_optional(doc, "publish-when-empty", path, bool, False),
            move_acceptance_probability=float(
                _optional(doc, "move-acceptance-probability", path, (int, float), 1.0)
            ),
            **declared,
        )
    except ScenarioError as exc:
        raise _fail(path, str(exc)) from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load, parse, and fully validate a scenario document."""
    return parse_scenario(read_json(path), str(path))


def read_json(path: str | Path) -> Any:
    """The JSON document at ``path``; a missing, unreadable or invalid file
    is a ``ConfigError``."""
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigError(f"{path}: file not found")
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read file: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
