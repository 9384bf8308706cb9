"""Agent-based service management scenarios on a discrete-tick simulator.

Two coordination processes run over a population of server managers,
movable service endpoints, and demand brokers:

* server utilization management -- managers of underutilized servers publish
  available capacity on the ``capacity`` topic; services react by relocating
  toward the advertising server, filling it to its preferred level;
* demand balancing -- brokers publish significant request-rate changes on
  the ``demand-change`` topic; services react by switching their offered
  service type toward the demanded one, subject to a per-server uniqueness
  constraint.

One deployment rule, ``admits`` (capacity, and uniqueness under the
constraint), settles the initial placement, every move and every switch.
``SimulationState.deployments`` is the one per-server record: per server, in
id order, the sorted types it runs.  Each change to a server replaces its
list at once, and trace records are read-only, so records share what did not
change: a record holds the previous record's map while no server changed
since, and the first record after a change copies the map once, keeping the
lists of the servers that did not change.  Recording and rendering a trace
cost per change, not per server per tick.

The simulation loop is single-threaded and owns all agents and media.  Each
tick applies scheduled demand deltas, runs one full reasoning cycle per awake
agent in stable agent-id order, ticks all media, delivers due publications,
and emits one trace record.  Agents coordinate only through media: no
scenario agent has a plan that sends a message.

An idle agent costs nothing per tick: it sleeps, and no loop visits it.  An
agent sleeps after a cycle that leaves its inbox, event queue and intentions
empty, if its selector declares itself inert on an empty queue: the selector
function carries ``inert_on_empty_queue = True``.  ``select_event`` and
``select_event_coefficient`` carry it; any other selector runs every tick.
A wrapper made with ``functools.wraps`` copies the declaration; perfbench's
tracer and the accounting tests wrap the co-efficient selector without it,
so in their runs no agent sleeps and ``run_cycle`` runs once per agent per
tick.  ``AgentConfiguration.append_event`` is the one funnel for belief
writes, injections, deliveries and goal outcomes, and it wakes a sleeping
agent.  A sleeping agent's next cycle would only move its step round, so
sleeping changes no output (see ``WakeSet``).  The simulator writes no
inbox; a caller that queues a message for a sleeping agent also appends an
event to wake it.
"""

from __future__ import annotations

import json
import math
import random
from bisect import insort
from collections import Counter
from itertools import chain
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from coagent.bdi.beliefs import RESERVED_NAMES, BeliefBase
from coagent.bdi.config import ActionFault, AgentConfiguration
from coagent.bdi.events import EventCategory, TriggeringEvent
from coagent.bdi.interpreter import post_external_event, run_cycle, select_event
from coagent.bdi.plans import Act, PlanLibrary
from coagent.coefficiency import ModuleRegistrationError, register_module
from coagent.coordination import (
    PUBLISH_ACTION,
    CoordinationEndpoint,
    CoordinationMedium,
    EndpointDeclaration,
    build_publication,
    endpoint_deliver,
    publish,
    register_declaration,
    tick_medium,
)

#: The agent roles an endpoint declaration can name, each with the actions
#: its agents may perform and the beliefs the architecture reports once at
#: bootstrap, as external belief-update events.
ROLES = {
    "server": (frozenset(), ("deployed",)),
    "service": (frozenset({"relocate", "reallocate"}), ()),
    "broker": (frozenset(), ()),
}


#: The names a demand type may not take: a broker holds each demanded type
#: as a belief beside its ``significance_threshold``.
_BROKER_RESERVED = RESERVED_NAMES | {"significance_threshold"}


class ScenarioError(ValueError):
    """Scenario configuration violates a build invariant."""


def admits(types: list[str], capacity: int, service_type: str, uniqueness: bool) -> bool:
    """The deployment rule: whether a server offering ``types`` can take one
    more service of ``service_type`` without exceeding its capacity or, under
    the uniqueness constraint, offering a type twice."""
    return len(types) < capacity and not (uniqueness and service_type in types)


def _draw_placement(
    services: list[ServiceSpec],
    types: dict[str, list[str]],
    capacity: dict[str, int],
    uniqueness: bool,
    rng: random.Random,
) -> dict[str, str] | None:
    """Place ``services`` one seeded draw at a time among the servers that
    ``admits`` them, given the types already on each server; None when a
    service finds no such server."""
    deployed = {server_id: list(listed) for server_id, listed in types.items()}
    placement = {}
    for service in services:
        eligible = [
            server_id
            for server_id, listed in deployed.items()
            if admits(listed, capacity[server_id], service.service_type, uniqueness)
        ]
        if not eligible:
            return None
        target = rng.choice(eligible)
        deployed[target].append(service.service_type)
        placement[service.service_id] = target
    return placement


def _search_placement(
    services: list[ServiceSpec],
    types: dict[str, list[str]],
    capacity: dict[str, int],
    uniqueness: bool,
) -> dict[str, str] | None:
    """Place ``services`` exactly, given the types already on each server;
    None when no legal placement exists.

    A maximum flow runs from each type (as many units as services of that
    type) to each server with room that ``admits`` it (one unit under the
    uniqueness constraint) and on to the sink (the server's free slots).
    Breadth-first augmenting paths over nodes in document order make the
    result deterministic.  The services of a type then take the servers its
    flow reached, in document order.
    """
    source, sink = ("source",), ("sink",)
    residual: dict[tuple, dict[tuple, int]] = {}

    def edge(start: tuple, end: tuple, units: int) -> None:
        residual.setdefault(start, {})[end] = units
        residual.setdefault(end, {})[start] = 0

    demanded = Counter(service.service_type for service in services)
    for service_type, count in demanded.items():
        edge(source, ("type", service_type), count)
        for server_id, listed in types.items():
            if admits(listed, capacity[server_id], service_type, uniqueness):
                free = capacity[server_id] - len(listed)
                edge(("type", service_type), ("server", server_id), 1 if uniqueness else free)
    for server_id, listed in types.items():
        edge(("server", server_id), sink, capacity[server_id] - len(listed))
    placed = 0
    while placed < len(services):
        parents: dict[tuple, tuple | None] = {source: None}
        frontier = [source]
        while frontier and sink not in parents:
            reached = []
            for node in frontier:
                for neighbour, units in residual[node].items():
                    if units > 0 and neighbour not in parents:
                        parents[neighbour] = node
                        reached.append(neighbour)
            frontier = reached
        if sink not in parents:
            return None
        path = []
        node = sink
        while (parent := parents[node]) is not None:
            path.append((parent, node))
            node = parent
        units = min(residual[start][end] for start, end in path)
        for start, end in path:
            residual[start][end] -= units
            residual[end][start] += units
        placed += units
    placement = {}
    for service in services:
        node = ("type", service.service_type)
        # The flow a type sent to a server is that edge's reverse residual.
        target = next(
            server_id for server_id in types if residual[("server", server_id)].get(node)
        )
        residual[("server", target)][node] -= 1
        placement[service.service_id] = target
    return placement


@dataclass(frozen=True)
class ServerSpec:
    server_id: str
    capacity: int
    preferred_min: int


@dataclass(frozen=True)
class ServiceSpec:
    service_id: str
    service_type: str
    initial_server: str | None = None


@dataclass(frozen=True)
class DemandDelta:
    tick: int
    service_type: str
    delta: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative simulation input; see the bundled scenario documents.

    Building a config checks the build invariants, raising ``ScenarioError``,
    and computes ``placement``, the initial placement: each service id to
    its server.  Services naming an initial server are placed first, then
    the others, each group in document order; an unnamed service draws one
    of the servers that ``admits`` it from ``random.Random(seed)``.  When a
    draw finds no such server, an exact search places the unnamed services
    instead (see ``_search_placement``), so "no legal placement" is raised
    only when none exists, whatever the seed.

    ``endpoints`` are the endpoint declarations a build attaches, by default
    ``canonical_endpoints()``, made afresh for each config built without
    them.  No declaration depends on a parameter: a build gives each server
    ``publish_when_empty`` and each broker ``significance_threshold`` as
    beliefs, which any declaration of the role may read.  A declaration's
    plans may act only in its role's action set (see ``ROLES``), and the
    declarations of a role must register together, each once, on one agent
    of that role: a config refuses what a build would.  A config cannot
    be changed: building it stores each sequence field as a tuple and
    ``demand``, ``media`` and ``placement`` as read-only mappings, so
    ``dataclasses.replace`` is the way to a changed one, checked and placed
    again; it keeps the declarations.
    """

    name: str = "scenario"
    seed: int = 0
    ticks: int = 100
    servers: Sequence[ServerSpec] = ()
    services: Sequence[ServiceSpec] = ()
    brokers: int = 0
    demand: Mapping[str, int] = field(default_factory=dict)
    demand_schedule: Sequence[DemandDelta] = ()
    media: Mapping[str, int] = field(default_factory=dict)  # topic -> latency
    significance_threshold: float = 0.5
    uniqueness_constraint: bool = False
    publish_when_empty: bool = False
    #: The chance that a server manager accepts a move or a switch.
    move_acceptance_probability: float = 1.0
    #: Endpoint declarations, each attached to every agent of its role.
    endpoints: Sequence[EndpointDeclaration] = field(
        default_factory=lambda: canonical_endpoints()
    )
    placement: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("servers", "services", "demand_schedule", "endpoints"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("demand", "media"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        if self.ticks < 0:
            raise ScenarioError("ticks must be >= 0")
        if self.brokers < 0:
            raise ScenarioError("brokers must be >= 0")
        # No demand change reaches an infinite or a NaN threshold.
        if not (0 <= self.significance_threshold < math.inf):
            raise ScenarioError("significance-threshold must be finite and >= 0")
        if not (0 <= self.move_acceptance_probability <= 1):
            raise ScenarioError("move-acceptance-probability must be in [0, 1]")
        # An empty name would make a trace column or endpoint id of its kind
        # alone ("server:", "/utilization"); demand types are refused below.
        seen: set[str] = set()
        for server in self.servers:
            if not server.server_id:
                raise ScenarioError("server id must not be empty")
            if server.server_id in seen:
                raise ScenarioError(f"duplicate server id {server.server_id!r}")
            seen.add(server.server_id)
            if server.capacity <= 0:
                raise ScenarioError(f"server {server.server_id!r}: capacity must be > 0")
            if not (0 < server.preferred_min <= server.capacity):
                raise ScenarioError(
                    f"server {server.server_id!r}: preferred-min must be in (0, capacity]"
                )
        for service in self.services:
            if not service.service_id:
                raise ScenarioError("service id must not be empty")
            if service.service_id in seen:
                raise ScenarioError(f"duplicate service id {service.service_id!r}")
            if not service.service_type:
                raise ScenarioError(f"service {service.service_id!r}: type must not be empty")
            seen.add(service.service_id)
        for broker_id in self.broker_ids:
            if broker_id in seen:
                raise ScenarioError(f"broker id {broker_id!r} collides with a configured agent")
        for entry in self.demand_schedule:
            if entry.tick < 0:
                raise ScenarioError("demand-schedule ticks must be >= 0")
        # Brokers hold one belief per demanded type, beside their threshold.
        for service_type in [*self.demand, *(entry.service_type for entry in self.demand_schedule)]:
            if not service_type or service_type in _BROKER_RESERVED:
                raise ScenarioError(f"demand type {service_type!r} is empty or a reserved name")
        for topic, latency in self.media.items():
            if not topic:
                raise ScenarioError("media topic must not be empty")
            if latency < 0:
                raise ScenarioError(f"medium {topic!r}: latency must be >= 0")
        # A build registers a role's declarations on each of its agents, so
        # one probe agent per role refuses what any build would: registration
        # alone rules on module and plan ids.
        probes = {role: AgentConfiguration(role, plans=PlanLibrary()) for role in ROLES}
        for index, decl in enumerate(self.endpoints):
            if decl.role not in ROLES:
                raise ScenarioError(
                    f"endpoints[{index}]: role must be {'/'.join(ROLES)}, got {decl.role!r}"
                )
            actions = ROLES[decl.role][0]
            for plan_index, plan in enumerate(decl.plans):
                for step_index, step in enumerate(plan.body):
                    if isinstance(step, Act) and step.name not in actions:
                        raise ScenarioError(
                            f"endpoints[{index}].plans[{plan_index}].body[{step_index}]: "
                            f"action {step.name!r} is not in the {decl.role} action set "
                            f"{sorted(actions)}"
                        )
            try:
                register_module(probes[decl.role], decl.module)
            except ModuleRegistrationError as exc:
                raise ScenarioError(
                    f"endpoints[{index}]: a {decl.role} cannot register it: {exc}"
                ) from None

        uniqueness = self.uniqueness_constraint
        types: dict[str, list[str]] = {server.server_id: [] for server in self.servers}
        capacity = {server.server_id: server.capacity for server in self.servers}
        placement: dict[str, str] = {}
        rule = "capacity or break the uniqueness constraint" if uniqueness else "capacity"
        unnamed = []
        for service in self.services:
            target = service.initial_server
            if target is None:
                unnamed.append(service)
                continue
            if target not in types:
                raise ScenarioError(
                    f"service {service.service_id!r}: unknown initial-server {target!r}"
                )
            if not admits(types[target], capacity[target], service.service_type, uniqueness):
                raise ScenarioError(
                    f"service {service.service_id!r}: initial deployments on {target!r} "
                    f"would exceed {rule}"
                )
            types[target].append(service.service_type)
            placement[service.service_id] = target
        drawn = _draw_placement(unnamed, types, capacity, uniqueness, random.Random(self.seed))
        if drawn is None:
            drawn = _search_placement(unnamed, types, capacity, uniqueness)
        if drawn is None:
            raise ScenarioError(
                f"no legal placement for the services without an initial-server: "
                f"placing all {len(unnamed)} would exceed {rule}"
            )
        placement.update(drawn)
        object.__setattr__(self, "placement", MappingProxyType(placement))

    @property
    def broker_ids(self) -> list[str]:
        return [f"broker-{index + 1:02d}" for index in range(self.brokers)]

    @property
    def service_types(self) -> list[str]:
        types = {service.service_type for service in self.services}
        types.update(self.demand)
        types.update(entry.service_type for entry in self.demand_schedule)
        return sorted(types)


@dataclass
class TraceRecord:
    """Per-tick metrics: deployment map, loop variables, and activity counts.

    A record is read-only.  Its deployment map is shared with the previous
    record while no server changes, and its lists with the servers' own.
    """

    tick: int
    deployments: dict[str, list[str]]
    underloaded: int
    publications: dict[str, int]
    moves: int
    switches: int
    rejected_moves: int
    rejected_switches: int
    demand: dict[str, int]


class WakeSet:
    """The tick loop's agenda: which agents a tick runs, and in what order.

    ``agents`` holds the agents in id order; a position is an index into
    it.  ``due`` holds the positions the current tick still runs, in
    ascending order, and ``later`` those of the next tick.  Every agent
    starts awake.  An agent put to sleep (see the module docstring) holds
    this set's bound ``wake`` as its own ``wake``, one object for all the
    agents a ``run_simulation`` call puts to sleep, and its next
    ``append_event`` calls it: the agent runs in the current tick if its
    position comes after the running agent's, else in the next, as when
    every agent ran every tick.  A tick costs a few attribute reads per
    awake agent and nothing per sleeping one.
    """

    def __init__(self, agents: Iterable[AgentConfiguration]):
        self.agents = list(agents)
        self.positions = {cfg.agent_id: position for position, cfg in enumerate(self.agents)}
        self.due: list[int] = []
        self.later = list(range(len(self.agents)))
        #: The running agent's position; between ticks, past every position.
        self.running = len(self.agents)

    def wake(self, cfg: AgentConfiguration) -> None:
        """Put a sleeping agent back on the agenda."""
        cfg.wake = None
        position = self.positions[cfg.agent_id]
        insort(self.due if position > self.running else self.later, position)


class SimulationState:
    """Everything the scheduler owns: agents, their wake set, endpoints,
    media, and tables."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.tick = 0
        self.rng = random.Random(config.seed)
        #: In agent-id order (``build_scenario`` sorts it); the tick loop runs them so.
        self.agents: dict[str, AgentConfiguration] = {}
        self.endpoints: dict[str, CoordinationEndpoint] = {}
        #: In topic order (``build_scenario`` sorts it).
        self.media: dict[str, CoordinationMedium] = {}
        self.server_specs: dict[str, ServerSpec] = {}
        self.service_server: dict[str, str] = {}
        self.service_type: dict[str, str] = {}
        self.demand: dict[str, int] = dict(config.demand)
        #: The demand schedule by tick, in document order within a tick.
        self.demand_by_tick: dict[int, list[DemandDelta]] = {}
        for entry in config.demand_schedule:
            self.demand_by_tick.setdefault(entry.tick, []).append(entry)
        self.types: list[str] = config.service_types
        #: The one per-server record: per server, in id order, the sorted
        #: types it runs.  Beside it, the servers strictly between empty and
        #: their preferred utilization.  ``refresh_server`` writes both.
        self.deployments: dict[str, list[str]] = {}
        self.underloaded_servers: set[str] = set()
        #: The last record's copy of ``deployments``, while no server has
        #: changed since; the next record shares it.
        self.recorded_deployments: dict[str, list[str]] | None = None
        # Per-tick activity counters, reset by the scheduler.
        self.moves = 0
        self.switches = 0
        self.rejected_moves = 0
        self.rejected_switches = 0
        self.publications: dict[str, int] = {}
        self.trace: list[TraceRecord] = []
        #: Set by ``build_scenario`` once the agents are in id order.
        self.wake_set = WakeSet(())

    @property
    def agent_order(self) -> list[str]:
        """The agent ids in id order.  ``agents`` holds them in that order;
        this list stays only for ``perfbench/repetition.py``, which reads it."""
        return list(self.agents)

    def refresh_server(self, server_id: str, types: list[str]) -> None:
        """Store a server's new sorted type list and update its underload.

        This is the one writer of ``deployments``.  The stored list is
        replaced, never mutated, so trace records can share the lists of the
        servers that did not change; the map itself changes, so the next
        record copies it.
        """
        self.deployments[server_id] = types
        self.recorded_deployments = None
        if 0 < len(types) < self.server_specs[server_id].preferred_min:
            self.underloaded_servers.add(server_id)
        else:
            self.underloaded_servers.discard(server_id)

    def reset_tick_counters(self) -> None:
        self.moves = 0
        self.switches = 0
        self.rejected_moves = 0
        self.rejected_switches = 0
        self.publications = {topic: 0 for topic in self.media}

    def snapshot_record(self) -> TraceRecord:
        """The trace record of the current tick.

        Its deployment map is the previous record's when no server changed
        since that record (see ``refresh_server``), else a new copy.
        """
        deployments = self.recorded_deployments
        if deployments is None:
            deployments = self.recorded_deployments = dict(self.deployments)
        return TraceRecord(
            tick=self.tick,
            deployments=deployments,
            underloaded=len(self.underloaded_servers),
            publications=dict(self.publications),
            moves=self.moves,
            switches=self.switches,
            rejected_moves=self.rejected_moves,
            rejected_switches=self.rejected_switches,
            demand=dict(self.demand),
        )


class ScenarioEnvironment:
    """Environment adapter shared by all scenario agents.

    Implements the service-infrastructure actions: relocation and
    reallocation requests (validated against the involved servers' state,
    mirroring that deployment always negotiates with the affected managers)
    and the endpoint publish action.
    """

    def __init__(self, state: SimulationState):
        self.state = state

    def perform(self, cfg: AgentConfiguration, action: str, args: dict[str, Any]) -> None:
        if action == "relocate":
            self._relocate(cfg, args)
        elif action == "reallocate":
            self._reallocate(cfg, args)
        elif action == PUBLISH_ACTION:
            self._publish(cfg, args)
        else:
            raise ActionFault(f"unknown action {action!r}")

    def _accepts(self) -> bool:
        return self.state.rng.random() < self.state.config.move_acceptance_probability

    def _relocate(self, cfg: AgentConfiguration, args: dict[str, Any]) -> None:
        state = self.state
        service_id = cfg.agent_id
        target = args.get("server")
        if target not in state.server_specs:
            state.rejected_moves += 1
            return
        current = state.service_server[service_id]
        if target == current:
            # Stale offer for the server we already sit on: silently ignored,
            # mirroring the same-type no-op rule for switches.
            return
        spec = state.server_specs[target]
        if len(state.deployments[target]) >= spec.preferred_min:
            # The advertised shortage is gone; the destination manager
            # declines the deployment.
            state.rejected_moves += 1
            return
        source_spec = state.server_specs[current]
        remaining = len(state.deployments[current]) - 1
        if 0 < remaining < source_spec.preferred_min:
            # Leaving would push the source below its preferred utilization;
            # the source manager declines the undeployment.
            state.rejected_moves += 1
            return
        if not self._accepts():
            state.rejected_moves += 1
            return
        move_service(state, service_id, target)

    def _reallocate(self, cfg: AgentConfiguration, args: dict[str, Any]) -> None:
        state = self.state
        new_type = args.get("type")
        if not isinstance(new_type, str) or not new_type:
            state.rejected_switches += 1
            return
        if new_type != state.service_type[cfg.agent_id] and not self._accepts():
            state.rejected_switches += 1
            return
        switch_type(state, cfg.agent_id, new_type)

    def _publish(self, cfg: AgentConfiguration, args: dict[str, Any]) -> None:
        state = self.state
        info = build_publication(state.endpoints, cfg, args, state.tick)
        publish(state.media[info.topic], info, state.tick)
        state.publications[info.topic] = state.publications.get(info.topic, 0) + 1


# -- scenario operations ------------------------------------------------------


def move_service(state: SimulationState, service_id: str, to_server: str) -> bool:
    """Redeploy a service: bookkeeping plus paired belief updates.

    Returns True when the move was applied.  A destination that does not
    ``admits`` the service rejects the move with no state change; the
    rejection is counted.
    """
    current = state.service_server[service_id]
    if to_server == current:
        raise ScenarioError(f"service {service_id!r} is already on {to_server!r}")
    if to_server not in state.server_specs:
        raise ScenarioError(f"unknown destination server {to_server!r}")
    service_type = state.service_type[service_id]
    destination = state.deployments[to_server]
    if not admits(
        destination,
        state.server_specs[to_server].capacity,
        service_type,
        state.config.uniqueness_constraint,
    ):
        state.rejected_moves += 1
        return False
    source = list(state.deployments[current])
    source.remove(service_type)
    state.service_server[service_id] = to_server
    state.refresh_server(current, source)
    state.refresh_server(to_server, sorted([*destination, service_type]))
    state.moves += 1
    # Un- and re-deployment surface as belief updates on every agent involved.
    state.agents[service_id].write_belief("current_server", to_server)
    state.agents[current].write_belief("deployed", len(source))
    state.agents[to_server].write_belief("deployed", len(destination) + 1)
    return True


def switch_type(state: SimulationState, service_id: str, new_type: str) -> bool:
    """Change a service's offered type; same-type switches are silent no-ops."""
    current_type = state.service_type[service_id]
    if new_type == current_type:
        return True
    server_id = state.service_server[service_id]
    # A switch redeploys the service in its own slot: the server without it
    # must admit the new type.
    others = list(state.deployments[server_id])
    others.remove(current_type)
    if not admits(
        others, state.server_specs[server_id].capacity, new_type, state.config.uniqueness_constraint
    ):
        state.rejected_switches += 1
        return False
    state.service_type[service_id] = new_type
    state.refresh_server(server_id, sorted([*others, new_type]))
    if new_type not in state.types:
        state.types = sorted(set(state.types) | {new_type})
    state.switches += 1
    state.agents[service_id].write_belief("type", new_type)
    return True


def apply_demand(state: SimulationState, tick: int) -> SimulationState:
    """Apply scheduled request-rate deltas; brokers mirror them as beliefs."""
    for entry in state.demand_by_tick.get(tick, ()):
        old = state.demand.get(entry.service_type, 0)
        new = old + entry.delta
        state.demand[entry.service_type] = new
        for broker_id in state.config.broker_ids:
            state.agents[broker_id].write_belief(entry.service_type, new)
    return state


# -- scenario construction ----------------------------------------------------


#: The two canonical coordination processes, a document packaged beside
#: this module.
CANONICAL_ENDPOINTS = Path(__file__).with_name("canonical-endpoints.json")


@cache
def _canonical_document() -> list[Any]:
    return json.loads(CANONICAL_ENDPOINTS.read_text(encoding="utf-8"))


def canonical_endpoints() -> tuple[EndpointDeclaration, ...]:
    """The declarations of ``CANONICAL_ENDPOINTS``, parsed afresh on each
    call: the default ``endpoints`` of a config.

    Server utilization: servers below their preferred level publish capacity,
    empty ones too when their ``publish_when_empty`` belief holds, and
    services elsewhere react with a ``move-to`` goal, which their
    declaration's ``move-to`` plan pursues by relocating.  Demand balancing:
    brokers publish demand changes that reach their
    ``significance_threshold`` belief, and services of another type react to
    a rise with a ``switch-to`` goal, which their declaration's
    ``switch-to`` plan pursues by reallocating.  The declarations are fixed
    text: the parameters reach them only as beliefs (see ``build_scenario``).
    The file is read and decoded once per process.
    """
    # coagent.loader imports this module, so it cannot be imported at the top.
    from coagent.loader import parse_endpoints

    return parse_endpoints(_canonical_document(), str(CANONICAL_ENDPOINTS))


#: Per topic, the order in which its medium releases the publications due
#: together; other topics keep publication order.  Capacity offers go out
#: most attractive first: the highest ``deployed``, ties broken by the lowest
#: server id.
RELEASE_ORDER = {
    "capacity": lambda info: (
        -info.payload.get("deployed", 0),
        str(info.payload.get("server", "")),
    ),
}


def build_scenario(config: ScenarioConfig, agent_log: bool = False) -> SimulationState:
    """Construct agents, endpoints, and media for a configuration.

    The config was checked, and its initial placement computed, when it was
    built; each declaration of its ``endpoints`` compiled its module when it
    was built.  A medium is made for each topic that a
    ``media`` entry or a declaration names, and a topic that no ``media``
    entry names has latency 1.

    A role's declarations are registered once per build, in document order,
    on one configuration of that role, its program: it starts from one
    empty plan library and the role's action set (see ``ROLES``), and
    ``register_declaration`` gives it new values for each declaration.
    Every member of the role then takes the registered values as shared,
    read-only ones: plan library, action set, module table, mapping,
    lifecycle hooks and selector.  Registration never writes into a value it
    replaces, so registering a further module on one member changes no
    other.  A member's plans are those its declarations carry: every plan
    reaches it through module registration.  The empty library is made per
    call, so that no relevance index carries from one build to the next.

    One loop builds the members, servers then services then brokers, each
    in document order.  Each member gets its own beliefs, an endpoint for
    each declaration of its role, whose host subscribes to its ``topics``,
    and then reports the role's bootstrap readings: each server manager's
    current utilization, once, so that publication guards are evaluated
    against the initial state.  The config's parameters are beliefs, set
    with the others and so posting no event: ``publish_when_empty`` on each
    server and ``significance_threshold`` on each broker.  What depends only
    on a role, its program and the media of its declarations' sorted
    topics, is resolved before the members; each member pays only for its
    own state.

    Agents keep observation records only with ``agent_log`` set, for a run
    that writes ``agent-log.jsonl``; plan-lifecycle hooks fire either way.
    """
    state = SimulationState(config)
    env = ScenarioEnvironment(state)

    types: dict[str, list[str]] = {}
    for spec in sorted(config.servers, key=lambda spec: spec.server_id):
        state.server_specs[spec.server_id] = spec
        types[spec.server_id] = []
    for service in config.services:
        target = config.placement[service.service_id]
        types[target].append(service.service_type)
        state.service_server[service.service_id] = target
        state.service_type[service.service_id] = service.service_type
    for server_id, deployed in types.items():
        state.refresh_server(server_id, sorted(deployed))

    topics = set(config.media)
    for decl in config.endpoints:
        topics.update(rule.topic for rule in decl.publications)
        topics.update(decl.topics)
    for topic in sorted(topics):
        state.media[topic] = CoordinationMedium(
            topic=topic, latency=config.media.get(topic, 1), order=RELEASE_ORDER.get(topic)
        )

    library = PlanLibrary()
    # Per role: the program its declarations register on, the declarations,
    # each with the media of its sorted topics, and the bootstrap readings.
    programs = {
        role: (AgentConfiguration(role, plans=library, actions=actions), [], readings)
        for role, (actions, readings) in ROLES.items()
    }
    for decl in config.endpoints:
        program, declared, _ = programs[decl.role]
        register_declaration(decl, program)
        declared.append((decl, [state.media[topic] for topic in sorted(decl.topics)]))
    # Lazily, so that each belief dict lives only until its agent copies it;
    # the brokers' one is the same for all of them.
    broker_beliefs = {**state.demand, "significance_threshold": config.significance_threshold}
    members = chain(
        (
            (
                "server",
                spec.server_id,
                {
                    "server": spec.server_id,
                    "capacity": spec.capacity,
                    "preferred_min": spec.preferred_min,
                    "deployed": len(state.deployments[spec.server_id]),
                    "publish_when_empty": config.publish_when_empty,
                },
            )
            for spec in config.servers
        ),
        (
            (
                "service",
                service.service_id,
                {
                    "type": service.service_type,
                    "current_server": state.service_server[service.service_id],
                },
            )
            for service in config.services
        ),
        (("broker", broker_id, broker_beliefs) for broker_id in config.broker_ids),
    )
    for role, agent_id, beliefs in members:
        program, declared, readings = programs[role]
        cfg = state.agents[agent_id] = AgentConfiguration(
            agent_id,
            BeliefBase(beliefs),
            program.plans,
            program.circumstance.actions,
            env,
            record_observations=agent_log,
        )
        cfg.modules = program.modules
        cfg.mapping = program.mapping
        cfg.observation_hooks = program.observation_hooks
        cfg.select_event_override = program.select_event_override
        for decl, media in declared:
            endpoint = CoordinationEndpoint(agent_id, decl)
            state.endpoints[endpoint.endpoint_id] = endpoint
            for medium in media:
                medium.subscribe(endpoint.endpoint_id, agent_id)
        for key in readings:
            value = cfg.beliefs.get(key)
            reading = {"old": value, "new": value}
            post_external_event(cfg, TriggeringEvent(EventCategory.BELIEF_UPDATED, key, reading))
    state.agents = dict(sorted(state.agents.items()))
    state.wake_set = WakeSet(state.agents.values())

    state.reset_tick_counters()
    return state


# -- simulation loop ----------------------------------------------------------


def _deliver_media(state: SimulationState) -> None:
    for medium in state.media.values():
        _, deliveries = tick_medium(medium, state.tick)
        for endpoint_id, info in deliveries:
            endpoint = state.endpoints[endpoint_id]
            endpoint_deliver(endpoint, info, state.agents[endpoint.host])


def run_simulation(
    state: SimulationState, ticks: int, seed: int | None = None
) -> list[TraceRecord]:
    """Run the scheduler for a number of ticks, returning the trace.

    Each tick runs the awake agents of ``state.wake_set`` in agent-id order
    and puts to sleep those that may sleep (see ``WakeSet``); the wake set
    carries over from call to call, so one call per tick gives the trace of
    one call for all ticks.  Agent-level action faults fail the agent's
    plan (a ``plan-failed`` observation, when the agent records them) and
    never abort the run.
    """
    if ticks < 0:
        raise ScenarioError("ticks must be >= 0")
    if seed is not None:
        state.rng = random.Random(seed)
    cycle = run_cycle  # read per call, so a wrapper installed on the module is seen
    wake_set = state.wake_set
    agents, wake = wake_set.agents, wake_set.wake
    for _ in range(ticks):
        state.reset_tick_counters()
        apply_demand(state, state.tick)
        due = wake_set.due = wake_set.later
        later = wake_set.later = []
        # A wake inserts a position after the running one into ``due``; the
        # list iterator still reaches it.
        for position in due:
            wake_set.running = position
            cfg = agents[position]
            cycle(cfg)
            circumstance = cfg.circumstance
            if (
                circumstance.events
                or circumstance.intentions
                or cfg.mail.inbox
                or not getattr(
                    cfg.select_event_override or select_event, "inert_on_empty_queue", False
                )
            ):
                later.append(position)
            else:
                cfg.wake = wake
        wake_set.running = len(agents)
        _deliver_media(state)
        state.trace.append(state.snapshot_record())
        state.tick += 1
    return state.trace


def quiescence_tick(trace: list[TraceRecord]) -> int | None:
    """First tick after which no moves or switches occur, if the trace shows one."""
    if not trace:
        return None
    last_active = None
    for record in trace:
        if record.moves or record.switches:
            last_active = record.tick
    if last_active is None:
        return 0
    if last_active == trace[-1].tick:
        return None
    return last_active + 1


# -- trace serialization --------------------------------------------------------


def trace_columns(state: SimulationState) -> list[str]:
    """Stable CSV column order; see the README for the column contract."""
    columns = ["tick"]
    columns += [f"server:{server_id}" for server_id in state.deployments]
    columns += [f"type:{service_type}" for service_type in state.types]
    columns += ["underloaded", "moves"]
    columns += [f"pub:{topic}" for topic in state.media]
    columns += ["switches", "rejected-moves", "rejected-switches"]
    columns += [f"demand:{service_type}" for service_type in sorted(state.demand)]
    return columns


def trace_rows(state: SimulationState) -> list[list[str]]:
    """One row per trace record, in ``trace_columns`` order, as cell text.

    Each cell is ``str`` of its integer, the text ``trace.csv`` holds, so a
    CSV writer converts nothing.  The server-count and type-count text is
    made once per deployment map: records that hold the previous record's
    map object reuse its cells.  The type counts carry from map to map: a
    server's list is replaced, never mutated, so only the servers whose list
    object changed are recounted.  Cells that show one value share one text
    object, so the rows hold no more objects than integer rows would.
    """
    demand_types = sorted(state.demand)
    counts: Counter[str] = Counter()
    counted: dict[str, list[str]] = {}
    rendered: dict[str, list[str]] | None = None
    cells: list[str] = []
    rows = []
    text = cache(str)  # the tick, unique per row, is rendered directly
    for record in state.trace:
        if record.deployments is not rendered:
            rendered = record.deployments
            for server_id, deployed in rendered.items():
                before = counted.get(server_id)
                if deployed is not before:
                    if before is not None:
                        counts.subtract(before)
                    counts.update(deployed)
                    counted[server_id] = deployed
            cells = [text(len(deployed)) for deployed in rendered.values()]
            cells += [text(counts[service_type]) for service_type in state.types]
        row = [str(record.tick), *cells, text(record.underloaded), text(record.moves)]
        row += [text(record.publications.get(topic, 0)) for topic in state.media]
        row += [text(record.switches), text(record.rejected_moves), text(record.rejected_switches)]
        row += [text(record.demand.get(service_type, 0)) for service_type in demand_types]
        rows.append(row)
    return rows


def summary(state: SimulationState) -> dict[str, Any]:
    """Run summary: quiescence tick, activity totals, final deployment map."""
    return {
        "scenario": state.config.name,
        "seed": state.config.seed,
        "ticks": len(state.trace),
        "quiescence-tick": quiescence_tick(state.trace),
        "total-moves": sum(record.moves for record in state.trace),
        "total-switches": sum(record.switches for record in state.trace),
        "total-rejected-moves": sum(record.rejected_moves for record in state.trace),
        "total-rejected-switches": sum(record.rejected_switches for record in state.trace),
        "final-deployments": dict(state.deployments),
        "final-demand": dict(sorted(state.demand.items())),
        "underloaded": len(state.underloaded_servers),
    }
