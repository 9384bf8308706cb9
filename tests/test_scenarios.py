"""Scenario construction, the mechanism operations, and both scenario runs."""

import copy
import csv
import functools
import io
import json
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coagent.coefficiency as coefficiency
import coagent.scenarios as scenarios
from coagent.bdi.config import AgentConfiguration
from coagent.bdi.events import TOP, EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import post_external_event, select_event
from coagent.bdi.plans import Act, Believe, Plan, PlanLibrary
from coagent.cli import main
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    register_module,
)
from coagent.coordination import (
    PUBLISH_ACTION,
    EndpointDeclaration,
    PublicationRule,
    attach_endpoint,
)
from coagent.loader import load_scenario, parse_scenario
from coagent.scenarios import (
    ROLES,
    DemandDelta,
    ScenarioConfig,
    ScenarioError,
    ServerSpec,
    ServiceSpec,
    SimulationState,
    apply_demand,
    build_scenario,
    canonical_endpoints,
    move_service,
    quiescence_tick,
    run_simulation,
    summary,
    switch_type,
    trace_columns,
    trace_rows,
)

from tests.conftest import REPO_ROOT, SCENARIO_A, SCENARIO_B
from tests.helpers import check_trace_safety, first_capacity_delivery_tick, type_counts


def two_server_config(deployments=(5, 1), capacity=5, preferred=3, services=6):
    placed = []
    index = 1
    for server, count in zip(("server-01", "server-02"), deployments):
        for _ in range(count):
            placed.append(ServiceSpec(f"svc-{index:02d}", "web", server))
            index += 1
    assert len(placed) == services
    return ScenarioConfig(
        name="two-server",
        servers=[
            ServerSpec("server-01", capacity, preferred),
            ServerSpec("server-02", capacity, preferred),
        ],
        services=placed,
        media={"capacity": 1, "demand-change": 1},
    )


class TestBuildScenario:
    def test_two_server_initial_underloaded_count(self):
        state = build_scenario(two_server_config())
        assert state.underloaded_servers == {"server-02"}  # at 1 of preferred 3

    def test_ten_domains_five_types_slots(self):
        config = load_scenario(SCENARIO_B)
        state = build_scenario(config)
        total_slots = sum(spec.capacity for spec in state.server_specs.values())
        assert total_slots == 50
        per_type = {}
        for service_type in state.service_type.values():
            per_type[service_type] = per_type.get(service_type, 0) + 1
        assert all(count <= 10 for count in per_type.values())
        # Uniqueness holds in the seeded placement.
        for types in state.deployments.values():
            assert len(set(types)) == len(types)

    def test_zero_services_vacuous_run(self):
        config = ScenarioConfig(
            name="empty",
            servers=[ServerSpec("server-01", 5, 3)],
            services=[],
        )
        state = build_scenario(config)
        trace = run_simulation(state, 10, seed=0)
        assert all(record.moves == 0 and record.switches == 0 for record in trace)

    def test_capacity_overflow_rejected(self):
        with pytest.raises(ScenarioError, match="exceed capacity"):
            two_server_config(deployments=(6, 0))

    def test_initial_uniqueness_violation_rejected(self):
        with pytest.raises(ScenarioError, match="uniqueness"):
            ScenarioConfig(
                name="dup",
                servers=[ServerSpec("server-01", 5, 3)],
                services=[
                    ServiceSpec("svc-01", "web", "server-01"),
                    ServiceSpec("svc-02", "web", "server-01"),
                ],
                uniqueness_constraint=True,
            )

    def test_unknown_initial_server_rejected(self):
        with pytest.raises(ScenarioError, match="unknown initial-server"):
            ScenarioConfig(
                name="missing",
                servers=[ServerSpec("server-01", 5, 3)],
                services=[ServiceSpec("svc-01", "web", "server-99")],
            )

    @pytest.mark.parametrize("role", ["sidecar", ""])
    def test_an_endpoint_of_no_role_is_rejected(self, role):
        # Attached to no agent, it would be silently ignored.
        config = two_server_config()
        endpoints = [*canonical_endpoints(), EndpointDeclaration("p", role=role)]
        with pytest.raises(ScenarioError, match=rf"endpoints\[4\]: role must be .*{role!r}"):
            replace(config, endpoints=endpoints)

    def test_a_built_config_is_frozen(self):
        config = two_server_config()
        with pytest.raises(FrozenInstanceError):
            config.seed = 1

    def test_a_built_config_cannot_be_changed_in_place(self):
        # Once a list, appending a service here made build_scenario fail
        # with a KeyError on the unplaced service.
        placed = ServiceSpec("a", "x", "s1")
        config = ScenarioConfig(name="one", servers=[ServerSpec("s1", 2, 1)], services=[placed])
        with pytest.raises(AttributeError):
            config.services.append(ServiceSpec("b", "x", "s9"))
        with pytest.raises(TypeError):
            config.media["capacity"] = 5
        with pytest.raises(TypeError):
            config.demand["x"] = 1
        with pytest.raises(TypeError):
            two_server_config().placement["svc-01"] = "server-02"
        assert config.services == (placed,) and config.demand == {}

    def test_a_config_keeps_no_reference_to_its_arguments(self):
        servers, demand = [ServerSpec("s1", 2, 1)], {"x": 1}
        config = ScenarioConfig(name="one", servers=servers, demand=demand)
        servers.append(ServerSpec("s2", 2, 1))
        demand["x"] = 2
        assert config.servers == (ServerSpec("s1", 2, 1),) and config.demand == {"x": 1}
        # replace() hands the stored values back, and they build the same config.
        assert replace(config) == config

    def test_building_a_scenario_draws_no_placement(self, monkeypatch):
        config = fleet_config(3)

        def admits(*args):
            raise AssertionError("the placement was drawn when the config was built")

        monkeypatch.setattr(scenarios, "admits", admits)
        state = build_scenario(config)
        assert state.service_server == config.placement

    def test_seeded_placement_is_deterministic_per_seed(self):
        config = load_scenario(SCENARIO_B)
        first = build_scenario(config)
        second = build_scenario(load_scenario(SCENARIO_B))
        assert first.service_server == second.service_server
        third = build_scenario(replace(load_scenario(SCENARIO_B), seed=99))
        assert third.service_server != first.service_server

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_named_placements_go_before_unnamed_ones(self, seed):
        # Placed in document order, ``a`` could take the only slot on s1
        # before ``b`` claims it by name.
        config = ScenarioConfig(
            name="mixed",
            seed=seed,
            servers=[ServerSpec("s1", 1, 1), ServerSpec("s2", 1, 1)],
            services=[ServiceSpec("a", "web"), ServiceSpec("b", "web", "s1")],
        )
        state = build_scenario(config)
        assert state.service_server == {"a": "s2", "b": "s1"}
        check_trace_safety([state.snapshot_record()], config)


@st.composite
def small_configs(draw):
    """The fields of configs of 1-4 servers and 0-7 services, named and
    unnamed placements mixed; now and then a service id clashes with a server
    or a broker."""
    servers = []
    for index in range(draw(st.integers(1, 4))):
        capacity = draw(st.integers(1, 3))
        servers.append(ServerSpec(f"s{index + 1}", capacity, draw(st.integers(1, capacity))))
    targets = st.one_of(st.none(), st.sampled_from([server.server_id for server in servers]))
    ids = draw(st.lists(st.sampled_from("abcdefg"), max_size=7, unique=True))
    if ids and draw(st.integers(0, 9)) == 0:
        ids[0] = draw(st.sampled_from(["s1", "broker-01"]))
    return dict(
        name="small",
        seed=draw(st.integers(0, 9)),
        servers=servers,
        services=[ServiceSpec(sid, draw(st.sampled_from("xyz")), draw(targets)) for sid in ids],
        brokers=draw(st.integers(0, 2)),
        uniqueness_constraint=draw(st.booleans()),
    )


@given(small_configs())
@settings(max_examples=300, deadline=None)
def test_a_config_that_builds_builds_a_legal_scenario(fields):
    try:
        config = ScenarioConfig(**fields)
    except ScenarioError:
        return
    state = build_scenario(config)
    assert state.service_server == config.placement
    check_trace_safety([state.snapshot_record()], config)


def greedy_placement(fields):
    """The seeded greedy draw alone, written out: named services first, then
    each unnamed one draws among the servers that take it; None when one
    finds none, or when a named service does not fit."""
    uniqueness = fields["uniqueness_constraint"]
    capacity = {server.server_id: server.capacity for server in fields["servers"]}
    types = {server_id: [] for server_id in capacity}
    rng = random.Random(fields["seed"])
    placement = {}
    for service in sorted(fields["services"], key=lambda service: service.initial_server is None):
        eligible = [service.initial_server] if service.initial_server else list(types)
        eligible = [
            server_id
            for server_id in eligible
            if server_id in types
            and len(types[server_id]) < capacity[server_id]
            and not (uniqueness and service.service_type in types[server_id])
        ]
        if not eligible:
            return None
        target = eligible[0] if service.initial_server else rng.choice(eligible)
        types[target].append(service.service_type)
        placement[service.service_id] = target
    return placement


def has_legal_placement(fields):
    """Whether any placement of the unnamed services fits, by backtracking
    over every server for each; the named services must fit where named."""
    uniqueness = fields["uniqueness_constraint"]
    capacity = {server.server_id: server.capacity for server in fields["servers"]}
    types = {server_id: [] for server_id in capacity}

    def fits(server_id, service):
        return len(types[server_id]) < capacity[server_id] and not (
            uniqueness and service.service_type in types[server_id]
        )

    unnamed = []
    for service in fields["services"]:
        if service.initial_server is None:
            unnamed.append(service)
        elif service.initial_server in types and fits(service.initial_server, service):
            types[service.initial_server].append(service.service_type)
        else:
            return False

    def place(index):
        if index == len(unnamed):
            return True
        for server_id in types:
            if fits(server_id, unnamed[index]):
                types[server_id].append(unnamed[index].service_type)
                if place(index + 1):
                    return True
                types[server_id].pop()
        return False

    return place(0)


#: Two unnamed ``y`` services and one ``x`` on a two-slot and a one-slot
#: server, under uniqueness: the greedy draw refuses five of seeds 0-11.
TIGHT_FIELDS = dict(
    name="tight",
    servers=[ServerSpec("s1", 2, 1), ServerSpec("s2", 1, 1)],
    services=[ServiceSpec("a", "x"), ServiceSpec("b", "y"), ServiceSpec("c", "y")],
    uniqueness_constraint=True,
)


class TestPlacementSearch:
    def test_every_seed_of_a_placeable_document_is_placed(self):
        refused = []
        for seed in range(12):
            fields = dict(TIGHT_FIELDS, seed=seed)
            config = ScenarioConfig(**fields)
            drawn = greedy_placement(fields)
            if drawn is None:
                refused.append(seed)
                assert config.placement == {"a": "s1", "b": "s1", "c": "s2"}
            else:
                assert config.placement == drawn
            check_trace_safety([build_scenario(config).snapshot_record()], config)
        assert refused == [0, 5, 7, 9, 11]

    def test_the_search_places_twenty_copies_of_the_document(self):
        # Every y needs a server without one, so an x drawn onto any
        # one-slot server strands a y: the greedy draw fails.
        servers = [
            ServerSpec(f"{kind}{index:02d}", slots, 1)
            for index in range(20)
            for kind, slots in (("big", 2), ("small", 1))
        ]
        services = [ServiceSpec(f"x{index:02d}", "x") for index in range(20)]
        services += [ServiceSpec(f"y{index:02d}", "y") for index in range(40)]
        fields = dict(
            TIGHT_FIELDS, name="tight-fleet", seed=3, servers=servers, services=services
        )
        assert greedy_placement(fields) is None
        config = ScenarioConfig(**fields)
        assert all(config.placement[f"x{index:02d}"].startswith("big") for index in range(20))
        check_trace_safety([build_scenario(config).snapshot_record()], config)


@given(small_configs())
@settings(max_examples=300, deadline=None)
def test_no_legal_placement_is_raised_only_when_none_exists(fields):
    # And a document the greedy draw places keeps the draw's placement.
    try:
        config = ScenarioConfig(**fields)
    except ScenarioError as error:
        if "no legal placement" in str(error):
            assert not has_legal_placement(fields)
        return
    assert has_legal_placement(fields)
    drawn = greedy_placement(fields)
    if drawn is not None:
        assert config.placement == drawn


@contextmanager
def every_agent_every_tick():
    """Wrap the co-efficient selector for the builds inside, as perfbench's
    tracer does: the wrapper carries no sleep declaration, so no agent of
    those builds sleeps and each runs a cycle every tick."""
    select = coefficiency.select_event_coefficient
    coefficiency.select_event_coefficient = lambda cfg: select(cfg)
    try:
        yield
    finally:
        coefficiency.select_event_coefficient = select


@st.composite
def running_configs(draw):
    """``small_configs`` with demand for every type, a drawn demand schedule
    over the first twelve ticks, and drawn publication and acceptance rules."""
    fields = draw(small_configs())
    deltas = st.builds(
        DemandDelta, st.integers(0, 11), st.sampled_from("xyz"), st.integers(-15, 30)
    )
    return dict(
        fields,
        demand={service_type: draw(st.integers(1, 20)) for service_type in "xyz"},
        demand_schedule=draw(st.lists(deltas, max_size=6)),
        publish_when_empty=draw(st.booleans()),
        move_acceptance_probability=draw(st.sampled_from([1.0, 0.5])),
    )


@given(running_configs())
@settings(max_examples=200, deadline=None)
def test_sleeping_agents_change_no_output(fields):
    # Service ids a-g sort before the servers that a move wakes mid-tick,
    # so a woken server must still run in the tick of the move.
    try:
        config = ScenarioConfig(**fields)
    except ScenarioError:
        return

    def outputs(state):
        run_simulation(state, 12)
        observations = {agent_id: cfg.observations for agent_id, cfg in state.agents.items()}
        return trace_rows(state), summary(state), observations

    scheduled = build_scenario(config, agent_log=True)
    with every_agent_every_tick():
        every_agent = build_scenario(config, agent_log=True)
    assert outputs(scheduled) == outputs(every_agent)


#: The process ids a drawn declaration may take besides the canonical two:
#: processes that only a document declares.
DOCUMENT_PROCESS_IDS = ("audit", "alerts", "watch")
TOPICS = ("capacity", "demand-change", "alerts")
#: Per role, beliefs its agents hold from the start.
ROLE_BELIEFS = {
    "server": ("server", "capacity", "preferred_min", "deployed"),
    "service": ("type", "current_server"),
    "broker": ("x", "y", "z"),
}
CANONICAL = {
    (decl.process_id, decl.role): decl for decl in canonical_endpoints()
}


@st.composite
def drawn_declaration(draw, process_id, role):
    """A declaration of ``process_id`` for ``role``: mostly the canonical
    one, when there is one, else drawn publication and reaction rules, each
    reaction with a plan that notes what it heard."""
    canonical = CANONICAL.get((process_id, role))
    if canonical is not None and draw(st.integers(0, 3)):
        return canonical
    beliefs = ROLE_BELIEFS[role]
    categories = [EventCategory.BELIEF_UPDATED, EventCategory.BELIEF_ADDED]
    publications = [
        PublicationRule(
            observe=pattern(
                draw(st.sampled_from(categories)), draw(st.sampled_from([None, *beliefs]))
            ),
            topic=draw(st.sampled_from(TOPICS)),
            extract=tuple(draw(st.lists(st.sampled_from(beliefs), unique=True))),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    reactions, plans = [], []
    for topic in draw(st.lists(st.sampled_from(TOPICS), max_size=2, unique=True)):
        goal = f"{process_id}-heard-{topic}"
        reactions.append(
            EventMappingEntry(
                observe=pattern(EventCategory.MESSAGE_RECEIVED, topic),
                inject=EventTemplate(EventCategory.GOAL_ADDED, goal, {"at": Expr("subject")}),
            )
        )
        note = Believe(goal.replace("-", "_"), Expr("payload.at"))
        plans.append(Plan(goal, pattern(EventCategory.GOAL_ADDED, goal), (note,)))
    return EndpointDeclaration(
        process_id=process_id,
        role=role,
        publications=tuple(publications),
        reactions=tuple(reactions),
        plans=tuple(plans),
    )


@st.composite
def declared_configs(draw):
    """``running_configs`` under drawn endpoint declarations, and drawn
    latencies for some topics.  A role mostly takes each canonical process,
    mostly as its canonical declaration, and up to two processes that only
    a document declares; it may take none."""
    fields = draw(running_configs())
    endpoints = []
    for role in ROLES:
        process_ids = [pid for pid, of in CANONICAL if of == role and draw(st.integers(0, 3))]
        process_ids += draw(
            st.lists(st.sampled_from(DOCUMENT_PROCESS_IDS), max_size=2, unique=True)
        )
        for process_id in process_ids:
            endpoints.append(draw(drawn_declaration(process_id, role)))
    media = draw(st.dictionaries(st.sampled_from(TOPICS), st.integers(0, 2)))
    return dict(fields, endpoints=draw(st.permutations(endpoints)), media=media)


def per_member_build(config, agent_log):
    """The reference side of the test below: ``build_scenario``'s agents,
    media and bootstrap readings, with each member's co-efficient state,
    endpoints and subscriptions built again by the member itself, each
    declaration of its role through ``attach_endpoint``, from one empty
    library per build."""
    state = build_scenario(config, agent_log=agent_log)
    roles = dict.fromkeys(state.server_specs, "server")
    roles.update(dict.fromkeys(state.service_server, "service"))
    roles.update(dict.fromkeys(config.broker_ids, "broker"))
    library = PlanLibrary()
    state.endpoints = {}
    for medium in state.media.values():
        medium.subscribers = {}
    for agent_id, cfg in state.agents.items():
        role = roles[agent_id]
        cfg.plans, cfg.circumstance.actions = library, ROLES[role][0]
        cfg.modules, cfg.mapping, cfg.observation_hooks = {}, {}, []
        cfg.select_event_override = None
        for decl in config.endpoints:
            if decl.role == role:
                endpoint = attach_endpoint(decl, cfg)
                state.endpoints[endpoint.endpoint_id] = endpoint
                for topic in sorted(decl.topics):
                    state.media[topic].subscribe(endpoint.endpoint_id, agent_id)
    return state, roles


def output_texts(state):
    """What ``coagent run`` writes for a run of the state: ``trace.csv``,
    ``summary.json`` and ``agent-log.jsonl``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(trace_columns(state))
    writer.writerows(trace_rows(state))
    log = "".join(
        json.dumps({"agent": agent_id, "observations": cfg.observations}, sort_keys=True) + "\n"
        for agent_id, cfg in state.agents.items()
    )
    return buffer.getvalue(), json.dumps(summary(state), indent=2, sort_keys=True) + "\n", log


def member_program(cfg):
    """A copy of what registration gives a host."""
    return (
        list(cfg.plans.by_id.items()),
        cfg.circumstance.actions,
        dict(cfg.mapping),
        dict(cfg.modules),
        list(cfg.observation_hooks),
        cfg.select_event_override,
    )


@given(declared_configs())
@settings(max_examples=150, deadline=None)
def test_role_programs_build_what_per_member_registration_builds(fields):
    # A build registers each role's declarations once and its members
    # share the result; registering them on every member instead must
    # give each member the same program, endpoints and subscriptions, and
    # the run the same output bytes.
    try:
        config = ScenarioConfig(**fields)
    except ScenarioError:
        return
    shared = build_scenario(config, agent_log=True)
    reference, roles = per_member_build(config, agent_log=True)
    for agent_id, cfg in shared.agents.items():
        assert member_program(cfg) == member_program(reference.agents[agent_id])
    # One library per role within a build.
    for role in ROLES:
        members = [cfg for agent_id, cfg in shared.agents.items() if roles[agent_id] == role]
        assert len({id(cfg.plans) for cfg in members}) <= 1
    assert shared.endpoints == reference.endpoints
    assert {topic: medium.subscribers for topic, medium in shared.media.items()} == {
        topic: medium.subscribers for topic, medium in reference.media.items()
    }
    for state in (shared, reference):
        run_simulation(state, 12)
    assert output_texts(shared) == output_texts(reference)


def spliced_endpoints(publish_when_empty, threshold):
    """The canonical declarations as they were once built from a config's
    parameters: ``publish_when_empty`` picks one of two capacity guards and
    the threshold is spliced into the broker guard as a literal."""
    if publish_when_empty:
        capacity_guard = Expr("deployed < preferred_min")
    else:
        capacity_guard = Expr("deployed > 0 and deployed < preferred_min")
    guards = {
        "server": capacity_guard,
        "broker": Expr(f"abs(payload.new - payload.old) / payload.old >= {threshold!r}"),
    }
    return tuple(
        replace(
            decl,
            publications=tuple(replace(rule, guard=guards[decl.role]) for rule in decl.publications),
        )
        for decl in canonical_endpoints()
    )


@given(
    running_configs(),
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.floats(0, 3, allow_nan=False, allow_infinity=False),
    ),
)
@settings(max_examples=150, deadline=None)
def test_parameter_beliefs_run_as_the_spliced_declarations(fields, threshold):
    # The canonical guards read publish_when_empty and significance_threshold
    # as beliefs; declarations that spell the parameters out instead must
    # give the same trace.csv, summary.json and agent-log.jsonl texts.
    try:
        config = ScenarioConfig(**fields, significance_threshold=threshold)
    except ScenarioError:
        return
    spliced = replace(config, endpoints=spliced_endpoints(config.publish_when_empty, threshold))
    states = [build_scenario(built, agent_log=True) for built in (config, spliced)]
    for state in states:
        run_simulation(state, 12)
    assert output_texts(states[0]) == output_texts(states[1])


@pytest.mark.parametrize("declared", [True, False], ids=["canonical", "no-declarations"])
def test_registering_a_module_on_one_member_changes_no_other(declared):
    # Members of a role share their registered program; registration gives
    # the host new values, so the others keep theirs, also where a role
    # shares the empty values of no declaration.
    config = load_scenario(SCENARIO_B)
    if not declared:
        config = replace(config, endpoints=())
    state = build_scenario(config)
    first, *others = (state.agents[service_id] for service_id in state.service_server)

    def held(cfg):
        return cfg.plans, cfg.circumstance.actions, cfg.modules, cfg.mapping, cfg.observation_hooks

    before = [member_program(cfg) for cfg in others]
    values = [held(cfg) for cfg in others]
    note = Plan("note", pattern(EventCategory.GOAL_ADDED, "note"), (Believe("seen", Expr("1")),))
    noting = EventMappingEntry(
        observe=pattern(EventCategory.GOAL_ADDED, "move-to"),
        inject=EventTemplate(EventCategory.GOAL_ADDED, "note"),
    )
    register_module(first, CoefficientModule("extra", {"seen": 0}, [note], [noting]))
    moved = PublicationRule(pattern(EventCategory.BELIEF_UPDATED, "current_server"), "moved")
    attach_endpoint(EndpointDeclaration("moves", "service", publications=(moved,)), first)
    assert {"extra", "ep.moves"} <= first.modules.keys() and "extra" in first.mapping
    assert PUBLISH_ACTION in first.circumstance.actions
    assert [member_program(cfg) for cfg in others] == before
    for cfg, old in zip(others, values):
        assert all(new is value for new, value in zip(held(cfg), old))
        assert "extra__seen" not in cfg.beliefs


def naive_int_rows(state):
    """``trace_rows``' values written out: every cell of a row recounted from
    that row's own record, sharing nothing with other rows, as integers."""
    preferred = {server_id: spec.preferred_min for server_id, spec in state.server_specs.items()}
    rows = []
    for record in state.trace:
        deployments = record.deployments
        underloaded = sum(
            0 < len(listed) < preferred[server_id] for server_id, listed in deployments.items()
        )
        assert underloaded == record.underloaded
        rows.append(
            [
                record.tick,
                *(len(listed) for listed in deployments.values()),
                *type_counts(record, state.types).values(),
                underloaded,
                record.moves,
                *(record.publications.get(topic, 0) for topic in state.media),
                record.switches,
                record.rejected_moves,
                record.rejected_switches,
                *(record.demand.get(service_type, 0) for service_type in sorted(state.demand)),
            ]
        )
    return rows


def naive_rows(state):
    """``trace_rows`` written out: ``str`` of each recounted value."""
    return [[str(value) for value in row] for row in naive_int_rows(state)]


@given(running_configs())
@settings(max_examples=100, deadline=None)
def test_trace_rows_equal_a_renderer_that_recounts_every_record(fields):
    try:
        config = ScenarioConfig(**fields)
    except ScenarioError:
        return
    state = build_scenario(config)
    run_simulation(state, 12)
    assert trace_rows(state) == naive_rows(state)


@given(running_configs())
@settings(max_examples=100, deadline=None)
def test_trace_rows_are_text_that_writes_as_the_integer_rows(fields):
    # Every cell is already text, so a CSV writer converts nothing, and the
    # bytes it writes are those it writes for the recounted integer rows.
    # Past the tick, the cells that show one value share one text object.
    try:
        config = ScenarioConfig(**fields)
    except ScenarioError:
        return
    state = build_scenario(config)
    run_simulation(state, 12)
    rows = trace_rows(state)
    assert all(type(cell) is str for row in rows for cell in row)
    shown = [cell for row in rows for cell in row[1:]]
    assert len({id(cell) for cell in shown}) == len(set(shown))

    def written(rows):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(trace_columns(state))
        writer.writerows(rows)
        return buffer.getvalue()

    assert written(rows) == written(naive_int_rows(state))


#: The canonical declarations as the packaged document spells them out.
CANONICAL_ENDPOINTS_DOCUMENT = json.loads(scenarios.CANONICAL_ENDPOINTS.read_text(encoding="utf-8"))

#: A third coordination process, declared in the document alone: servers
#: below their preferred level announce themselves on ``spare``, and
#: services elsewhere react with a ``go-to`` goal that their declaration's
#: own plan pursues by relocating.
SPARE_ROOM_PROCESS = [
    {
        "process-id": "spare-room",
        "role": "server",
        "publication-rules": [
            {
                "observe": {"category": "belief-updated", "subject": "deployed"},
                "guard": "deployed > 0 and deployed < preferred_min",
                "topic": "spare",
                "extract": ["server"],
            }
        ],
    },
    {
        "process-id": "spare-room",
        "role": "service",
        "reaction-rules": [
            {
                "match": {"topic": "spare"},
                "guard": "payload.server != current_server",
                "inject": {
                    "category": "goal-added",
                    "subject": "go-to",
                    "payload": {"server": "payload.server"},
                },
            }
        ],
        "plans": [
            {
                "id": "go-to",
                "trigger": {"category": "goal-added", "subject": "go-to"},
                "body": [{"do": "act", "name": "relocate", "args": {"server": "payload.server"}}],
            }
        ],
    },
]


def fleet_config(servers):
    """``servers`` servers holding two services each, plus two brokers."""
    return ScenarioConfig(
        name="fleet",
        servers=[ServerSpec(f"server-{i:02d}", 5, 3) for i in range(servers)],
        services=[
            ServiceSpec(f"svc-{i:02d}-{j}", f"type-{j}", f"server-{i:02d}")
            for i in range(servers)
            for j in range(2)
        ],
        brokers=2,
        demand={"type-0": 10, "type-1": 10},
    )


class TestEndpointDeclarations:
    def test_expression_parses_do_not_grow_with_the_fleet(self, monkeypatch):
        parses = []
        original = Expr.__init__

        def counting_init(expr, source):
            parses.append(source)
            original(expr, source)

        monkeypatch.setattr(Expr, "__init__", counting_init)
        build_scenario(fleet_config(2))
        small = len(parses)
        parses.clear()
        build_scenario(fleet_config(20))
        assert small > 0
        assert len(parses) == small

    def test_each_role_shares_one_compiled_module(self):
        state = build_scenario(fleet_config(3))
        modules = {}
        for endpoint in state.endpoints.values():
            modules.setdefault(endpoint.decl.process_id, set()).add(id(endpoint.decl.module))
        # utilization: one server module and one service module; balancing:
        # one service module and one broker module.
        assert {process: len(ids) for process, ids in modules.items()} == {
            "utilization": 2,
            "balancing": 2,
        }

    def test_hosts_of_one_declaration_share_its_topics(self):
        state = build_scenario(fleet_config(3))
        endpoints = list(state.endpoints.values())
        # Four canonical declarations: four topic sets for all 17 endpoints.
        assert len(endpoints) == 17
        assert len({id(endpoint.decl) for endpoint in endpoints}) == 4
        assert len({id(endpoint.decl.topics) for endpoint in endpoints}) == 4
        services = sorted(state.service_server)
        assert state.media["capacity"].subscribers == {f"{s}/utilization": s for s in services}
        assert state.media["demand-change"].subscribers == {f"{s}/balancing": s for s in services}

    def test_services_share_one_plan_library_and_action_set(self):
        state = build_scenario(fleet_config(3))
        services = [state.agents[service_id] for service_id in state.service_server]
        library, actions = services[0].plans, services[0].circumstance.actions
        assert all(cfg.plans is library for cfg in services)
        assert all(cfg.circumstance.actions is actions for cfg in services)
        assert all(state.agents[server].plans is not library for server in state.server_specs)
        # Built per call: the next build's services share a new library.
        assert build_scenario(fleet_config(3)).agents["svc-00-0"].plans is not library

    def test_hosts_of_one_library_and_module_share_one_new_library_per_build(self):
        # The capacity-storm shape: every server registers the one publishing
        # module on the library it was built with.
        first, second = build_scenario(fleet_config(20)), build_scenario(fleet_config(20))
        for state in (first, second):
            for role in (list(state.server_specs), state.config.broker_ids):
                libraries = {id(state.agents[agent_id].plans) for agent_id in role}
                assert len(libraries) == 1
        server = first.agents["server-00"].plans
        assert list(server.by_id) == ["ep.utilization.publish.0"]
        run_simulation(first, 3)
        # Two builds share no library, so no relevance index carries over.
        assert not {id(cfg.plans) for cfg in first.agents.values()} & {
            id(cfg.plans) for cfg in second.agents.values()
        }

    def test_one_config_built_twice_shares_no_library(self):
        # The document's declarations, and so their modules, serve both
        # builds; each build's base libraries keep the builds apart.
        doc = json.loads(SCENARIO_B.read_text())
        doc["endpoints"] = CANONICAL_ENDPOINTS_DOCUMENT
        config = parse_scenario(doc)
        first, second = build_scenario(config), build_scenario(config)
        assert not {id(cfg.plans) for cfg in first.agents.values()} & {
            id(cfg.plans) for cfg in second.agents.values()
        }
        for state in (first, second):
            run_simulation(state, config.ticks)
        assert trace_rows(first) == trace_rows(second)
        assert summary(first) == summary(second)

    def test_a_publishing_service_endpoint_gives_the_services_one_new_library(self):
        # Each service announces where it moved: registration gives the
        # services, which shared one library, one new library with the
        # publish plan, built once, and writes nothing into the old one.
        doc = json.loads(SCENARIO_B.read_text())
        rule = {
            "observe": {"category": "belief-updated", "subject": "current_server"},
            "topic": "moved",
            "extract": ["type", "current_server"],
        }
        moves = {"process-id": "moves", "role": "service", "publication-rules": [rule]}
        doc["endpoints"] = [*CANONICAL_ENDPOINTS_DOCUMENT, moves]
        state = build_scenario(parse_scenario(doc))
        services = [state.agents[service_id] for service_id in state.service_server]
        assert len({id(cfg.plans) for cfg in services}) == 1
        for cfg in services:
            assert list(cfg.plans.by_id) == ["move-to", "switch-to", "ep.moves.publish.0"]
            assert cfg.circumstance.actions == {"relocate", "reallocate", PUBLISH_ACTION}
        trace = run_simulation(state, state.config.ticks)
        published = sum(record.publications["moved"] for record in trace)
        assert 0 < published <= sum(record.moves for record in trace)

    def test_a_config_holds_the_declarations_its_builds_use(self):
        config = fleet_config(2)
        assert type(config.endpoints) is tuple and config.endpoints == canonical_endpoints()
        # Made per config, so each config parses its own expressions.
        assert config.endpoints[0] is not fleet_config(2).endpoints[0]
        declared = replace(config, endpoints=list(config.endpoints[:2]))
        assert declared.endpoints == config.endpoints[:2]
        state = build_scenario(config)
        attached = {id(endpoint.decl) for endpoint in state.endpoints.values()}
        assert attached == {id(decl) for decl in config.endpoints}

    def test_parameters_are_beliefs_not_declarations(self):
        config = fleet_config(2)
        assert not config.publish_when_empty and config.significance_threshold == 0.5
        changed = replace(config, significance_threshold=0.8, publish_when_empty=True)
        assert changed.endpoints == config.endpoints == canonical_endpoints()
        for built, threshold, empty in ((config, 0.5, False), (changed, 0.8, True)):
            state = build_scenario(built)
            for server_id in state.server_specs:
                assert state.agents[server_id].beliefs.get("publish_when_empty") is empty
            for broker_id in built.broker_ids:
                beliefs = state.agents[broker_id].beliefs.as_dict()
                assert beliefs == {"type-0": 10, "type-1": 10, "significance_threshold": threshold}

    @pytest.mark.parametrize("threshold", [0.5, 0.25])
    @pytest.mark.parametrize("publish_when_empty", [False, True])
    def test_spelled_out_canonical_endpoints_give_identical_trace(
        self, tmp_path, publish_when_empty, threshold
    ):
        doc = json.loads(SCENARIO_B.read_text())
        doc.update({"publish-when-empty": publish_when_empty, "significance-threshold": threshold})
        default = tmp_path / "default.json"
        default.write_text(json.dumps(doc))
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps({**doc, "endpoints": CANONICAL_ENDPOINTS_DOCUMENT}))
        config = load_scenario(explicit)
        assert config.endpoints == canonical_endpoints()
        outputs = {}
        for scenario in (default, explicit):
            out = tmp_path / scenario.stem
            emit = ["--emit", "trace-csv", "--emit", "agent-log"]
            assert main(["run", "--scenario", str(scenario), "--out", str(out), *emit]) == 0
            outputs[scenario.stem] = [
                (out / name).read_bytes() for name in ("trace.csv", "agent-log.jsonl")
            ]
        assert outputs["explicit"] == outputs["default"]

    def test_a_process_declared_in_the_document_alone_runs(self):
        # Scenario A under SPARE_ROOM_PROCESS instead of the canonical
        # declarations: no Python file names its topic, goal or process.
        doc = json.loads(SCENARIO_A.read_text())
        doc["endpoints"] = SPARE_ROOM_PROCESS
        config = parse_scenario(doc)
        state = build_scenario(config)
        assert list(state.agents["svc-01"].plans.by_id) == ["go-to"]
        trace = run_simulation(state, config.ticks)
        check_trace_safety(trace, config)
        assert sum(record.publications["spare"] for record in trace) > 0
        assert sum(record.moves for record in trace) > 0
        assert quiescence_tick(trace) is not None
        assert trace[-1].underloaded == 0
        sources = [path for path in (REPO_ROOT / "src" / "coagent").rglob("*") if path.is_file()]
        assert sources
        for path in sources:
            for name in (b"spare", b"go-to", b"spare-room"):
                assert name not in path.read_bytes(), f"{path} names {name!r}"

    @pytest.mark.parametrize("threshold, published", [(1.5, 1), (2.5, 0)])
    def test_a_process_declared_in_the_document_alone_reads_a_parameter(
        self, threshold, published
    ):
        # Scenario B's one demand change takes type-1 from 10 to 30: it
        # reaches a rise of 1.5 times the old rate, not one of 2.5 times.
        surge = {
            "process-id": "surge",
            "role": "broker",
            "publication-rules": [
                {
                    "observe": {"category": "belief-updated"},
                    "guard": "payload.new >= payload.old * (1 + significance_threshold)",
                    "topic": "surge",
                    "extract-event": {"old": "payload.old", "new": "payload.new"},
                }
            ],
        }
        doc = json.loads(SCENARIO_B.read_text())
        doc.update({"significance-threshold": threshold, "endpoints": [surge]})
        state = build_scenario(parse_scenario(doc))
        trace = run_simulation(state, state.config.ticks)
        assert list(state.media) == ["capacity", "demand-change", "surge"]
        assert sum(record.publications["surge"] for record in trace) == published
        assert sum(record.publications["demand-change"] for record in trace) == 0


def three_server_config(topic=None):
    """server-02 (1 deployed) and server-03 (2 deployed) both offer capacity at tick 1.

    With ``topic`` the utilization process is declared as a document's
    ``endpoints`` section on that topic instead of the canonical ``capacity``.
    """
    placed = {"server-01": 4, "server-02": 1, "server-03": 2}
    config = ScenarioConfig(
        name="three-server",
        servers=[ServerSpec(server_id, 5, 3) for server_id in placed],
        services=[
            ServiceSpec(f"svc-{server_id[-2:]}-{index}", "web", server_id)
            for server_id, count in placed.items()
            for index in range(count)
        ],
        media={topic or "capacity": 0},
    )
    if topic is not None:
        endpoints = [
            replace(
                decl,
                publications=tuple(replace(rule, topic=topic) for rule in decl.publications),
                reactions=tuple(
                    replace(entry, observe=replace(entry.observe, subject=topic))
                    for entry in decl.reactions
                ),
            )
            for decl in canonical_endpoints()
            if decl.process_id == "utilization"
        ]
        config = replace(config, endpoints=endpoints)
    return config


def queued_move_targets(topic=None):
    """Per service, its server and the servers its queued ``move-to`` goals name
    after the first offers."""
    state = build_scenario(three_server_config(topic))
    run_simulation(state, 2)
    assert [record.publications[topic or "capacity"] for record in state.trace] == [0, 2]
    return {
        service_id: (
            server_id,
            [
                event.te.payload["server"]
                for event in state.agents[service_id].circumstance.events
                if event.te.subject == "move-to"
            ],
        )
        for service_id, server_id in state.service_server.items()
    }


class TestReleaseOrder:
    @pytest.mark.parametrize("topic", [None, "capacity"], ids=["canonical", "document"])
    def test_capacity_offers_reach_each_service_fuller_server_first(self, topic):
        for service_id, (current, servers) in queued_move_targets(topic).items():
            expected = [offer for offer in ("server-03", "server-02") if offer != current]
            assert servers == expected, service_id

    def test_other_topics_keep_publication_order(self):
        for service_id, (current, servers) in queued_move_targets("offers").items():
            expected = [offer for offer in ("server-02", "server-03") if offer != current]
            assert servers == expected, service_id


class TestApplyDemand:
    def make_state(self, schedule):
        config = ScenarioConfig(
            name="demand",
            servers=[ServerSpec("server-01", 5, 3)],
            services=[ServiceSpec("svc-01", "type-1", "server-01")],
            brokers=1,
            demand={"type-1": 10},
            demand_schedule=schedule,
            significance_threshold=0.5,
        )
        return build_scenario(config)

    def test_no_entry_no_belief_change(self):
        state = self.make_state([DemandDelta(5, "type-1", 20)])
        broker = state.agents["broker-01"]
        before = len(broker.circumstance.events)
        apply_demand(state, 0)
        assert len(broker.circumstance.events) == before

    def test_deltas_of_one_tick_apply_in_document_order(self):
        state = self.make_state(
            [DemandDelta(2, "type-1", 5), DemandDelta(0, "type-1", 1), DemandDelta(2, "type-1", -3)]
        )
        broker = state.agents["broker-01"]
        queued = len(broker.circumstance.events)
        apply_demand(state, 2)
        written = [event.te.payload for event in broker.circumstance.events[queued:]]
        assert written == [{"old": 10, "new": 15}, {"old": 15, "new": 12}]
        assert state.demand["type-1"] == 12

    def test_significant_change_fires_publication(self):
        # Oracle: |delta| / old = 20/10 = 2.0 >= 0.5, so the guard holds.
        state = self.make_state([DemandDelta(0, "type-1", 20)])
        trace = run_simulation(state, 3, seed=0)
        assert abs(30 - 10) / 10 >= 0.5
        assert sum(r.publications.get("demand-change", 0) for r in trace) == 1
        assert state.demand["type-1"] == 30

    def test_insignificant_change_fires_nothing(self):
        # Oracle: |delta| / old = 1/10 < 0.5.
        state = self.make_state([DemandDelta(0, "type-1", 1)])
        trace = run_simulation(state, 3, seed=0)
        assert abs(11 - 10) / 10 < 0.5
        assert sum(r.publications.get("demand-change", 0) for r in trace) == 0

    def test_only_brokers_mirror_demand(self):
        # A server whose id merely starts with "broker-" is not a broker.
        config = ScenarioConfig(
            name="demand",
            servers=[ServerSpec("broker-zz", 5, 3)],
            services=[ServiceSpec("svc-01", "type-1", "broker-zz")],
            brokers=1,
            demand={"type-1": 10},
            demand_schedule=[DemandDelta(0, "type-1", 10)],
        )
        state = build_scenario(config)
        assert config.broker_ids == ["broker-01"]
        apply_demand(state, 0)
        assert state.agents["broker-01"].beliefs.get("type-1") == 20
        assert "type-1" not in state.agents["broker-zz"].beliefs


class TestMoveService:
    def test_legal_move_preserves_conservation(self):
        state = build_scenario(two_server_config())
        total_before = sum(len(types) for types in state.deployments.values())
        assert move_service(state, "svc-01", "server-02") is True
        assert state.service_server["svc-01"] == "server-02"
        assert len(state.deployments["server-01"]) == 4
        assert len(state.deployments["server-02"]) == 2
        assert sum(len(types) for types in state.deployments.values()) == total_before
        # Paired belief updates on all three agents.
        assert state.agents["server-01"].beliefs.get("deployed") == 4
        assert state.agents["server-02"].beliefs.get("deployed") == 2
        assert state.agents["svc-01"].beliefs.get("current_server") == "server-02"

    def test_full_destination_rejected(self):
        state = build_scenario(two_server_config(deployments=(1, 5)))
        assert move_service(state, "svc-01", "server-02") is False
        assert state.rejected_moves == 1
        assert len(state.deployments["server-01"]) == 1

    def test_uniqueness_violation_rejected(self):
        config = ScenarioConfig(
            name="uniq",
            servers=[ServerSpec("server-01", 5, 3), ServerSpec("server-02", 5, 3)],
            services=[
                ServiceSpec("svc-01", "web", "server-01"),
                ServiceSpec("svc-02", "web", "server-02"),
            ],
            uniqueness_constraint=True,
        )
        state = build_scenario(config)
        assert move_service(state, "svc-01", "server-02") is False
        assert state.rejected_moves == 1

    def test_same_server_is_precondition_violation(self):
        state = build_scenario(two_server_config())
        with pytest.raises(ScenarioError):
            move_service(state, "svc-01", "server-01")


class TestSwitchType:
    def make_state(self, uniqueness=True):
        config = ScenarioConfig(
            name="switch",
            servers=[ServerSpec("server-01", 5, 3)],
            services=[
                ServiceSpec("svc-01", "type-1", "server-01"),
                ServiceSpec("svc-02", "type-2", "server-01"),
            ],
            uniqueness_constraint=uniqueness,
        )
        return build_scenario(config)

    def test_switch_shifts_type_counts(self):
        state = self.make_state(uniqueness=False)
        assert switch_type(state, "svc-02", "type-3") is True
        assert state.service_type["svc-02"] == "type-3"
        assert state.agents["svc-02"].beliefs.get("type") == "type-3"
        assert state.switches == 1

    def test_duplicate_type_rejected_under_uniqueness(self):
        state = self.make_state()
        assert switch_type(state, "svc-02", "type-1") is False
        assert state.service_type["svc-02"] == "type-2"
        assert state.rejected_switches == 1

    def test_same_type_is_silent_noop(self):
        state = self.make_state()
        assert switch_type(state, "svc-02", "type-2") is True
        assert state.switches == 0


def reachable_deployments(total, capacity, preferred):
    """Exhaustive oracle for the two-server process.

    States are (d1, d2) pairs; a transition moves one service respecting the
    policy: destination underloaded (below preferred), source either drained
    to zero or kept at/above preferred, capacity never exceeded.  Returns the
    set of reachable states and the minimum underloaded count over the set of
    quiescent (no outgoing transition) states.
    """

    def underloaded(state):
        return sum(1 for d in state if 0 < d < preferred)

    def transitions(state):
        moves = []
        for source in range(2):
            for dest in range(2):
                if source == dest:
                    continue
                d_source, d_dest = state[source], state[dest]
                if d_source == 0 or d_dest >= capacity:
                    continue
                if d_dest >= preferred:  # destination no longer underloaded
                    continue
                remaining = d_source - 1
                if 0 < remaining < preferred:  # source would degrade
                    continue
                nxt = list(state)
                nxt[source] -= 1
                nxt[dest] += 1
                moves.append(tuple(nxt))
        return moves

    start = (total - 1, 1) if total > 1 else (total, 0)
    seen = {start}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for nxt in transitions(state):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    quiescent = {state for state in seen if not transitions(state)}
    return seen, min(underloaded(state) for state in quiescent)


class TestScenarioA:
    def test_reaches_quiescence_with_zero_underloaded(self):
        config = load_scenario(SCENARIO_A)
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks, seed=config.seed)
        q = quiescence_tick(trace)
        assert q is not None and q <= 200
        assert trace[-1].underloaded == 0
        for record in trace:
            if record.tick >= q:
                assert record.moves == 0 and record.switches == 0
        check_trace_safety(trace, config)

    def test_quiescent_state_matches_small_state_oracle(self):
        # Exhaustive reachability over (d1, d2) pairs: the simulation's final
        # underloaded count must equal the best achievable in any quiescent
        # reachable state, and the final deployment pair must be reachable.
        config = load_scenario(SCENARIO_A)
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks, seed=config.seed)
        reachable, best = reachable_deployments(total=6, capacity=5, preferred=3)
        final = tuple(
            len(trace[-1].deployments[server_id])
            for server_id in sorted(state.server_specs)
        )
        assert final in reachable
        assert trace[-1].underloaded == best == 0

    def test_balancing_loop_polarity(self):
        # Once capacity publications begin, underloaded counts never increase
        # across windows free of rejected moves.
        config = load_scenario(SCENARIO_A)
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks, seed=config.seed)
        start = first_capacity_delivery_tick(state)
        assert start is not None
        previous = None
        for record in trace:
            if record.tick < start:
                continue
            if record.rejected_moves:
                previous = record.underloaded  # window boundary
                continue
            if previous is not None:
                assert record.underloaded <= previous
            previous = record.underloaded

    def test_seed_determinism_trace_equality(self):
        config = load_scenario(SCENARIO_A)
        first = run_simulation(build_scenario(config), config.ticks, seed=0)
        second = run_simulation(build_scenario(load_scenario(SCENARIO_A)), config.ticks, seed=0)
        assert first == second


@pytest.fixture(scope="module")
def run_b():
    config = load_scenario(SCENARIO_B)
    state = build_scenario(config)
    trace = run_simulation(state, config.ticks, seed=config.seed)
    return config, state, trace


class TestScenarioB:
    def test_exactly_one_demand_publication_wave(self, run_b):
        _, _, trace = run_b
        assert sum(r.publications.get("demand-change", 0) for r in trace) == 1

    def test_type1_reinforcement(self, run_b):
        config, state, trace = run_b
        q = quiescence_tick(trace)
        assert q is not None
        counts = [type_counts(record, state.types)["type-1"] for record in trace]
        assert counts[q] > counts[10]
        window = counts[10 : q + 1]
        assert all(a <= b for a, b in zip(window, window[1:]))

    def test_safety_invariants_every_tick(self, run_b):
        config, _, trace = run_b
        check_trace_safety(trace, config)

    def test_demand_spike_recorded(self, run_b):
        _, _, trace = run_b
        assert trace[9].demand["type-1"] == 10
        assert trace[10].demand["type-1"] == 30


class TestStochasticMode:
    def test_a_probability_of_one_written_out_gives_the_default_bytes(self, tmp_path):
        doc = json.loads(SCENARIO_A.read_text())
        assert "move-acceptance-probability" not in doc
        written = tmp_path / "written.json"
        written.write_text(json.dumps({**doc, "move-acceptance-probability": 1.0}))
        emit = ["--emit", "trace-csv", "--emit", "summary-json", "--emit", "agent-log"]
        for name, scenario in (("default", SCENARIO_A), ("written", written)):
            args = ["run", "--scenario", str(scenario), "--out", str(tmp_path / name), *emit]
            assert main(args) == 0
        for output in ("trace.csv", "summary.json", "agent-log.jsonl"):
            default_bytes = (tmp_path / "default" / output).read_bytes()
            assert (tmp_path / "written" / output).read_bytes() == default_bytes

    def test_seeded_acceptance_is_deterministic(self):
        config = replace(two_server_config(), move_acceptance_probability=0.5)
        first = run_simulation(build_scenario(config), 40, seed=11)
        config2 = replace(two_server_config(), move_acceptance_probability=0.5)
        second = run_simulation(build_scenario(config2), 40, seed=11)
        assert first == second


def churn_config():
    """Six servers, three types, two brokers and four demand deltas.

    Accepted moves land at ticks 3-5 and accepted switches at ticks 7-20,
    so later changes touch servers whose type lists are already recorded.
    """
    servers = [ServerSpec(f"server-{index:02d}", 5, 3) for index in range(1, 7)]
    services = []
    for spec, count in zip(servers, (5, 5, 4, 1, 1, 0)):
        for _ in range(count):
            number = len(services) + 1
            service_type = f"type-{number % 3 + 1}"
            services.append(ServiceSpec(f"svc-{number:02d}", service_type, spec.server_id))
    return ScenarioConfig(
        name="churn",
        ticks=40,
        servers=servers,
        services=services,
        brokers=2,
        demand={"type-1": 10, "type-2": 10, "type-3": 10},
        demand_schedule=[
            DemandDelta(2, "type-1", 10),
            DemandDelta(9, "type-2", 20),
            DemandDelta(17, "type-3", 40),
            DemandDelta(25, "type-1", -15),
        ],
        publish_when_empty=True,
    )


class TestSnapshotRecord:
    def test_incremental_deployments_equal_a_full_rebuild(self):
        state = build_scenario(churn_config())
        recorded = []
        for _ in range(state.config.ticks):
            record = run_simulation(state, 1)[-1]
            rebuilt = {server_id: [] for server_id in sorted(state.server_specs)}
            for service_id, server_id in state.service_server.items():
                rebuilt[server_id].append(state.service_type[service_id])
            rebuilt = {server_id: sorted(types) for server_id, types in rebuilt.items()}
            assert record.deployments == rebuilt
            assert list(record.deployments) == list(rebuilt)
            recorded.append(copy.deepcopy(record.deployments))
        assert sum(record.moves for record in state.trace) > 0
        assert sum(record.switches for record in state.trace) > 0
        # Later moves and switches leave earlier records as they were.
        assert [record.deployments for record in state.trace] == recorded

    def test_unchanged_servers_share_the_previous_list(self):
        # A tick without a move or a switch holds the previous record's map;
        # a tick with one holds a new map, in which every server it did not
        # touch keeps the previous record's list.
        state = build_scenario(churn_config())
        before = run_simulation(state, 1)[-1]
        for _ in range(state.config.ticks - 1):
            servers, types = dict(state.service_server), dict(state.service_type)
            after = run_simulation(state, 1)[-1]
            touched = set()
            for service_id, server_id in servers.items():
                if state.service_server[service_id] != server_id:
                    touched |= {server_id, state.service_server[service_id]}
                elif state.service_type[service_id] != types[service_id]:
                    touched.add(server_id)
            if after.moves or after.switches:
                assert after.deployments is not before.deployments
            else:
                assert after.deployments is before.deployments
            assert bool(touched) == bool(after.moves or after.switches)
            for server_id, listed in after.deployments.items():
                assert (listed is before.deployments[server_id]) == (server_id not in touched)
            before = after
        assert sum(record.moves for record in state.trace) > 0
        assert sum(record.switches for record in state.trace) > 0

    def test_a_change_between_ticks_leaves_earlier_records_as_they_were(self):
        # Both servers sit at their preferred level, so the ticks are quiet
        # and their records share one map until a direct move or switch.
        state = build_scenario(two_server_config(deployments=(3, 3)))
        recorded = []

        def tick():
            record = run_simulation(state, 1)[-1]
            recorded.append(copy.deepcopy(record.deployments))
            return record

        quiet = [tick() for _ in range(4)]
        assert all(record.deployments is quiet[0].deployments for record in quiet)
        assert move_service(state, "svc-01", "server-02")
        moved = tick()
        assert moved.deployments is not quiet[-1].deployments
        assert [len(moved.deployments[server]) for server in ("server-01", "server-02")] == [2, 4]
        assert moved.deployments["server-01"] is state.deployments["server-01"]
        assert switch_type(state, "svc-06", "db")
        switched = tick()
        assert switched.deployments is not moved.deployments
        assert "db" in switched.deployments["server-02"]
        assert [record.deployments for record in state.trace] == recorded

    def test_underloaded_count_follows_moves_before_the_next_record(self):
        state = build_scenario(two_server_config())
        assert state.underloaded_servers == {"server-02"}
        assert move_service(state, "svc-01", "server-02")  # server-02 at 2 of 3
        assert state.underloaded_servers == {"server-02"}
        assert move_service(state, "svc-02", "server-02")  # both servers at 3
        assert state.underloaded_servers == set()
        assert state.snapshot_record().underloaded == 0
        assert move_service(state, "svc-03", "server-02")  # server-01 at 2 of 3
        assert state.snapshot_record().underloaded == 1
        assert summary(state)["underloaded"] == 1


def capacity_config(servers=20):
    """Half the servers full and half at one service: every underloaded
    server's capacity offer goes to every service on another server."""
    specs = [ServerSpec(f"server-{n:02d}", 5, 3) for n in range(1, servers + 1)]
    services = []
    for index, spec in enumerate(specs):
        for _ in range(5 if index < servers // 2 else 1):
            services.append(ServiceSpec(f"svc-{len(services) + 1:03d}", "web", spec.server_id))
    return ScenarioConfig(
        name="capacity",
        ticks=30,
        servers=specs,
        services=services,
        media={"capacity": 1, "demand-change": 1},
    )


class TestPayloadsStayReadOnly:
    def test_no_payload_changes_once_published_or_queued(self, monkeypatch):
        # Events, plan records and hosts share payloads, so one write would
        # reach every holder.  Each payload is copied when it is published
        # or first queued, and must still equal that copy after the run.
        kept = {}

        def keep(payload):
            if id(payload) not in kept:
                kept[id(payload)] = (payload, copy.deepcopy(payload))

        publish, append_event = scenarios.publish, AgentConfiguration.append_event

        def keeping_publish(medium, info, now):
            keep(info.payload)
            return publish(medium, info, now)

        def keeping_append(cfg, te, intention):
            keep(te.payload)
            return append_event(cfg, te, intention)

        monkeypatch.setattr(scenarios, "publish", keeping_publish)
        monkeypatch.setattr(AgentConfiguration, "append_event", keeping_append)
        config = capacity_config()
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks, seed=0)
        assert sum(record.publications["capacity"] for record in trace) >= 10
        assert sum(record.moves for record in trace) > 0
        assert [copied for payload, copied in kept.values() if payload != copied] == []


class TestObservationRecording:
    def test_scenario_agents_keep_no_observation_records(self):
        config = churn_config()
        state = build_scenario(config)
        run_simulation(state, config.ticks)
        assert all(cfg.observations == [] for cfg in state.agents.values())

    def test_agent_log_records_without_changing_the_trace(self):
        config = churn_config()
        plain = run_simulation(build_scenario(config), config.ticks)
        logged_state = build_scenario(config, agent_log=True)
        logged = run_simulation(logged_state, config.ticks)
        assert logged == plain
        kinds = {o["kind"] for cfg in logged_state.agents.values() for o in cfg.observations}
        assert {"plan-started", "plan-finished"} <= kinds


def quiet_fleet_config():
    """A small quiet-fleet shape: every service placed by name, one broker,
    flat demand, so nothing happens after bootstrap."""
    types = ("type-00", "type-01", "type-02")
    services = []
    for server in range(6):
        for _ in range((3, 4, 5)[server % 3]):
            index = len(services)
            services.append(
                ServiceSpec(f"svc-{index:03d}", types[index % 3], f"srv-{server:02d}")
            )
    return ScenarioConfig(
        name="quiet-fleet",
        ticks=30,
        servers=[ServerSpec(f"srv-{server:02d}", 5, 3) for server in range(6)],
        services=services,
        brokers=1,
        demand={service_type: 100 for service_type in types},
    )


ACCOUNTED_CONFIGS = pytest.mark.parametrize(
    "config",
    [load_scenario(SCENARIO_B), quiet_fleet_config()],
    ids=["scenario-b", "quiet-fleet"],
)


def cycles_run(monkeypatch, state, ticks) -> list[tuple[int, str, bool]]:
    """Run ``ticks`` ticks.  Per ``run_cycle`` call, in order: the tick, the
    agent id, and whether the agent started the cycle idle (inbox, queue and
    intentions empty)."""
    cycles = []
    run_cycle = scenarios.run_cycle

    def recording_cycle(cfg):
        circumstance = cfg.circumstance
        idle = not (cfg.mail.inbox or circumstance.events or circumstance.intentions)
        cycles.append((state.tick, cfg.agent_id, idle))
        return run_cycle(cfg)

    monkeypatch.setattr(scenarios, "run_cycle", recording_cycle)
    run_simulation(state, ticks)
    monkeypatch.setattr(scenarios, "run_cycle", run_cycle)
    return cycles


def cycled_agents(monkeypatch, state, ticks) -> list[str]:
    """Run ``ticks`` ticks; the id of each agent ``run_cycle`` ran, in order."""
    return [agent_id for _, agent_id, _ in cycles_run(monkeypatch, state, ticks)]


class TestCycleAccounting:
    """Wrapped, the co-efficient selector carries no sleep declaration, so
    no agent sleeps and the scheduler runs one cycle, and so one event
    selection, per agent per tick: ``perfbench``'s structural count, held
    over full runs.  The tracer wraps the selector the same way, so its
    count stays exact too."""

    @ACCOUNTED_CONFIGS
    def test_one_cycle_and_one_selection_per_agent_per_tick(self, monkeypatch, config):
        calls = {"run_cycle": 0, "select": 0}
        run_cycle, select = scenarios.run_cycle, coefficiency.select_event_coefficient

        def counted_cycle(cfg):
            calls["run_cycle"] += 1
            return run_cycle(cfg)

        def counted_select(cfg):
            calls["select"] += 1
            return select(cfg)

        monkeypatch.setattr(scenarios, "run_cycle", counted_cycle)
        # Registration installs the selector, so it is wrapped before the build.
        monkeypatch.setattr(coefficiency, "select_event_coefficient", counted_select)
        state = build_scenario(config)
        run_simulation(state, config.ticks, seed=config.seed)
        expected = len(state.agents) * config.ticks
        assert calls == {"run_cycle": expected, "select": expected}

    @ACCOUNTED_CONFIGS
    def test_sleeping_skips_exactly_the_idle_cycles_after_bootstrap(self, monkeypatch, config):
        # Unwrapped, every agent may sleep: every agent runs the bootstrap
        # tick, and after it each cycle that would start idle is skipped.
        sleeping = cycles_run(monkeypatch, build_scenario(config), config.ticks)
        with every_agent_every_tick():
            every_agent = build_scenario(config)
        every = cycles_run(monkeypatch, every_agent, config.ticks)
        assert len(every) == len(every_agent.agents) * config.ticks
        skipped = {(tick, agent_id) for tick, agent_id, idle in every if tick and idle}
        assert skipped
        assert sleeping == [cycle for cycle in every if cycle[:2] not in skipped]

    def test_a_wrapper_made_with_functools_wraps_keeps_the_declaration(self, monkeypatch):
        select = coefficiency.select_event_coefficient
        monkeypatch.setattr(
            coefficiency,
            "select_event_coefficient",
            functools.wraps(select)(lambda cfg: select(cfg)),
        )
        config = quiet_fleet_config()
        state = build_scenario(config)
        ticks = [tick for tick, _, _ in cycles_run(monkeypatch, state, config.ticks)]
        assert ticks == [0] * len(state.agents)


def asleep_quiet_fleet() -> SimulationState:
    """The small quiet fleet after two ticks: every agent sleeps."""
    state = build_scenario(quiet_fleet_config(), agent_log=True)
    run_simulation(state, 2)
    assert all(cfg.wake is not None for cfg in state.agents.values())
    return state


class TestWakeSet:
    def test_appending_to_a_sleeping_agent_wakes_it_once(self, monkeypatch):
        state = asleep_quiet_fleet()
        cfg = state.agents["srv-01"]
        for _ in range(2):  # no plan handles either goal: each is discarded
            post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "noop", {}))
        assert cfg.wake is None
        assert cycled_agents(monkeypatch, state, 1) == ["srv-01"]
        assert cycled_agents(monkeypatch, state, 2) == ["srv-01"]  # the second goal
        assert cfg.wake is not None
        noops = [o for o in cfg.observations if o.get("te", {}).get("subject") == "noop"]
        assert [o["kind"] for o in noops] == ["event-discarded"] * 2

    def test_an_unchanged_belief_write_does_not_wake(self, monkeypatch):
        state = asleep_quiet_fleet()
        cfg = state.agents["svc-000"]
        assert cfg.write_belief("current_server", cfg.beliefs.get("current_server")) is None
        assert cfg.wake is not None
        assert cycled_agents(monkeypatch, state, 1) == []
        # The control: a changed value queues its event and wakes the agent.
        assert cfg.write_belief("current_server", "srv-05") is not None
        assert cycled_agents(monkeypatch, state, 1) == ["svc-000"]

    def test_an_agent_with_a_live_intention_stays_awake(self, monkeypatch):
        # A two-step plan leaves its intention live, and the queue empty,
        # after the first step's cycle; the second step runs the next tick.
        state = asleep_quiet_fleet()
        cfg = state.agents["svc-000"]
        same_type = {"type": Expr("type")}  # a same-type switch is a no-op
        twice = Plan(
            "twice",
            pattern(EventCategory.GOAL_ADDED, "twice"),
            (Act("reallocate", same_type), Act("reallocate", same_type)),
        )
        cfg.plans = PlanLibrary([*cfg.plans.by_id.values(), twice])
        post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "twice", {}))
        assert cycled_agents(monkeypatch, state, 1) == ["svc-000"]
        assert cfg.circumstance.intentions and not cfg.circumstance.events
        assert cycled_agents(monkeypatch, state, 3) == ["svc-000"] * 2
        finished = [o["te"]["subject"] for o in cfg.observations if o["kind"] == "plan-finished"]
        assert finished == ["twice"]

    def test_an_agent_with_an_undeclared_selector_runs_every_tick(self, monkeypatch):
        # The selector queues a goal before it selects, so it is not inert on
        # an empty queue; no plan handles the goal, so every cycle ends idle.
        calls = []

        def appending(cfg):
            calls.append(cfg.agent_id)
            cfg.append_event(TriggeringEvent(EventCategory.GOAL_ADDED, "g1", {}), TOP)
            return select_event(cfg)

        state = build_scenario(quiet_fleet_config())
        cfg = state.agents["svc-001"]
        cfg.select_event_override = appending
        ran = cycled_agents(monkeypatch, state, 6)
        assert calls == ["svc-001"] * 6 and not cfg.circumstance.events
        assert ran[len(state.agents) :] == ["svc-001"] * 5
        assert cfg.wake is None

    def test_one_tick_per_call_gives_the_trace_of_one_call(self):
        config = churn_config()
        whole = build_scenario(config, agent_log=True)
        run_simulation(whole, config.ticks, seed=config.seed)
        ticked = build_scenario(config, agent_log=True)
        for tick in range(config.ticks):
            run_simulation(ticked, 1, seed=config.seed if tick == 0 else None)
        assert trace_rows(ticked) == trace_rows(whole)
        assert summary(ticked) == summary(whole)
        for agent_id, cfg in whole.agents.items():
            assert ticked.agents[agent_id].observations == cfg.observations


class TestTraceOutputs:
    def test_trace_record_fields(self):
        config = load_scenario(SCENARIO_A)
        state = build_scenario(config)
        trace = run_simulation(state, 5, seed=0)
        record = trace[0]
        assert record.tick == 0
        assert set(record.deployments) == {"server-01", "server-02"}
        assert sum(len(types) for types in record.deployments.values()) == 6
        assert set(record.publications) == {"capacity", "demand-change"}

    def test_columns_sorted_and_rows_aligned_for_out_of_order_declarations(self):
        # Servers and media declared out of id and topic order; the demand
        # spike and server-02's underload make every pub: and server: value
        # differ from its neighbour's at some tick.
        services = [ServiceSpec("svc-01", "type-1", "server-02")]
        services += [ServiceSpec(f"svc-{n:02d}", "type-2", "server-01") for n in range(2, 6)]
        config = ScenarioConfig(
            name="unordered",
            ticks=8,
            servers=[ServerSpec("server-02", 5, 3), ServerSpec("server-01", 5, 3)],
            services=services,
            brokers=1,
            demand={"type-2": 10, "type-1": 10},
            demand_schedule=[DemandDelta(0, "type-1", 10)],
            media={"demand-change": 1, "capacity": 2},
        )
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks, seed=0)
        columns = trace_columns(state)
        for prefix in ("server:", "type:", "pub:", "demand:"):
            named = [column for column in columns if column.startswith(prefix)]
            assert named == sorted(named) and named
        rows = trace_rows(state)
        assert len(rows) == len(trace)
        for record, row in zip(trace, rows):
            values = dict(zip(columns, row, strict=True))
            for server_id, types in record.deployments.items():
                assert values[f"server:{server_id}"] == str(len(types))
            for topic, count in record.publications.items():
                assert values[f"pub:{topic}"] == str(count)
        assert any(row[1] != row[2] for row in rows)
        assert sum(record.publications["capacity"] for record in trace) > 0
        assert sum(record.publications["demand-change"] for record in trace) > 0

    def test_carried_type_counts_equal_a_recount_of_each_record(self):
        config = churn_config()
        state = build_scenario(config)
        trace = run_simulation(state, config.ticks)
        assert sum(record.moves for record in trace) > 0
        assert sum(record.switches for record in trace) > 0
        columns = trace_columns(state)
        for record, row in zip(trace, trace_rows(state), strict=True):
            values = dict(zip(columns, row, strict=True))
            recount = type_counts(record, state.types)
            assert {t: values[f"type:{t}"] for t in state.types} == {
                t: str(count) for t, count in recount.items()
            }

    def test_summary_contents(self):
        config = load_scenario(SCENARIO_A)
        state = build_scenario(config)
        run_simulation(state, config.ticks, seed=0)
        result = summary(state)
        assert result["quiescence-tick"] == 4
        assert result["total-moves"] == 2
        assert result["underloaded"] == 0
        assert sum(len(v) for v in result["final-deployments"].values()) == 6

    def test_quiescence_of_empty_and_active_traces(self):
        assert quiescence_tick([]) is None
        config = load_scenario(SCENARIO_A)
        state = build_scenario(config)
        trace = run_simulation(state, 3, seed=0)  # cut short: still moving at t3?
        # moves happen at tick 3; with only 3 ticks the trace ends before them
        assert quiescence_tick(trace) == 0
