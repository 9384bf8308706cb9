"""Document loading: schema checks, expression validation, error paths."""

import copy
import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coagent.bdi.events import EventCategory
from coagent.coordination import PUBLISH_ACTION
from coagent.loader import (
    ConfigError,
    _check_demand_delta,
    _check_server,
    _check_service,
    build_agent,
    load_scenario,
    parse_agent_program,
    parse_endpoint_declaration,
    parse_pattern,
    parse_scenario,
)
from coagent.scenarios import (
    ROLES,
    DemandDelta,
    ServerSpec,
    ServiceSpec,
    build_scenario,
    run_simulation,
)

from tests.conftest import SCENARIO_A, SCENARIO_B
from tests.test_scenarios import CANONICAL_ENDPOINTS_DOCUMENT


def minimal_program(**overrides):
    doc = {
        "name": "demo",
        "beliefs": {"x": 0},
        "actions": ["ping"],
        "plans": [
            {
                "id": "p1",
                "trigger": {"category": "goal-added", "subject": "g"},
                "context": "x < 5",
                "body": [{"do": "act", "name": "ping"}],
            }
        ],
        "events": [{"category": "goal-added", "subject": "g"}],
    }
    doc.update(overrides)
    return doc


def minimal_scenario(**overrides):
    doc = {
        "name": "mini",
        "seed": 0,
        "ticks": 10,
        "servers": [{"id": "server-01", "capacity": 5, "preferred-min": 3}],
        "services": [{"id": "svc-01", "type": "web", "initial-server": "server-01"}],
        "media": {"capacity": 1},
    }
    doc.update(overrides)
    return doc


class TestAgentProgram:
    def test_round_trip(self):
        program = parse_agent_program(minimal_program())
        cfg = build_agent(program)
        assert cfg.beliefs.get("x") == 0
        assert "p1" in cfg.plans
        assert program.events[0].category is EventCategory.GOAL_ADDED

    def test_undeclared_action_rejected(self):
        doc = minimal_program()
        doc["plans"][0]["body"] = [{"do": "act", "name": "unknown"}]
        with pytest.raises(ConfigError, match="not in the declared action set"):
            parse_agent_program(doc)

    def test_bad_expression_rejected_at_load_time(self):
        doc = minimal_program()
        doc["plans"][0]["context"] = "x +"
        with pytest.raises(ConfigError, match="context"):
            parse_agent_program(doc)

    def test_a_guard_nested_too_deeply_is_rejected_at_its_path(self):
        rule = {
            "observe": {"category": "belief-updated", "subject": "x"},
            "inject": {"category": "goal-added", "subject": "g"},
            "guard": " + ".join(["1"] * 700),
        }
        doc = minimal_program(modules=[{"id": "m1", "mapping": [rule]}])
        path = r"^agent-program\.modules\[0\]\.mapping\[0\]\.guard: "
        with pytest.raises(ConfigError, match=path + ".*nests too deeply") as raised:
            parse_agent_program(doc)
        # The message quotes only the start of the 2,799-character source.
        assert len(str(raised.value)) < 200
        assert str(raised.value).endswith("'1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + '...")

    def test_unknown_category_rejected(self):
        doc = minimal_program()
        doc["plans"][0]["trigger"]["category"] = "belief-exploded"
        with pytest.raises(ConfigError, match="unknown event category"):
            parse_agent_program(doc)

    def test_empty_body_rejected(self):
        doc = minimal_program()
        doc["plans"][0]["body"] = []
        with pytest.raises(ConfigError, match="non-empty"):
            parse_agent_program(doc)

    def test_duplicate_plan_ids_rejected(self):
        doc = minimal_program()
        doc["plans"].append(dict(doc["plans"][0]))
        with pytest.raises(ConfigError, match="duplicate plan id"):
            parse_agent_program(doc)

    def test_unknown_keys_rejected(self):
        doc = minimal_program(extra_key=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_agent_program(doc)

    def test_module_section_parses_and_registers(self):
        doc = minimal_program(
            modules=[
                {
                    "id": "m1",
                    "mapping": [
                        {
                            "observe": {"category": "belief-updated", "subject": "x"},
                            "inject": {"category": "goal-added", "subject": "g2"},
                            "placement": "new-intention",
                            "guard": "x > 0",
                        }
                    ],
                }
            ]
        )
        program = parse_agent_program(doc)
        cfg = build_agent(program)
        assert len(cfg.mapping["m1"]) == 1

    def test_observation_only_injection_rejected(self):
        doc = minimal_program(
            modules=[
                {
                    "id": "m1",
                    "mapping": [
                        {
                            "observe": {"category": "belief-updated"},
                            "inject": {"category": "plan-started", "subject": "p"},
                        }
                    ],
                }
            ]
        )
        with pytest.raises(ConfigError, match="cannot be injected"):
            parse_agent_program(doc)

    @pytest.mark.parametrize("key", ["", "payload", "subject", "true", "max"])
    def test_believe_key_must_name_a_belief(self, key):
        doc = minimal_program()
        doc["plans"][0]["body"] = [{"do": "believe", "key": key, "value": "1"}]
        with pytest.raises(ConfigError, match="empty or a reserved name") as raised:
            parse_agent_program(doc)
        assert "agent-program.plans[0].body[0].key" in str(raised.value)

    @pytest.mark.parametrize("key", ["", "payload", "subject", "true", "max"])
    def test_unbelieve_key_must_name_a_belief(self, key):
        # Such a step could never drop a belief: it would be a silent no-op.
        doc = minimal_program()
        doc["plans"][0]["body"] = [{"do": "unbelieve", "key": key}]
        with pytest.raises(ConfigError, match="empty or a reserved name") as raised:
            parse_agent_program(doc)
        assert "agent-program.plans[0].body[0].key" in str(raised.value)

    def test_module_id_must_prefix_identifiers(self):
        # Module beliefs are renamed "<prefix>__<key>" in the module's own
        # expressions; "1__y > 1" would not parse.
        module = {
            "id": "1",
            "beliefs": {"y": 2},
            "plans": [
                {
                    "id": "p",
                    "trigger": {"category": "goal-added", "subject": "g"},
                    "context": "y > 1",
                    "body": [{"do": "act", "name": "ping"}],
                }
            ],
        }
        with pytest.raises(ConfigError, match="module id '1' starts with a digit") as raised:
            parse_agent_program(minimal_program(modules=[module]))
        assert "agent-program.modules" in str(raised.value)
        module["id"] = "m1"
        cfg = build_agent(parse_agent_program(minimal_program(modules=[module])))
        assert cfg.beliefs.get("m1__y") == 2


class TestPatternParsing:
    def test_category_list(self):
        p = parse_pattern({"category": ["belief-added", "belief-updated"]}, "t")
        assert len(p.categories) == 2

    def test_wildcards(self):
        p = parse_pattern({}, "t")
        assert p.categories is None and p.subject is None

    def test_an_empty_category_list_is_refused(self):
        # It would match no event, so its plan or rule could never fire.
        with pytest.raises(ConfigError) as refused:
            parse_pattern({"category": [], "subject": "g"}, "t")
        assert str(refused.value) == "t.category: category list must be non-empty"
        with pytest.raises(ConfigError) as refused:
            parse_agent_program(MALFORMED_PROGRAMS["trigger-no-category"])
        assert str(refused.value) == (
            "agent-program.plans[0].trigger.category: category list must be non-empty"
        )


class TestScenarioDocuments:
    def test_minimal_scenario_parses(self):
        config = parse_scenario(minimal_scenario())
        assert config.name == "mini"
        assert config.servers[0].preferred_min == 3

    @pytest.mark.parametrize("written", [{}, {"name": None}, {"name": ""}])
    def test_a_name_absent_null_or_empty_reads_the_default(self, written):
        doc = {key: value for key, value in minimal_scenario().items() if key != "name"}
        assert parse_scenario({**doc, **written}).name == "scenario"
        program = {key: value for key, value in minimal_program().items() if key != "name"}
        assert parse_agent_program({**program, **written}).name == "agent"

    def test_seed_ticks_and_brokers_absent_or_null_read_the_default(self, tmp_path):
        from coagent.cli import main

        doc = minimal_scenario()
        absent = parse_scenario({key: doc[key] for key in doc if key not in ("seed", "ticks")})
        nulled = minimal_scenario(seed=None, ticks=None, brokers=None)
        assert parse_scenario(nulled) == absent
        assert (absent.seed, absent.ticks, absent.brokers) == (0, 100, 0)
        path = tmp_path / "nulled.json"
        path.write_text(json.dumps(nulled))
        assert main(["validate", str(path)]) == 0

    def test_a_name_that_is_not_a_string_is_refused(self):
        with pytest.raises(ConfigError) as refused:
            parse_scenario(MALFORMED_SCENARIOS["name-not-a-string"])
        assert str(refused.value) == "scenario.name: name must be str, got int"
        with pytest.raises(ConfigError) as refused:
            parse_agent_program(MALFORMED_PROGRAMS["name-not-a-string"])
        assert str(refused.value) == "agent-program.name: name must be str, got int"

    def test_bundled_scenario_a(self, scenario_a_path):
        config = load_scenario(scenario_a_path)
        assert len(config.servers) == 2
        assert all(server.capacity == 5 for server in config.servers)
        assert len(config.services) == 6
        assert not config.uniqueness_constraint

    def test_bundled_scenario_b(self, scenario_b_path):
        config = load_scenario(scenario_b_path)
        assert len(config.servers) == 10
        assert {service.service_type for service in config.services} == {
            f"type-{i}" for i in range(1, 6)
        }
        assert config.uniqueness_constraint
        assert config.brokers == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(path)

    def test_capacity_invariant_violation(self, tmp_path):
        doc = minimal_scenario(
            services=[
                {"id": f"svc-{i}", "type": "web", "initial-server": "server-01"}
                for i in range(6)
            ]
        )
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="exceed capacity"):
            load_scenario(path)

    def test_error_messages_are_path_qualified(self, tmp_path):
        doc = minimal_scenario()
        doc["servers"][0]["capacity"] = "five"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as excinfo:
            load_scenario(path)
        assert "bad.json" in str(excinfo.value)
        assert "servers[0]" in str(excinfo.value)

    def test_unknown_scenario_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_scenario(minimal_scenario(topology="ring"))

    def test_move_acceptance_probability_absent_or_null_is_one(self):
        key = "move-acceptance-probability"
        for written in ({}, {key: None}, {key: 1.0}):
            config = parse_scenario(minimal_scenario(**written))
            assert config.move_acceptance_probability == 1.0

    def test_a_threshold_that_is_not_finite_is_refused(self, tmp_path):
        # JSON 1e999 loads as inf.  No demand change reaches an infinite or
        # a NaN threshold, so either would silence the brokers.
        path = tmp_path / "threshold.json"
        path.write_text(json.dumps(minimal_scenario(brokers=1))[:-1] + ', "significance-threshold": 1e999}')
        with pytest.raises(ConfigError, match="significance-threshold must be finite"):
            load_scenario(path)
        with pytest.raises(ConfigError, match="significance-threshold must be finite"):
            parse_scenario(minimal_scenario(**{"significance-threshold": float("nan")}))
        from coagent.cli import main

        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("name", ["demand-threshold-name", "schedule-threshold-name"])
    def test_a_demand_type_named_as_the_broker_threshold_is_refused(self, name):
        # Brokers hold each demanded type as a belief, so this one would
        # overwrite their significance_threshold belief.
        text = "scenario: demand type 'significance_threshold' is empty or a reserved name"
        with pytest.raises(ConfigError) as refused:
            parse_scenario(MALFORMED_SCENARIOS[name])
        assert str(refused.value) == text

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError, match="latency"):
            parse_scenario(minimal_scenario(media={"capacity": -1}))


class TestEndpointSection:
    def test_declaration_parses(self):
        decl = parse_endpoint_declaration(
            {
                "process-id": "utilization",
                "role": "server",
                "publication-rules": [
                    {
                        "observe": {"category": "belief-updated", "subject": "deployed"},
                        "guard": "deployed < preferred_min",
                        "topic": "capacity",
                        "extract": ["server", "deployed"],
                    }
                ],
            },
            "endpoints[0]",
        )
        assert decl.process_id == "utilization"
        assert decl.publications[0].topic == "capacity"

    def test_a_process_id_holding_a_slash_is_refused(self):
        with pytest.raises(ConfigError) as refused:
            parse_scenario(MALFORMED_SCENARIOS["process-id-slash"])
        assert str(refused.value) == (
            "scenario.endpoints[0]: process-id 'x/y' must not contain '/'"
        )

    def test_a_server_id_holding_a_slash_builds_and_delivers(self):
        doc = utilization_document(service_plans=[MOVE_PLAN])
        for entry in doc["servers"] + doc["services"]:
            for key in ("id", "initial-server"):
                if entry.get(key, "").startswith("server-"):
                    entry[key] = entry[key].replace("server-", "rack/")
        state = build_scenario(parse_scenario(doc))
        assert "rack/02/utilization" in state.endpoints
        assert len(state.endpoints) == len(state.agents) == 8
        trace = run_simulation(state, 30, seed=0)
        assert sum(record.publications["capacity"] for record in trace) > 0
        assert sum(record.moves for record in trace) > 0
        assert trace[-1].underloaded == 0

    def test_bad_role_rejected(self):
        # The config checks roles; the loader names the document's path.
        doc = minimal_scenario(endpoints=[{"process-id": "p", "role": "sidecar"}])
        with pytest.raises(ConfigError, match=r"scenario: endpoints\[0\]: role must be .*'sidecar'"):
            parse_scenario(doc)

    def test_custom_endpoints_replace_canonical_processes(self):
        doc = minimal_scenario(
            servers=[
                {"id": "server-01", "capacity": 5, "preferred-min": 3},
                {"id": "server-02", "capacity": 5, "preferred-min": 3},
            ],
            services=[
                {"id": "svc-01", "type": "web", "initial-server": "server-01"},
            ],
            endpoints=[],
        )
        config = parse_scenario(doc)
        state = build_scenario(config)
        # No endpoints at all: no publications can ever happen.
        trace = run_simulation(state, 10, seed=0)
        assert all(
            count == 0 for record in trace for count in record.publications.values()
        )

    def test_custom_reaction_endpoint_in_document(self):
        config = parse_scenario(utilization_document(service_plans=[MOVE_PLAN]))
        state = build_scenario(config)
        trace = run_simulation(state, 30, seed=0)
        assert sum(record.moves for record in trace) > 0
        assert trace[-1].underloaded == 0

    def test_a_reaction_goal_without_a_declared_plan_makes_no_move(self):
        # Services hold only the plans their declarations carry: the
        # reaction injects move-to goals, and nothing pursues them.
        config = parse_scenario(utilization_document(service_plans=[]))
        state = build_scenario(config)
        assert len(state.agents["svc-01"].plans) == 0
        trace = run_simulation(state, 30, seed=0)
        assert sum(record.publications["capacity"] for record in trace) > 0
        assert sum(record.moves for record in trace) == 0
        assert trace[-1].underloaded == 1

    def test_declared_topics_get_a_medium(self):
        state = build_scenario(parse_scenario(scenario_with_rules()))
        assert sorted(state.media) == ["alerts", "capacity"]
        run_simulation(state, 3, seed=0)


#: The canonical service plan for the ``move-to`` goal, as a document declares it.
MOVE_PLAN = CANONICAL_ENDPOINTS_DOCUMENT[1]["plans"][0]


def utilization_document(service_plans):
    """Five services on server-01 and one on server-02, under a document's
    own utilization process; its service declaration carries
    ``service_plans``."""
    return minimal_scenario(
        servers=[
            {"id": "server-01", "capacity": 5, "preferred-min": 3},
            {"id": "server-02", "capacity": 5, "preferred-min": 3},
        ],
        services=[
            {"id": "svc-01", "type": "web", "initial-server": "server-01"},
            {"id": "svc-02", "type": "web", "initial-server": "server-01"},
            {"id": "svc-03", "type": "web", "initial-server": "server-01"},
            {"id": "svc-04", "type": "web", "initial-server": "server-01"},
            {"id": "svc-05", "type": "web", "initial-server": "server-01"},
            {"id": "svc-06", "type": "web", "initial-server": "server-02"},
        ],
        endpoints=[
            {
                "process-id": "utilization",
                "role": "server",
                "publication-rules": [
                    {
                        "observe": {"category": "belief-updated", "subject": "deployed"},
                        "guard": "deployed > 0 and deployed < preferred_min",
                        "topic": "capacity",
                        "extract": ["server", "deployed", "capacity"],
                    }
                ],
            },
            {
                "process-id": "utilization",
                "role": "service",
                "reaction-rules": [
                    {
                        "match": {"topic": "capacity"},
                        "guard": "payload.server != current_server",
                        "inject": {
                            "category": "goal-added",
                            "subject": "move-to",
                            "payload": {"server": "payload.server"},
                        },
                    }
                ],
                "plans": service_plans,
            },
        ],
    )


REACTION = {"match": {"topic": "capacity"}, "inject": {"category": "goal-added", "subject": "move-to"}}
PUBLICATION = {"observe": {"category": "belief-updated"}, "topic": "alerts"}


def scenario_with_rules(reaction=REACTION, publication=PUBLICATION):
    return minimal_scenario(
        endpoints=[
            {"process-id": "utilization", "role": "service", "reaction-rules": [reaction]},
            {"process-id": "alerts", "role": "server", "publication-rules": [publication]},
        ]
    )


MALFORMED_SCENARIOS = {
    "threshold-not-a-number": minimal_scenario(**{"significance-threshold": "abc"}),
    "media-not-an-object": minimal_scenario(media=[1]),
    "demand-not-an-object": minimal_scenario(demand=[1]),
    "demand-reserved-name": minimal_scenario(brokers=1, demand={"subject": 1}),
    # A broker holds its threshold as a belief beside one per demanded type.
    "demand-threshold-name": minimal_scenario(brokers=1, demand={"significance_threshold": 1}),
    "schedule-threshold-name": minimal_scenario(
        brokers=1,
        **{"demand-schedule": [{"tick": 1, "type": "significance_threshold", "delta": 2}]},
    ),
    "uniqueness-not-a-bool": minimal_scenario(**{"uniqueness-constraint": "false"}),
    "probability-is-a-bool": minimal_scenario(**{"move-acceptance-probability": True}),
    "ticks-is-a-bool": minimal_scenario(ticks=True),
    "topics-not-a-list": minimal_scenario(endpoints=[{"process-id": "p", "role": "server", "topics": 5}]),
    "extract-event-list": scenario_with_rules(publication={**PUBLICATION, "extract-event": ["old"]}),
    "match-payload-list": scenario_with_rules(reaction={**REACTION, "match": {"topic": "capacity", "payload": [1]}}),
    "inject-payload-list": scenario_with_rules(
        reaction={**REACTION, "inject": {**REACTION["inject"], "payload": ["server"]}}
    ),
    "extract-event-key-not-a-name": scenario_with_rules(
        publication={**PUBLICATION, "extract-event": {"": "payload.new"}}
    ),
    "guard-on-subject": scenario_with_rules(publication={**PUBLICATION, "guard": "subject == 'x'"}),
    "reaction-placement": scenario_with_rules(reaction={**REACTION, "placement": "current-intention"}),
    "reaction-topic-prefix": scenario_with_rules(reaction={**REACTION, "match": {"topic": "cap*"}}),
    "name-not-a-string": minimal_scenario(name=5),
    # An endpoint id is "<host>/<process id>", and a host id may hold a slash.
    "process-id-slash": minimal_scenario(endpoints=[{"process-id": "x/y", "role": "server"}]),
    "duplicate-endpoint": minimal_scenario(
        endpoints=[{"process-id": "utilization", "role": "service", "reaction-rules": [REACTION]}] * 2
    ),
    # An empty name would be a trace column, endpoint id or topic of its
    # kind alone.
    "server-id-empty": minimal_scenario(
        servers=[{"id": "", "capacity": 5, "preferred-min": 3}],
        services=[{"id": "svc-01", "type": "web", "initial-server": ""}],
    ),
    "service-id-empty": minimal_scenario(services=[{**minimal_scenario()["services"][0], "id": ""}]),
    "service-type-empty": minimal_scenario(services=[{**minimal_scenario()["services"][0], "type": ""}]),
    "media-topic-empty": minimal_scenario(media={"": 1}),
    "publication-topic-empty": scenario_with_rules(publication={**PUBLICATION, "topic": ""}),
    "reaction-topic-empty": scenario_with_rules(reaction={**REACTION, "match": {"topic": ""}}),
    # An extract name is a host belief copied into the payload.
    "extract-empty": scenario_with_rules(publication={**PUBLICATION, "extract": [""]}),
    "extract-reserved": scenario_with_rules(publication={**PUBLICATION, "extract": ["payload"]}),
    "extract-twice": scenario_with_rules(publication={**PUBLICATION, "extract": ["server", "server"]}),
}

#: The refusals of names no host, column or medium can use, each with its
#: exact ConfigError text.
REFUSED_NAMES = {
    "server-id-empty": "scenario: server id must not be empty",
    "service-id-empty": "scenario: service id must not be empty",
    "service-type-empty": "scenario: service 'svc-01': type must not be empty",
    "media-topic-empty": "scenario: media topic must not be empty",
    "publication-topic-empty": "scenario.endpoints[1]: publication-rules[0]: topic must not be empty",
    "reaction-topic-empty": "scenario.endpoints[0]: reaction-rules[0]: a reaction must observe "
    "'message-received' on one named topic",
    "extract-empty": "scenario.endpoints[1]: publication-rules[0]: "
    "extract name '' is empty or a reserved name",
    "extract-reserved": "scenario.endpoints[1]: publication-rules[0]: "
    "extract name 'payload' is empty or a reserved name",
    "extract-twice": "scenario.endpoints[1]: publication-rules[0]: "
    "extract name 'server' is listed twice",
}


@pytest.mark.parametrize("name", sorted(REFUSED_NAMES))
def test_a_name_no_host_can_use_is_refused(name):
    with pytest.raises(ConfigError) as refused:
        parse_scenario(MALFORMED_SCENARIOS[name])
    assert str(refused.value) == REFUSED_NAMES[name]


MODULE_PLAN = {
    "id": "p",
    "trigger": {"category": "goal-added", "subject": "g"},
    "body": [{"do": "act", "name": "ping"}],
}

MALFORMED_PROGRAMS = {
    "event-payload-list": minimal_program(events=[{"category": "goal-added", "subject": "g", "payload": [1]}]),
    "reserved-belief": minimal_program(beliefs={"subject": 1}),
    "plans-not-a-list": minimal_program(plans=True),
    "duplicate-module": minimal_program(modules=[{"id": "m"}, {"id": "m"}]),
    "module-belief-collision": minimal_program(
        modules=[{"id": "m", "beliefs": {"x": 1}, "exports": ["x"]}]
    ),
    "module-duplicate-plan": minimal_program(modules=[{"id": "m", "plans": [MODULE_PLAN] * 2}]),
    "unbelieve-reserved-key": minimal_program(
        plans=[{**minimal_program()["plans"][0], "body": [{"do": "unbelieve", "key": "payload"}]}]
    ),
    "name-not-a-string": minimal_program(name=5),
    "trigger-no-category": minimal_program(
        plans=[{**minimal_program()["plans"][0], "trigger": {"category": [], "subject": "g"}}]
    ),
    "unbelieve-empty-key": minimal_program(
        plans=[{**minimal_program()["plans"][0], "body": [{"do": "unbelieve", "key": ""}]}]
    ),
}


class TestMalformedDocuments:
    """Malformed documents fail with ConfigError and CLI exit code 2, never a traceback."""

    def test_the_unmutated_documents_are_valid(self):
        parse_scenario(scenario_with_rules())
        parse_agent_program(minimal_program())

    @pytest.mark.parametrize(
        "kind, name",
        [("scenario", name) for name in MALFORMED_SCENARIOS]
        + [("program", name) for name in MALFORMED_PROGRAMS],
    )
    def test_config_error_and_exit_code_2(self, kind, name, tmp_path, capsys):
        from coagent.cli import main

        if kind == "scenario":
            doc, parse, command = MALFORMED_SCENARIOS[name], parse_scenario, "validate"
        else:
            doc, parse, command = MALFORMED_PROGRAMS[name], parse_agent_program, "oracle"
        with pytest.raises(ConfigError):
            parse(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert f"{name}.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["duplicate-module", "module-belief-collision", "module-duplicate-plan"]
    )
    def test_module_registration_clash_names_the_modules_path(self, name):
        with pytest.raises(ConfigError, match=r"^agent-program\.modules: module 'm'"):
            parse_agent_program(MALFORMED_PROGRAMS[name])


def _refused_b(edit):
    """Scenario B with its canonical endpoints spelled out, after ``edit``."""
    endpoints = copy.deepcopy(CANONICAL_ENDPOINTS_DOCUMENT)
    edit(endpoints)
    return {**json.loads(SCENARIO_B.read_text()), "endpoints": endpoints}


#: Declared plans a config refuses, each with its exact ConfigError text.
REFUSED_PLANS = {
    "undeclared-action": (
        _refused_b(lambda endpoints: endpoints[1]["plans"][0]["body"][0].update(name="fly")),
        "scenario: endpoints[1].plans[0].body[0]: action 'fly' is not in the service "
        "action set ['reallocate', 'relocate']",
    ),
    "colliding-plan-id": (
        _refused_b(lambda endpoints: endpoints[2]["plans"][0].update(id="move-to")),
        "scenario: endpoints[2]: a service cannot register it: module 'ep.balancing' "
        "plan 'move-to' collides with a host or module plan",
    ),
}


class TestDeclaredPlanRefusals:
    """A declared plan must act in its role's action set and register with
    the role's other declarations; a config refuses it otherwise, so the CLI
    exits 2 and writes nothing."""

    @pytest.mark.parametrize("name", sorted(REFUSED_PLANS))
    def test_the_refusal_text_through_validate_and_run(self, name, tmp_path, capsys):
        from coagent.cli import main

        doc, text = REFUSED_PLANS[name]
        with pytest.raises(ConfigError) as refused:
            parse_scenario(doc)
        assert str(refused.value) == text
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        printed = f"error: {path}" + text.removeprefix("scenario") + "\n"
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == printed
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == printed
        assert not out.exists()


def declared_plan_document(role, action, other_role, plan_id):
    """One server and one service under two declarations: process ``a`` on
    ``role`` with a plan ``plan_id`` that acts ``action``, and process ``b``
    on ``other_role`` with a plan ``plan_id`` that acts nothing."""
    plan = {"id": plan_id, "trigger": {"category": "goal-added", "subject": "g"}}
    return minimal_scenario(
        endpoints=[
            {
                "process-id": "a",
                "role": role,
                "plans": [{**plan, "body": [{"do": "act", "name": action}]}],
            },
            {
                "process-id": "b",
                "role": other_role,
                "plans": [{**plan, "body": [{"do": "subgoal", "goal": "h"}]}],
            },
        ]
    )


@given(
    st.sampled_from(sorted(ROLES)),
    st.sampled_from(["relocate", "reallocate", PUBLISH_ACTION, "fly", ""]),
    st.sampled_from(sorted(ROLES)),
    st.sampled_from(["move-to", "g", "publish.0"]),
)
@settings(max_examples=30, deadline=None)
def test_a_declared_plan_is_refused_when_its_role_cannot_act_or_register_it(
    role, action, other_role, plan_id
):
    """The act check comes first, then registration; a refused document
    exits 2 through ``validate`` and ``run`` and writes no file, and an
    accepted one runs."""
    from coagent.cli import main

    doc = declared_plan_document(role, action, other_role, plan_id)
    actions = ROLES[role][0]
    if action not in actions:
        text = (
            f"scenario: endpoints[0].plans[0].body[0]: action {action!r} is not in the "
            f"{role} action set {sorted(actions)}"
        )
    elif role == other_role:
        text = (
            f"scenario: endpoints[1]: a {role} cannot register it: module 'ep.b' "
            f"plan {plan_id!r} collides with a host or module plan"
        )
    else:
        text = None
    try:
        parse_scenario(doc)
    except ConfigError as exc:
        assert str(exc) == text
    else:
        assert text is None
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "declared.json"
        path.write_text(json.dumps(doc))
        out = Path(directory) / "out"
        expected = 0 if text is None else 2
        assert main(["validate", str(path)]) == expected
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == expected
        assert out.exists() is (text is None)


# -- loader fuzzing -------------------------------------------------------------


_SCENARIO_B = json.loads(SCENARIO_B.read_text())

#: The valid documents the fuzzer mutates.
SEED_DOCUMENTS = {
    "scenario-a": json.loads(SCENARIO_A.read_text()),
    "scenario-b": _SCENARIO_B,
    "scenario-b-endpoints": {**_SCENARIO_B, "endpoints": CANONICAL_ENDPOINTS_DOCUMENT},
    "program": minimal_program(
        modules=[
            {
                "id": "m1",
                "beliefs": {"seen": 0},
                "plans": [MODULE_PLAN],
                "mapping": [
                    {
                        "observe": {"category": "belief-updated", "subject": "x"},
                        "inject": {
                            "category": "goal-added",
                            "subject": "g",
                            "payload": {"v": "payload.new"},
                        },
                        "placement": "new-intention",
                        "guard": "x > 0",
                    }
                ],
                "exports": ["seen"],
            }
        ]
    ),
}

#: What a mutation may put in place of a value.  Integers stay in [-1, 3], so
#: no mutation asks for a large fleet.
MUTANT_VALUES = (None, True, 0, -1, 3, 2.5, "", "payload", [], {})


def _paths(node, path=()):
    """Every path into a document, the root's ``()`` first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*path, key))


def mutate(doc, path, kind, value=None):
    """A copy of ``doc`` with one mutation: ``delete`` the key or item at
    ``path``, ``replace`` it with ``value`` or ``rename`` its key to
    ``value``; or ``add`` the unknown key ``"x"``, holding ``value``, to the
    object at ``path``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if kind == "add":
        (target[path[-1]] if path else target)["x"] = copy.deepcopy(value)
    elif kind == "delete":
        del target[path[-1]]
    elif kind == "replace":
        target[path[-1]] = copy.deepcopy(value)
    else:
        target[value] = target.pop(path[-1])
    return doc


@st.composite
def mutated_documents(draw, names=tuple(sorted(SEED_DOCUMENTS))):
    """The name of one of the seed documents ``names`` and that document
    after one to three mutations, each drawn on the document the one before
    it left."""
    name = draw(st.sampled_from(names))
    doc = SEED_DOCUMENTS[name]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path:
            node = node[key]
        kinds = ["delete", "replace"] if path else []
        if path and isinstance(path[-1], str):
            kinds.append("rename")
        if isinstance(node, dict):
            kinds.append("add")
        kind = draw(st.sampled_from(kinds))
        values = ("", "payload") if kind == "rename" else MUTANT_VALUES
        doc = mutate(doc, path, kind, draw(st.sampled_from(values)) if kind != "delete" else None)
    return name, doc


@pytest.mark.parametrize("name", sorted(SEED_DOCUMENTS))
def test_the_seed_documents_load(name):
    doc = SEED_DOCUMENTS[name]
    (parse_agent_program if name == "program" else parse_scenario)(doc)


# An extract-event key renamed to "" once gave a traceback when the scenario
# was built: its publish plan read ``payload.``, a syntax error.
@example(
    (
        "scenario-b-endpoints",
        mutate(
            SEED_DOCUMENTS["scenario-b-endpoints"],
            ("endpoints", 3, "publication-rules", 0, "extract-event", "subject"),
            "rename",
            "",
        ),
    )
)
@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_a_mutated_document_loads_or_is_a_config_error(case):
    """A mutated valid document either loads or raises ConfigError; a
    scenario that loads builds and runs."""
    name, doc = case
    try:
        if name == "program":
            parse_agent_program(doc)
            return
        config = parse_scenario(doc)
    except ConfigError:
        return
    run_simulation(build_scenario(config), 3)


@given(mutated_documents([name for name in sorted(SEED_DOCUMENTS) if name != "program"]))
@settings(max_examples=10, deadline=None)
def test_a_refused_mutated_scenario_exits_2_through_the_cli(case):
    """``coagent validate`` refuses what ``parse_scenario`` refuses, with
    exit code 2."""
    from coagent.cli import main

    name, doc = case
    try:
        parse_scenario(doc)
    except ConfigError:
        pass
    else:
        assume(False)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2


#: Keys that hold maps of names the document chooses: their entries are no
#: keys of the schema.
NAME_MAPS = {"beliefs", "demand", "media", "payload", "args", "extract-event"}

#: Documents that between them hold every optional key of a scenario or an
#: agent program.
NULLABLE_DOCUMENTS = {
    **SEED_DOCUMENTS,
    "scenario-b-full": {
        **SEED_DOCUMENTS["scenario-b-endpoints"],
        "publish-when-empty": True,
        "move-acceptance-probability": 0.5,
        "endpoints": [
            *CANONICAL_ENDPOINTS_DOCUMENT,
            {
                "process-id": "audit",
                "role": "service",
                "reaction-rules": [
                    {**REACTION, "match": {"topic": "capacity", "payload": {"deployed": 1}}}
                ],
            },
        ],
    },
    "program-full": minimal_program(
        plans=[
            {
                "id": "p1",
                "trigger": {"category": "goal-added", "subject": "g", "payload": {"k": 1}},
                "context": "x < 5",
                "body": [
                    {"do": "act", "name": "ping", "args": {"n": "x"}},
                    {"do": "subgoal", "goal": "h", "args": {"n": "1"}},
                    {"do": "send", "to": "other", "payload": {"n": "x"}},
                ],
            }
        ],
        events=[{"category": "goal-added", "subject": "g", "payload": {"k": 1}}],
    ),
}


def _parser(name):
    return parse_agent_program if name.startswith("program") else parse_scenario


@functools.cache
def optional_keys(name):
    """The paths of the optional keys of ``NULLABLE_DOCUMENTS[name]``: the
    keys of the schema that the document loads without."""
    doc, parse = NULLABLE_DOCUMENTS[name], _parser(name)
    paths = []
    for path in _paths(doc):
        if not path or not isinstance(path[-1], str) or (len(path) > 1 and path[-2] in NAME_MAPS):
            continue
        try:
            parse(mutate(doc, path, "delete"))
        except ConfigError:
            continue
        paths.append(path)
    return paths


@st.composite
def nulled_keys(draw):
    """The name of one of ``NULLABLE_DOCUMENTS`` and one to four paths of
    its optional keys."""
    name = draw(st.sampled_from(sorted(NULLABLE_DOCUMENTS)))
    paths = st.lists(st.sampled_from(optional_keys(name)), min_size=1, max_size=4, unique=True)
    return name, draw(paths)


@given(nulled_keys())
@example(("scenario-a", [("seed",), ("ticks",), ("brokers",)]))
@example(("scenario-a", [("services", 0, "initial-server")]))
@example(("program", [("modules", 0, "mapping", 0, "placement")]))
@settings(max_examples=200, deadline=None)
def test_a_null_optional_key_reads_as_absent(case):
    """Setting optional keys to null loads the same config or program as
    deleting them, or is refused in the same words."""
    name, paths = case
    nulled = deleted = NULLABLE_DOCUMENTS[name]
    for path in paths:
        # A key inside another drawn key goes with it.
        if not any(path[: len(other)] == other for other in paths if other != path):
            nulled = mutate(nulled, path, "replace", None)
            deleted = mutate(deleted, path, "delete")

    def loaded(doc):
        try:
            return _parser(name)(doc)
        except ConfigError as exc:
            return str(exc)

    assert loaded(nulled) == loaded(deleted)


SERVER = {"id": "server-01", "capacity": 5, "preferred-min": 3}
SERVICE = {"id": "svc-01", "type": "web", "initial-server": "server-01"}
DELTA = {"tick": 2, "type": "web", "delta": 5}


class TestEntryRefusals:
    """A refused server, service or demand-schedule entry names its path and
    its first fault, in exactly these texts, whether or not an inline test
    ran first."""

    @pytest.mark.parametrize(
        "servers, message",
        [
            ([SERVER, ["server-02"]], "scenario.servers[1]: server must be dict, got list"),
            (
                [{"id": "server-01", "capacity": 5}],
                "scenario.servers[0]: missing required keys ['preferred-min']",
            ),
            (
                [{**SERVER, "memory": 4}],
                "scenario.servers[0]: unknown keys ['memory']; "
                "allowed: ['capacity', 'id', 'preferred-min']",
            ),
            (
                [{**SERVER, "capacity": True}],
                "scenario.servers[0].capacity: capacity must be int, got bool",
            ),
            (
                [{**SERVER, "preferred-min": 1.5}],
                "scenario.servers[0].preferred-min: preferred-min must be int, got float",
            ),
            ([{**SERVER, "id": 7}], "scenario.servers[0].id: server id must be str, got int"),
            # Two faults: the keys are checked before the values, and the
            # values in the order id, capacity, preferred-min.
            (
                [{"id": "server-01", "capacity": 5, "memory": 4}],
                "scenario.servers[0]: unknown keys ['memory']; "
                "allowed: ['capacity', 'id', 'preferred-min']",
            ),
            (
                [{**SERVER, "capacity": False, "preferred-min": 0.5}],
                "scenario.servers[0].capacity: capacity must be int, got bool",
            ),
            (
                [{**SERVER, "id": 3, "capacity": True}],
                "scenario.servers[0].id: server id must be str, got int",
            ),
        ],
    )
    def test_a_refused_server_entry(self, servers, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(minimal_scenario(servers=servers))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "services, message",
        [
            (["svc-01"], "scenario.services[0]: service must be dict, got str"),
            ([{"id": "svc-01"}], "scenario.services[0]: missing required keys ['type']"),
            (
                [{**SERVICE, "weight": 1}],
                "scenario.services[0]: unknown keys ['weight']; "
                "allowed: ['id', 'initial-server', 'type']",
            ),
            (
                [{**SERVICE, "initial-server": 3}],
                "scenario.services[0].initial-server: initial-server must be str, got int",
            ),
            (
                [{**SERVICE, "initial-server": True}],
                "scenario.services[0].initial-server: initial-server must be str, got bool",
            ),
            ([{**SERVICE, "type": ["web"]}], "scenario.services[0].type: type must be str, got list"),
            # Two faults: initial-server is checked before id, and id before type.
            (
                [{"id": 1, "type": "web", "initial-server": 3}],
                "scenario.services[0].initial-server: initial-server must be str, got int",
            ),
            (
                [{"id": 1, "type": 2}],
                "scenario.services[0].id: service id must be str, got int",
            ),
            (
                [{"id": "svc-01", "weight": 1}],
                "scenario.services[0]: unknown keys ['weight']; "
                "allowed: ['id', 'initial-server', 'type']",
            ),
        ],
    )
    def test_a_refused_service_entry(self, services, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(minimal_scenario(services=services))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([DELTA, ["web"]], "scenario.demand-schedule[1]: demand delta must be dict, got list"),
            (
                [{"tick": 2, "type": "web"}],
                "scenario.demand-schedule[0]: missing required keys ['delta']",
            ),
            (
                [{**DELTA, "rate": 1}],
                "scenario.demand-schedule[0]: unknown keys ['rate']; "
                "allowed: ['delta', 'tick', 'type']",
            ),
            (
                [{**DELTA, "tick": True}],
                "scenario.demand-schedule[0].tick: tick must be int, got bool",
            ),
            (
                [{**DELTA, "tick": 1.5}],
                "scenario.demand-schedule[0].tick: tick must be int, got float",
            ),
            ([{**DELTA, "type": 3}], "scenario.demand-schedule[0].type: type must be str, got int"),
            (
                [{**DELTA, "delta": None}],
                "scenario.demand-schedule[0].delta: delta must be int, got NoneType",
            ),
            (
                [{**DELTA, "delta": False}],
                "scenario.demand-schedule[0].delta: delta must be int, got bool",
            ),
            # Two faults: the keys are checked before the values, and the
            # values in the order tick, type, delta.
            (
                [{"tick": 2, "delta": 5, "rate": 1}],
                "scenario.demand-schedule[0]: unknown keys ['rate']; "
                "allowed: ['delta', 'tick', 'type']",
            ),
            (
                [{**DELTA, "tick": "2", "type": 7}],
                "scenario.demand-schedule[0].tick: tick must be int, got str",
            ),
            (
                [{**DELTA, "type": None, "delta": 2.5}],
                "scenario.demand-schedule[0].type: type must be str, got NoneType",
            ),
        ],
    )
    def test_a_refused_demand_schedule_entry(self, schedule, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(minimal_scenario(**{"demand-schedule": schedule}))
        assert str(excinfo.value) == message

    def test_the_first_refused_entry_is_reported(self):
        doc = minimal_scenario(
            servers=[SERVER, {**SERVER, "id": "server-02", "capacity": "5"}],
            services=[{**SERVICE, "type": None}],
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == "scenario.servers[1].capacity: capacity must be int, got str"

    def test_values_the_full_checks_accept_are_accepted(self):
        # An int or str subclass, which JSON never gives, fails the inline
        # test and passes the full checks; a null initial-server is absent.
        class Count(int):
            pass

        class Name(str):
            pass

        config = parse_scenario(
            minimal_scenario(
                servers=[{**SERVER, "capacity": Count(5)}],
                services=[{"id": Name("svc-01"), "type": "web", "initial-server": None}],
                **{"demand-schedule": [{**DELTA, "tick": Count(2), "type": Name("web")}]},
            )
        )
        assert config.servers[0].capacity == 5 and config.services[0].service_id == "svc-01"
        assert config.services[0].initial_server is None
        assert config.demand_schedule == (DemandDelta(2, "web", 5),)

    @given(
        st.sampled_from(["servers", "services", "demand-schedule"]),
        st.one_of(
            st.sampled_from(MUTANT_VALUES),
            st.dictionaries(
                st.sampled_from(
                    ["id", "type", "capacity", "preferred-min", "initial-server", "tick", "delta", "x"]
                ),
                st.sampled_from((*MUTANT_VALUES, 5, "server-01", "web")),
                max_size=4,
            ),
        ),
    )
    @example("demand-schedule", DELTA)
    @settings(max_examples=300, deadline=None)
    def test_an_entry_is_refused_as_the_full_checks_refuse(self, kind, entry):
        """The inline test lets through only what the full checks accept,
        and a refused entry gets the full checks' message."""
        path = f"scenario.{kind}[0]"
        check = {
            "servers": _check_server,
            "services": _check_service,
            "demand-schedule": _check_demand_delta,
        }[kind]
        try:
            check(entry, path)
            expected = None
        except ConfigError as exc:
            expected = str(exc)
        try:
            config = parse_scenario(minimal_scenario(**{kind: [entry]}))
            refused = None
        except ConfigError as exc:
            refused = str(exc)
        if expected is not None:
            assert refused == expected
        elif refused is not None:
            assert not refused.startswith(path)  # a fault of the document, not the entry
        elif kind == "servers":
            assert config.servers[0] == ServerSpec(entry["id"], entry["capacity"], entry["preferred-min"])
        elif kind == "services":
            spec = ServiceSpec(entry["id"], entry["type"], entry.get("initial-server"))
            assert config.services[0] == spec
        else:
            assert config.demand_schedule == (DemandDelta(entry["tick"], entry["type"], entry["delta"]),)
