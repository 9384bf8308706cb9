"""Document loading: schema checks, expression validation, error paths."""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coagent.bdi.events import EventCategory
from coagent.loader import (
    ConfigError,
    build_agent,
    load_scenario,
    parse_agent_program,
    parse_endpoint_declaration,
    parse_pattern,
    parse_scenario,
)
from coagent.scenarios import build_scenario, run_simulation

from tests.conftest import SCENARIO_A, SCENARIO_B
from tests.test_scenarios import CANONICAL_ENDPOINTS_B


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


class TestScenarioDocuments:
    def test_minimal_scenario_parses(self):
        config = parse_scenario(minimal_scenario())
        assert config.name == "mini"
        assert config.servers[0].preferred_min == 3

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

    def test_bad_role_rejected(self):
        with pytest.raises(ConfigError, match="role"):
            parse_endpoint_declaration(
                {"process-id": "p", "role": "sidecar"}, "endpoints[0]"
            )

    def test_custom_endpoints_replace_canonical_processes(self):
        from coagent.scenarios import build_scenario, run_simulation

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
        from coagent.scenarios import build_scenario, run_simulation

        doc = minimal_scenario(
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
                },
            ],
        )
        config = parse_scenario(doc)
        state = build_scenario(config)
        trace = run_simulation(state, 30, seed=0)
        assert sum(record.moves for record in trace) > 0
        assert trace[-1].underloaded == 0

    def test_declared_topics_get_a_medium(self):
        from coagent.scenarios import build_scenario, run_simulation

        state = build_scenario(parse_scenario(scenario_with_rules()))
        assert sorted(state.media) == ["alerts", "capacity", "demand-change"]
        run_simulation(state, 3, seed=0)


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
    "duplicate-endpoint": minimal_scenario(
        endpoints=[{"process-id": "utilization", "role": "service", "reaction-rules": [REACTION]}] * 2
    ),
}

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


# -- loader fuzzing -------------------------------------------------------------


_SCENARIO_B = json.loads(SCENARIO_B.read_text())

#: The valid documents the fuzzer mutates.
SEED_DOCUMENTS = {
    "scenario-a": json.loads(SCENARIO_A.read_text()),
    "scenario-b": _SCENARIO_B,
    "scenario-b-endpoints": {**_SCENARIO_B, "endpoints": CANONICAL_ENDPOINTS_B},
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


def mutate(name, path, kind, value=None):
    """Seed document ``name`` with one mutation: ``delete`` the key or item at
    ``path``, ``replace`` it with ``value`` or ``rename`` its key to
    ``value``; or ``add`` the unknown key ``"x"``, holding ``value``, to the
    object at ``path``."""
    doc = copy.deepcopy(SEED_DOCUMENTS[name])
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
    return name, doc


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(SEED_DOCUMENTS)))
    doc = SEED_DOCUMENTS[name]
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
    return mutate(name, path, kind, draw(st.sampled_from(values)) if kind != "delete" else None)


@pytest.mark.parametrize("name", sorted(SEED_DOCUMENTS))
def test_the_seed_documents_load(name):
    doc = SEED_DOCUMENTS[name]
    (parse_agent_program if name == "program" else parse_scenario)(doc)


# An extract-event key renamed to "" once gave a traceback when the scenario
# was built: its publish plan read ``payload.``, a syntax error.
@example(
    mutate(
        "scenario-b-endpoints",
        ("endpoints", 3, "publication-rules", 0, "extract-event", "subject"),
        "rename",
        "",
    )
)
@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_a_mutated_document_loads_or_is_a_config_error(case):
    """One mutation of a valid document either loads or raises ConfigError;
    a scenario that loads builds and runs."""
    name, doc = case
    try:
        if name == "program":
            parse_agent_program(doc)
            return
        config = parse_scenario(doc)
    except ConfigError:
        return
    run_simulation(build_scenario(config), 3)
