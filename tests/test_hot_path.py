"""The hot-path rule: what a reasoning cycle may cost.

An Enum member lookup such as ``Step.SEL_EV`` costs several times a
module-global read, and a profiler cannot show it: it has no frame of its
own.  So every function body of the runtime modules reads members through
constants bound once, by name, in the module that defines the enum.
Class-level defaults and other module-level code run once and are exempt.

A Python call costs a frame.  So a cycle enters only the functions that do
its work: an idle tick runs no cycle at all, step checks are inline,
every cycle goes straight to the selector and runs ProcMsg only for mail,
intention scheduling and plan lookups make no method call, ApplPl
evaluates no context that is literally ``TRUE``, an expression runs as one
generated function whose belief reads are C calls, and a host that neither
records observations nor declares mapping entries builds no lifecycle event
and calls no hook.

Set-up does each piece of work once for everything it depends on: what
depends on a role, a declaration or a module is done once per build, so
each added agent enters a fixed list of frames for its own state, and
parsing a well-formed server or service entry builds no path text.
"""

from __future__ import annotations

import ast
import gc
import sys
from collections import Counter
from enum import Enum
from pathlib import Path
from types import CodeType, FunctionType

import pytest

from coagent import coefficiency, coordination
from coagent.bdi import beliefs, config, events, interpreter, plans
from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration, Message, Step
from coagent.bdi.events import TOP, EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import TRUE, Expr
from coagent.bdi.interpreter import (
    compute_applicable_plans,
    post_external_event,
    reasoning_step,
    run_cycle,
)
from coagent.bdi.plans import Act, Plan, PlanLibrary
from coagent.coefficiency import (
    CoefficientModule,
    EventMappingEntry,
    EventTemplate,
    Placement,
    register_module,
)
from coagent.loader import ConfigError, parse_scenario
from coagent.scenarios import (
    SimulationState,
    build_scenario,
    run_simulation,
)

#: The modules whose functions run every reasoning cycle.
RUNTIME_MODULES = (interpreter, beliefs, config, coefficiency, coordination, plans)
ENUMS = {enum.__name__: enum for enum in (Step, EventCategory, Placement)}
DEFINING_MODULES = {Step: config, EventCategory: events, Placement: coefficiency}


def member_reads(source: str) -> list[str]:
    """Each ``Enum.MEMBER`` read inside a function body, as ``line: text``."""
    found: set[tuple[int, int, str]] = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        for statement in body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS
                    and node.attr in ENUMS[node.value.id].__members__
                ):
                    found.add((node.lineno, node.col_offset, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {text}" for line, _, text in sorted(found)]


def module_id(module) -> str:
    return module.__name__


@pytest.mark.parametrize("module", RUNTIME_MODULES, ids=module_id)
def test_no_member_lookup_in_runtime_function_bodies(module):
    assert member_reads(Path(module.__file__).read_text(encoding="utf-8")) == []


def test_the_guard_sees_member_reads_and_exempts_class_defaults():
    source = (
        "class Entry:\n"
        "    placement: Placement = Placement.NEW_INTENTION\n"
        "def f(cfg, step=Step.SEL_EV):\n"
        "    cfg.step = Step.REL_PL\n"
        "    g = lambda: EventCategory.GOAL_ADDED\n"
        "    return Step.__members__\n"
    )
    assert member_reads(source) == ["4: Step.REL_PL", "5: EventCategory.GOAL_ADDED"]


@pytest.mark.parametrize("enum", list(DEFINING_MODULES), ids=lambda enum: enum.__name__)
def test_every_member_has_its_constant(enum):
    module = DEFINING_MODULES[enum]
    for name, member in enum.__members__.items():
        assert getattr(module, name, None) is member, f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", (events, *RUNTIME_MODULES), ids=module_id)
def test_each_constant_is_the_member_of_its_name(module):
    for name, value in vars(module).items():
        if isinstance(value, Enum):
            assert value is type(value).__members__.get(name), f"{module.__name__}.{name}"


def entered_code(fn, *args) -> list[CodeType]:
    """The code of each Python function ``fn(*args)`` enters, in call order
    (C calls excluded)."""
    codes: list[CodeType] = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return codes


def entered(fn, *args) -> list[str]:
    """The names of the Python functions ``fn(*args)`` enters, in call order."""
    return [code.co_name for code in entered_code(fn, *args)]


def module_host(record_observations: bool) -> AgentConfiguration:
    """A service-like host: one plan, one module without mapping entries."""
    cfg = AgentConfiguration(
        "a",
        plans=PlanLibrary([Plan("work", pattern("goal-added", "g"), (Act("ping"),))]),
        actions={"ping"},
        record_observations=record_observations,
    )
    register_module(cfg, CoefficientModule("m"))
    return cfg


def test_an_idle_cycle_enters_only_the_selector():
    cfg = module_host(record_observations=True)
    assert entered(run_cycle, cfg) == ["run_cycle", "select_event_coefficient", "select_event"]
    assert cfg.step is Step.PROC_MSG and cfg.temp.iota is None


def idle_fleet_document(servers: int) -> dict:
    """A scenario of ``servers`` full servers, two services each and one broker."""
    return {
        "name": "idle",
        "servers": [{"id": f"s{i}", "capacity": 2, "preferred-min": 2} for i in range(servers)],
        "services": [
            {"id": f"v{i}-{j}", "type": f"t{j}", "initial-server": f"s{i}"}
            for i in range(servers)
            for j in (0, 1)
        ],
        "brokers": 1,
        "demand": {"t0": 10, "t1": 10},
    }


def idle_fleet(servers: int) -> SimulationState:
    """``idle_fleet_document``'s scenario, run past its bootstrap tick:
    every host is idle."""
    state = build_scenario(parse_scenario(idle_fleet_document(servers)))
    run_simulation(state, 1)
    assert not any(
        cfg.circumstance.events or cfg.circumstance.intentions for cfg in state.agents.values()
    )
    return state


def test_an_idle_tick_enters_no_reasoning_cycle():
    # Every host sleeps after the bootstrap tick, so an idle tick runs no
    # cycle; the rest of the tick (media, trace record, counters) does not
    # depend on the fleet size.
    entries = set()
    for servers in (3, 12):
        state = idle_fleet(servers)
        names = entered(run_simulation, state, 1)
        assert "run_cycle" not in names and "select_event_coefficient" not in names
        entries.add(len(names))
    assert len(entries) == 1


@pytest.mark.parametrize("servers", [3, 12])
def test_an_idle_tick_records_the_previous_map(servers):
    # No server changes, so each idle tick's record holds the previous
    # record's deployment map instead of copying it per server.
    state = idle_fleet(servers)
    trace = run_simulation(state, 5)
    for before, after in zip(trace, trace[1:]):
        assert after.deployments is before.deployments
    changed = sum(1 for record in trace[1:] if record.moves or record.switches)
    assert len({id(record.deployments) for record in trace}) == 1 + changed


def added_frames(fn, make) -> Counter:
    """The frames ``fn(make(12))`` enters beyond ``fn(make(3))``'s: what
    nine more servers, with their eighteen services, cost.  The collector
    is off, since a callback other code hangs on it would enter frames."""
    gc.disable()
    try:
        small, large = Counter(entered(fn, make(3))), Counter(entered(fn, make(12)))
    finally:
        gc.enable()
    assert not small - large
    return large - small


def test_parsing_a_well_formed_entry_builds_no_path():
    # A well-formed server or service entry is checked inline: no path
    # text, no check function.  Each adds its record and each service one
    # placement test.
    added = added_frames(parse_scenario, idle_fleet_document)
    assert added == Counter({"__init__": 9 + 18, "admits": 18})


def test_parsing_a_malformed_entry_runs_the_full_checks():
    # The control: the profile sees the full checks once an entry is refused.
    doc = idle_fleet_document(3)
    doc["services"][1]["initial-server"] = 3

    def refused():
        with pytest.raises(ConfigError, match=r"services\[1\]\.initial-server"):
            parse_scenario(doc)

    names = entered(refused)
    assert "_check_service" in names and "_require" in names


def scheduled_document(entries: int) -> dict:
    """``idle_fleet_document(3)`` with ``entries`` demand-schedule entries."""
    doc = idle_fleet_document(3)
    doc["demand-schedule"] = [{"tick": i, "type": "t0", "delta": 1} for i in range(entries)]
    return doc


def test_parsing_a_well_formed_demand_delta_builds_no_path():
    # Each added entry builds its record and feeds the config's type set
    # (the generator), with no path text and no check function; a malformed
    # entry runs the full checks.
    added = added_frames(parse_scenario, scheduled_document)
    assert added == Counter({"__init__": 9, "<genexpr>": 9})
    doc = scheduled_document(3)
    doc["demand-schedule"][1]["delta"] = True

    def refused():
        with pytest.raises(ConfigError, match=r"demand-schedule\[1\]\.delta"):
            parse_scenario(doc)

    names = entered(refused)
    assert "_check_demand_delta" in names and "_require" in names


def test_set_up_pays_per_agent_only_for_its_own_state():
    # What depends only on a role, a declaration or a module is done once
    # per build: each added agent enters a fixed list of frames, its own
    # records and its endpoints, and nothing that recomputes a module's
    # namespace, re-checks its belief keys or scans the declarations.
    server = Counter(
        {
            "<genexpr>": 1,  # the lazy member list
            "<lambda>": 1,  # sorting the server specs
            "refresh_server": 1,
            # configuration, beliefs, circumstance, mail, temp; one endpoint;
            # the bootstrap reading's triggering event and queued event
            "__init__": 5 + 1 + 2,
            "attach_endpoint": 1,
            "register_module": 1,
            "_endpoint_id": 1,
            "post_external_event": 1,
            "append_event": 1,
        }
    )
    service = Counter(
        {
            "<genexpr>": 1,
            "__init__": 5 + 2,  # the agent's five records, two endpoints
            "attach_endpoint": 2,
            "register_module": 2,
            "_endpoint_id": 2,
            "subscribe": 2,  # one topic per declaration
        }
    )
    expected = Counter()
    for _ in range(9):
        expected.update(server)
        expected.update(service)
        expected.update(service)
    added = added_frames(build_scenario, lambda servers: parse_scenario(idle_fleet_document(servers)))
    assert added == expected


def test_merging_plans_of_a_module_without_beliefs_walks_no_expression():
    # Endpoint modules declare no beliefs, so nothing in their plans is
    # renamed: the merge keeps each expression without walking its tree.
    # A config registers every declaration once on a probe agent, so this
    # is part of every parse.
    plan = Plan(
        "go",
        pattern("goal-added", "go"),
        (Act("ping", {"to": Expr("payload.to")}),),
        context=Expr("x != payload.to"),
    )
    cfg = AgentConfiguration("a", plans=PlanLibrary(), actions={"ping"})
    names = entered(register_module, cfg, CoefficientModule("m", plans=[plan]))
    assert "_merge_plans" in names
    assert "walk" not in names
    merged = cfg.plans.by_id["m.go"]
    assert merged.context is plan.context and merged.body[0].args["to"] is plan.body[0].args["to"]


@pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
def test_a_busy_cycle_without_entries_enters_no_check_or_hook(record):
    # The first cycle adopts and runs the plan, which finishes; the second
    # discards its goal-succeeded outcome, which no plan handles.
    cfg = module_host(record_observations=record)
    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    names = entered(run_cycle, cfg) + entered(run_cycle, cfg)
    assert not cfg.circumstance.events and not cfg.circumstance.intentions
    assert "_expect" not in names and "_inject" not in names
    # Recording is the one reason to enter observe: the control shows the
    # profile sees it.
    assert ("observe" in names) is record


def test_a_busy_cycle_with_an_empty_inbox_enters_no_message_selection_or_lookup_call():
    # Three cycles: adopt the plan and run its first step, run its second
    # step and close it, discard the goal-succeeded outcome.
    cfg = AgentConfiguration(
        "a",
        plans=PlanLibrary([Plan("work", pattern("goal-added", "g"), (Act("ping"), Act("ping")))]),
        actions={"ping"},
    )
    register_module(cfg, CoefficientModule("m"))
    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    codes = []
    for _ in range(3):
        codes += entered_code(run_cycle, cfg)
    assert not cfg.circumstance.events and not cfg.circumstance.intentions
    names = [code.co_name for code in codes]
    assert names.count("execute_intention") == 2
    assert "process_messages" not in names and "_select" not in names
    library = {fn.__code__ for fn in vars(PlanLibrary).values() if isinstance(fn, FunctionType)}
    library_names = {code.co_name for code in codes if code in library}
    # Plan ids turn into bodies by subscript: only RelPl calls the library,
    # and the control shows the profile sees it.
    assert "relevant" in library_names and library_names <= {"relevant", "_index"}


def test_a_cycle_with_a_queued_message_processes_it():
    # The control: the profile sees ProcMsg when there is mail.
    cfg = module_host(record_observations=False)
    cfg.mail.inbox.append(Message("b", "a", {}))
    names = entered(run_cycle, cfg)
    assert "process_messages" in names
    assert not cfg.mail.inbox and not cfg.circumstance.events  # selected, then discarded


def at_applicable_plans(contexts) -> AgentConfiguration:
    """An agent at ApplPl for goal ``g``, one relevant plan per context."""
    library = PlanLibrary(
        [
            Plan(f"p{index}", pattern("goal-added", "g"), (Act("ping"),), context)
            for index, context in enumerate(contexts)
        ]
    )
    cfg = AgentConfiguration("a", plans=library, actions={"ping"})
    cfg.beliefs.set("x", 3)
    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    while cfg.step is not Step.APPL_PL:
        reasoning_step(cfg)
    return cfg


def test_a_true_context_evaluates_no_expression():
    cfg = at_applicable_plans([TRUE, TRUE])
    assert entered(compute_applicable_plans, cfg) == ["compute_applicable_plans"]
    assert cfg.temp.applicable == ["p0", "p1"]


def test_a_namespaced_module_plan_keeps_its_true_context():
    # Registration renames the module's beliefs in its plans' expressions;
    # an expression that names none of them is kept as it is, so a default
    # context stays TRUE and ApplPl evaluates nothing for it.
    kept = Expr("x > 1")
    cfg = AgentConfiguration("a", actions={"ping"})
    register_module(
        cfg,
        CoefficientModule(
            "m",
            beliefs={"y": 1},
            plans=[
                Plan("p", pattern("goal-added", "g"), (Act("ping"),)),
                Plan("q", pattern("goal-added", "h"), (Act("ping"),), kept),
                Plan("r", pattern("goal-added", "h"), (Act("ping"),), Expr("y > 0")),
            ],
        ),
    )
    contexts = {plan_id: plan.context for plan_id, plan in cfg.plans.by_id.items()}
    assert contexts["m.p"] is TRUE and contexts["m.q"] is kept
    assert contexts["m.r"].source == "m__y > 0"
    post_external_event(cfg, TriggeringEvent(EventCategory.GOAL_ADDED, "g", {}))
    while cfg.step is not Step.APPL_PL:
        reasoning_step(cfg)
    assert entered(compute_applicable_plans, cfg) == ["compute_applicable_plans"]
    assert cfg.temp.applicable == ["m.p"]


def test_a_mapping_entry_without_a_guard_evaluates_no_expression():
    # Its guard is TRUE, as a plan's context is, and TRUE is not evaluated.
    entry = EventMappingEntry(
        pattern("belief-updated", "load"), EventTemplate(EventCategory.GOAL_ADDED, "g")
    )
    assert entry.guard is TRUE
    cfg = AgentConfiguration("a")
    te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {})
    names = entered(coefficiency.apply_mapping, cfg, [entry], te, TOP)
    assert "eval_guard" in names and "as_condition" not in names and "value" not in names
    assert [event.te.subject for event in cfg.circumstance.events] == ["g"]


def test_other_contexts_are_evaluated_once_per_relevant_plan_building_nothing():
    # Expr("true") is not the TRUE constant, so it is evaluated like any other.
    contexts = [Expr("x > 1"), TRUE, Expr("x > 5"), Expr("true")]
    cfg = at_applicable_plans(contexts)
    for context in contexts:  # compiled before the profile
        context.evaluate(cfg.beliefs, cfg.temp.epsilon.te)
    reads_x = ["as_condition", "value"]  # the belief read enters no frame
    assert entered(compute_applicable_plans, cfg) == [
        "compute_applicable_plans", *reads_x, *reads_x, "as_condition", "value"
    ]
    assert cfg.temp.applicable == ["p0", "p1", "p3"]


@pytest.mark.parametrize("position", ["evaluate", "as_condition", "as_value"])
def test_an_expression_evaluates_in_one_generated_function(position):
    # A guard over two payload entries and a belief: once compiled, the
    # entry point calls one function, which enters no other: the belief
    # base's get is its dict's.  The tree of closures it replaced entered
    # fifteen frames here.
    guard = Expr("payload.new > payload.old and payload.subject != type")
    beliefs = BeliefBase({"type": "a"})
    te = TriggeringEvent(EventCategory.BELIEF_UPDATED, "load", {"new": 2, "old": 1, "subject": "b"})
    assert getattr(guard, position)(beliefs, te) is True  # the first evaluation compiles
    assert entered(getattr(guard, position), beliefs, te) == [position, "value"]
