"""The hot-path rule: what a reasoning cycle may cost.

An Enum member lookup such as ``Step.SEL_EV`` costs several times a
module-global read, and a profiler cannot show it: it has no frame of its
own.  So every function body of the runtime modules reads members through
constants bound once, by name, in the module that defines the enum.
Class-level defaults and other module-level code run once and are exempt.

A Python call costs a frame.  So a cycle enters only the functions that do
its work: step checks are inline, an idle cycle goes straight to the
selector, and a host that neither records observations nor declares
mapping entries builds no lifecycle event and calls no hook.
"""

from __future__ import annotations

import ast
import sys
from enum import Enum
from pathlib import Path

import pytest

from coagent import coefficiency, coordination
from coagent.bdi import beliefs, config, events, interpreter, plans
from coagent.bdi.config import AgentConfiguration, Step
from coagent.bdi.events import EventCategory, TriggeringEvent, pattern
from coagent.bdi.interpreter import post_external_event, run_cycle
from coagent.bdi.plans import Act, Plan, PlanLibrary
from coagent.coefficiency import CoefficientModule, Placement, register_module

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


def entered(fn, *args) -> list[str]:
    """The Python functions ``fn(*args)`` enters, in call order (C calls excluded)."""
    names: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


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
