"""The hot-path rule: runtime code names enum members through module constants.

An Enum member lookup such as ``Step.SEL_EV`` costs several times a
module-global read, and a profiler cannot show it: it has no frame of its
own.  So every function body of the runtime modules reads members through
constants bound once, by name, in the module that defines the enum.
Class-level defaults and other module-level code run once and are exempt.
"""

from __future__ import annotations

import ast
from enum import Enum
from pathlib import Path

import pytest

from coagent import coefficiency, coordination
from coagent.bdi import beliefs, config, events, interpreter
from coagent.bdi.config import Step
from coagent.bdi.events import EventCategory
from coagent.coefficiency import Placement

#: The modules whose functions run every reasoning cycle.
RUNTIME_MODULES = (interpreter, beliefs, config, coefficiency, coordination)
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
