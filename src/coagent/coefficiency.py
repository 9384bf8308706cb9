"""Activated agent modules: observation-driven, guarded event injection.

A co-efficient module is a namespaced container of beliefs and plans plus an
ordered event mapping.  Each mapping entry names an observed event pattern,
an event template to inject when the pattern fires, a placement (current or
new intention), and a guard condition over the host state, ``TRUE`` unless
declared.

One rule, ``apply_mapping``, injects: within one module's entries, the first
entry whose pattern matches the observed event and whose guard holds has its
template instantiated and appended to the event queue with a fresh sequence
number.  A template reads only the observed event (its expressions see one
shared empty belief mapping, not the host's beliefs), and event payloads are
read-only, so the hosts that observe one event (the subscribers of one
publication) all queue the one event instantiated from it, not a copy each.
Registration merges the module elements into the host under the
module namespace and extends event selection to apply that rule, once per
module in registration order, to the selected event.  The selected event
itself is processed unchanged, and the injected event waits its turn like
any other; the reasoner keeps full authority.

Plan lifecycle events never enter the event queue; modules observe them
through a hook on the observation stream, and coordination endpoints apply
the same rule to perceived coordination information.
"""

from __future__ import annotations

import ast
import copy
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from coagent.bdi.beliefs import RESERVED_NAMES, BeliefValue
from coagent.bdi.config import REL_PL, AgentConfiguration
from coagent.bdi.events import (
    INJECTABLE_CATEGORIES,
    TOP,
    EventCategory,
    EventPattern,
    TriggeringEvent,
    _Top,
)
from coagent.bdi.expressions import TRUE, UNDEFINED, Expr
from coagent.bdi.interpreter import select_event
from coagent.bdi.plans import Act, Believe, Plan, PlanLibrary, Send, Subgoal, Unbelieve


class Placement(str, Enum):
    CURRENT_INTENTION = "current-intention"
    NEW_INTENTION = "new-intention"


# The members as module constants, bound by name, for runtime code (see
# ``coagent.bdi.interpreter``).
CURRENT_INTENTION = Placement.CURRENT_INTENTION
NEW_INTENTION = Placement.NEW_INTENTION


class ModuleRegistrationError(ValueError):
    """Duplicate or unusable module id, or namespace collision."""


class MappingError(ValueError):
    """Illegal event mapping entry."""


#: The beliefs a template's expressions read: none, so a bare name is
#: undefined.  One read-only mapping, shared by every instantiation.
_NO_BELIEFS: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True)
class EventTemplate:
    """An injectable event: category, subject, payload expressions over the
    observed event."""

    category: EventCategory
    subject: str
    payload: Mapping[str, Expr] = field(default_factory=dict)
    #: The last observed event and the event instantiated from it, matched
    #: by identity; holding the observed event keeps its id from reuse.
    _last: tuple[TriggeringEvent, TriggeringEvent] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.category not in INJECTABLE_CATEGORIES:
            raise MappingError(
                f"category {self.category.value!r} cannot be injected; "
                f"legal categories: {sorted(c.value for c in INJECTABLE_CATEGORIES)}"
            )

    def instantiate(self, te: TriggeringEvent) -> TriggeringEvent:
        """Evaluate payload expressions over the observed event ``te``.

        Expressions without a defined value drop their key from the payload.
        The result depends on ``te`` alone (the beliefs they read are
        ``_NO_BELIEFS``, one shared empty mapping), so
        consecutive calls on the same observed event return the same event:
        one publication delivered to many hosts injects one shared event.
        """
        last = self._last
        if last is not None and last[0] is te:
            return last[1]
        payload: dict[str, Any] = {}
        for key, expr in self.payload.items():
            value = expr.evaluate(_NO_BELIEFS, te)
            if value is not UNDEFINED:
                payload[key] = value
        injected = TriggeringEvent(self.category, self.subject, payload)
        object.__setattr__(self, "_last", (te, injected))
        return injected


@dataclass(frozen=True)
class EventMappingEntry:
    """One mapping tuple: observed pattern, injected template, placement, guard.

    A guard left out is ``TRUE``, as a plan's context is, and is never
    evaluated (see ``eval_guard``).
    """

    observe: EventPattern
    inject: EventTemplate
    placement: Placement = Placement.NEW_INTENTION
    guard: Expr = TRUE


@dataclass
class CoefficientModule:
    """A namespaced element container carrying an event mapping.

    The module's plans and mapping guards spell its beliefs bare, and
    registration renames them to their host keys (see ``register_module``).
    Registration treats a module as a value and remembers on it its belief
    renames, so a module's id, beliefs and exports are not changed once it
    is registered.
    """

    module_id: str
    beliefs: dict[str, BeliefValue] = field(default_factory=dict)
    plans: list[Plan] = field(default_factory=list)
    mapping: list[EventMappingEntry] = field(default_factory=list)
    exports: frozenset[str] = frozenset()
    #: Each belief key -> the host key it merges under, once computed.
    _renames: dict[str, str] | None = field(default=None, init=False, repr=False, compare=False)


# -- namespacing -------------------------------------------------------------

_IDENT = re.compile(r"[^0-9A-Za-z_]")


def _belief_renames(mod: CoefficientModule) -> dict[str, str]:
    """Each of the module's belief keys -> its host key; the refusals that
    depend on the module alone."""
    prefix = _IDENT.sub("_", mod.module_id) + "__"
    if not prefix.isidentifier():
        raise ModuleRegistrationError(f"module id {mod.module_id!r} starts with a digit")
    renames: dict[str, str] = {}
    for key in mod.beliefs:
        target = key if key in mod.exports else prefix + key
        if not target or target in RESERVED_NAMES:
            raise ModuleRegistrationError(
                f"module {mod.module_id!r} belief {target!r} is empty or a reserved name"
            )
        renames[key] = target
    return renames


class _Renamer(ast.NodeTransformer):
    def __init__(self, renames: dict[str, str]):
        self.renames = renames

    def visit_Name(self, node: ast.Name) -> ast.Name:
        if node.id in self.renames:
            return ast.copy_location(ast.Name(id=self.renames[node.id], ctx=node.ctx), node)
        return node


def _rename_expr(expr: Expr, renames: dict[str, str]) -> Expr:
    """``expr`` with renamed belief names; ``expr`` itself if it names none,
    so ``TRUE`` stays ``TRUE``.  Without renames the tree is not walked."""
    if not renames or not any(
        isinstance(node, ast.Name) and node.id in renames for node in ast.walk(expr.tree)
    ):
        return expr
    tree = _Renamer(renames).visit(copy.deepcopy(expr.tree))
    ast.fix_missing_locations(tree)
    return Expr(ast.unparse(tree))


def _rename_args(args: Mapping[str, Expr], renames: dict[str, str]) -> dict[str, Expr]:
    return {key: _rename_expr(expr, renames) for key, expr in args.items()}


def _namespace_plan(plan: Plan, plan_id: str, renames: dict[str, str]) -> Plan:
    body = []
    for step in plan.body:
        if isinstance(step, Act):
            body.append(Act(step.name, _rename_args(step.args, renames)))
        elif isinstance(step, Subgoal):
            body.append(Subgoal(step.goal, _rename_args(step.args, renames)))
        elif isinstance(step, Believe):
            key = renames.get(step.key, step.key)
            body.append(Believe(key, _rename_expr(step.value, renames)))
        elif isinstance(step, Unbelieve):
            body.append(Unbelieve(renames.get(step.key, step.key)))
        else:
            assert isinstance(step, Send)
            body.append(Send(step.to, _rename_args(step.payload, renames)))
    return Plan(
        plan_id=plan_id,
        trigger=plan.trigger,
        context=_rename_expr(plan.context, renames),
        body=tuple(body),
    )


# -- operations ---------------------------------------------------------------


def register_module(cfg: AgentConfiguration, mod: CoefficientModule) -> AgentConfiguration:
    """Merge a module into the host and activate its event mapping.

    Beliefs and plans are merged under the module namespace (export-listed
    names stay unprefixed).  One naming rule holds inside a module: its
    plans and its mapping guards spell its beliefs bare, and registration
    rewrites those names to the host keys in both; a name that is not one of
    the module's beliefs, such as an already prefixed one, is left as it
    is.  An expression that names none of them is kept, so ``TRUE`` stays
    ``TRUE``.  A module that declares plans gives the host a new library,
    the host's plans then its own.  Every refusal -- a
    belief key that is empty or reserved, a belief or plan id taken by the
    host, or a plan id the module declares twice -- comes before the host
    changes, and the refusals that depend on the module alone come before
    those that depend on the host.  The namespace prefix is the module id,
    each character outside ``[0-9A-Za-z_]`` made ``_``, then ``__``; an id
    that starts with a digit is refused, since its names would not parse as
    expression names.  A module's mapping entries, if it declares any, join
    the host's active mapping after earlier modules', and the first such
    module installs the plan-lifecycle hook; a host without one calls no hook.

    Registration gives the host new values and never writes into the old
    ones: a new library, module table, mapping and hook list.  So hosts may
    share all of them, as the members of one role in a scenario build do,
    and registering a further module on one host changes no other.  Only
    the module's beliefs are written into the host's own belief base.

    What depends only on the module is computed once, on its first
    registration, and remembered on it: its belief renames.  Each
    registration that merges plans builds a new library, so hosts that are
    to share one register the module once and take its values, as
    ``build_scenario`` does.
    """
    if mod.module_id in cfg.modules:
        raise ModuleRegistrationError(f"module {mod.module_id!r} already registered")

    renames = mod._renames
    if renames is None:
        renames = mod._renames = _belief_renames(mod)
    for target in renames.values():
        if target in cfg.beliefs:
            raise ModuleRegistrationError(
                f"module {mod.module_id!r} belief {target!r} collides with the host"
            )

    plans = _merge_plans(cfg.plans, mod, renames) if mod.plans else cfg.plans

    for key, value in mod.beliefs.items():
        cfg.beliefs.set(renames[key], value)  # registration-time merge, no events
    cfg.plans = plans
    if mod.mapping:
        entries = tuple(replace(e, guard=_rename_expr(e.guard, renames)) for e in mod.mapping)
        cfg.mapping = {**cfg.mapping, mod.module_id: entries}
        if _inject not in cfg.observation_hooks:
            cfg.observation_hooks = [*cfg.observation_hooks, _inject]
    cfg.modules = {**cfg.modules, mod.module_id: mod}
    if cfg.select_event_override is None:
        cfg.select_event_override = select_event_coefficient
    return cfg


def _merge_plans(
    library: PlanLibrary, mod: CoefficientModule, renames: dict[str, str]
) -> PlanLibrary:
    """A new library: ``library``'s plans, then the module's, namespaced."""
    staged_plans: dict[str, Plan] = {}
    for plan in mod.plans:
        plan_id = (
            plan.plan_id if plan.plan_id in mod.exports else f"{mod.module_id}.{plan.plan_id}"
        )
        if plan_id in library or plan_id in staged_plans:
            raise ModuleRegistrationError(
                f"module {mod.module_id!r} plan {plan_id!r} collides with a host or module plan"
            )
        staged_plans[plan_id] = _namespace_plan(plan, plan_id, renames)
    return PlanLibrary([*library.by_id.values(), *staged_plans.values()])


def resolve_mapping(
    mapping: Iterable[EventMappingEntry], te: TriggeringEvent
) -> EventMappingEntry | None:
    """First entry whose pattern matches (an iterator resumes after it); None if unobserved."""
    for entry in mapping:
        if entry.observe.matches(te):
            return entry
    return None


def eval_guard(guard: Expr, te: TriggeringEvent, cfg: AgentConfiguration) -> bool:
    """Evaluate an entry guard against host beliefs and the observed event.

    ``TRUE`` holds without an evaluation, the rule ApplPl applies to plan
    contexts.
    """
    return guard is TRUE or guard.as_condition(cfg.beliefs, te)


def select_event_coefficient(cfg: AgentConfiguration) -> AgentConfiguration:
    """Event selection extended with guarded injection.

    Plain selection, after which an observed selected event may inject its
    mapped event (see ``_inject``).  The selected event itself still goes to
    the temporary structure for normal processing.
    """
    select_event(cfg)
    if cfg.step is REL_PL and cfg.mapping:
        epsilon = cfg.temp.epsilon
        _inject(cfg, epsilon.te, epsilon.intention)
    return cfg


# The sleep declaration, as on ``select_event``: an empty queue only moves
# the step on.  A wrapper that should keep it copies it (``functools.wraps``
# does); the tracer's wrappers do not, so in a traced run no agent sleeps.
select_event_coefficient.inert_on_empty_queue = True  # type: ignore[attr-defined]


def apply_mapping(
    cfg: AgentConfiguration,
    entries: Iterable[EventMappingEntry],
    te: TriggeringEvent,
    intention: int | _Top,
) -> None:
    """The guarded-injection rule over one module's entries.

    The first entry whose pattern matches and whose guard holds injects its
    instantiated template: paired with ``intention`` for current-intention
    placement, or with the empty intention for new-intention placement or
    when ``intention`` is no longer live (the empty intention has no stack
    to extend).
    """
    remaining = iter(entries)
    while (entry := resolve_mapping(remaining, te)) is not None:
        if eval_guard(entry.guard, te, cfg):
            if entry.placement is NEW_INTENTION or intention not in cfg.circumstance.intentions:
                intention = TOP
            cfg.append_event(entry.inject.instantiate(te), intention)
            return


def _inject(cfg: AgentConfiguration, te: TriggeringEvent, intention: int | _Top) -> None:
    """Apply each module's entries to one observed event; also the plan
    lifecycle hook, installed only once a module declares entries."""
    for entries in cfg.mapping.values():
        apply_mapping(cfg, entries, te, intention)
