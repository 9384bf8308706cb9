"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.config import AgentConfiguration, Message
from coagent.bdi.events import EventCategory, TriggeringEvent, pattern
from coagent.bdi.expressions import Expr
from coagent.bdi.interpreter import post_external_event
from coagent.bdi.plans import Act, Believe, Plan, PlanLibrary, Send, Subgoal, Unbelieve

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_A = REPO_ROOT / "scenarios" / "scenario-a.json"
SCENARIO_B = REPO_ROOT / "scenarios" / "scenario-b.json"

GOALS = ("g1", "g2", "g3")
BELIEF_KEYS = ("x", "y")
KNOWN_ACTION = "ping"
UNKNOWN_ACTION = "boom"

_EVENT_CATEGORIES = (
    EventCategory.GOAL_ADDED,
    EventCategory.GOAL_ADDED,  # weighted: goals drive the most machinery
    EventCategory.BELIEF_ADDED,
    EventCategory.BELIEF_UPDATED,
    EventCategory.GOAL_FAILED,
    EventCategory.GOAL_SUCCEEDED,
    EventCategory.MESSAGE_RECEIVED,
)

_CONTEXTS = (
    "true",
    "x < 5",
    "y >= 1",
    "x != y",
    "not (x > 3)",
    "payload.v == 1",
    "x + y < 10",
    "subject == 'g1'",
)

#: Values and arguments read the beliefs and the record's triggering event.
_VALUES = (
    "1", "x + 1", "y", "x - 1", "'s'", "0", "x * 2", "payload.v", "subject", "payload.v + 1"
)
_ARGS = ("1", "payload.v", "subject", "payload.v + 1")


def random_plan_body(rng: random.Random) -> tuple:
    steps = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(8)
        if kind <= 1:
            steps.append(Act(KNOWN_ACTION, {}))
        elif kind == 2:
            steps.append(Act(UNKNOWN_ACTION, {}))
        elif kind <= 4:
            args = {"v": Expr(rng.choice(_ARGS))} if rng.random() < 0.5 else {}
            steps.append(Subgoal(rng.choice(GOALS), args))
        elif kind == 5:
            steps.append(Believe(rng.choice(BELIEF_KEYS), Expr(rng.choice(_VALUES))))
        elif kind == 6:
            steps.append(Unbelieve(rng.choice(BELIEF_KEYS)))
        else:
            steps.append(Send("peer", {"v": Expr(rng.choice(_ARGS))}))
    return tuple(steps)


def random_trigger(rng: random.Random):
    category = rng.choice(_EVENT_CATEGORIES)
    subject = rng.choice(GOALS + BELIEF_KEYS + (None, "g*"))
    payload = {"v": 1} if rng.random() < 0.2 else {}
    return pattern(category, subject, payload)


def random_program(rng: random.Random):
    """A small agent program: <=2 beliefs, <=3 plans, <=5 external events."""
    beliefs = {
        key: rng.choice([0, 1, 5, True, "sym"])
        for key in BELIEF_KEYS[: rng.randint(1, 2)]
    }
    plans = [
        Plan(
            plan_id=f"p{index}",
            trigger=random_trigger(rng),
            context=Expr(rng.choice(_CONTEXTS)),
            body=random_plan_body(rng),
        )
        for index in range(rng.randint(1, 3))
    ]
    events = []
    for _ in range(rng.randint(0, 5)):
        category = rng.choice(_EVENT_CATEGORIES)
        subject = rng.choice(GOALS + BELIEF_KEYS)
        payload = {"v": rng.choice([1, 2])} if rng.random() < 0.4 else {}
        events.append(TriggeringEvent(category, subject, payload))
    messages = []
    for _ in range(rng.randint(0, 2)):
        messages.append(Message("peer", "agent", {"v": rng.choice([1, 2])}))
    return beliefs, plans, events, messages


def instantiate(beliefs, plans, events, messages) -> AgentConfiguration:
    cfg = AgentConfiguration(
        "agent",
        beliefs=BeliefBase(dict(beliefs)),
        plans=PlanLibrary(list(plans)),
        actions={KNOWN_ACTION},
    )
    for te in events:
        post_external_event(cfg, te)
    for message in messages:
        cfg.mail.inbox.append(message)
    return cfg


@pytest.fixture
def idle_agent() -> AgentConfiguration:
    return AgentConfiguration("idle", plans=PlanLibrary(), actions=set())


@pytest.fixture
def scenario_a_path() -> Path:
    return SCENARIO_A


@pytest.fixture
def scenario_b_path() -> Path:
    return SCENARIO_B
