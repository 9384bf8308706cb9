"""Invariant checkers shared by the unit tests and the acceptance suite."""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable

from coagent.bdi.config import AgentConfiguration, Step
from coagent.bdi.events import TOP
from coagent.bdi.interpreter import reasoning_step, run_cycle
from coagent.bdi.reference import reference_cycle, reference_step
from coagent.scenarios import ScenarioConfig, SimulationState, TraceRecord

from tests.conftest import instantiate, random_program


def run_traced(cfg: AgentConfiguration, steps: int, stepper=reasoning_step) -> list[str]:
    """Step an agent, collecting a canonical snapshot after every transition."""
    trace = [cfg.snapshot_json()]
    for _ in range(steps):
        stepper(cfg)
        trace.append(cfg.snapshot_json())
    return trace


def check_structural_invariants(cfg: AgentConfiguration) -> None:
    """Configuration-level invariants that must hold after every step."""
    seqs = [event.seq for event in cfg.circumstance.events]
    assert seqs == sorted(seqs), "event sequence numbers out of order"
    assert len(seqs) == len(set(seqs)), "duplicate sequence numbers"
    queued = Counter()
    for event in cfg.circumstance.events:
        if event.intention is not TOP:
            assert event.intention in cfg.circumstance.intentions, (
                "event references a missing intention"
            )
            queued[event.intention] += 1
    for iid in cfg.circumstance.intentions.keys() | cfg.circumstance.pending.keys():
        assert cfg.circumstance.pending.get(iid, 0) == queued[iid], (
            f"pending count of intention {iid} differs from its queued events"
        )
    for intention in cfg.circumstance.intentions.values():
        assert intention.stack, "empty intention left in the circumstance"
        for record in intention.stack:
            body = cfg.plans.by_id[record.plan_id].body
            assert 0 <= record.pc <= len(body), "program counter out of range"
    if cfg.step is Step.SEL_APPL:
        assert set(cfg.temp.applicable) <= set(cfg.temp.relevant), "Ap not within R"


def same_snapshot(a, b) -> bool:
    """Type-strict structural equality of two ``snapshot()`` values.

    At least as strict as comparing their canonical JSON text: the same key
    sets, the same list lengths and order, ``type(a) is type(b)`` at every
    node (no bool/int/float or tuple/list coercion), and float leaves
    compared by ``repr``, so ``-0.0`` and ``0.0`` still differ.

    Equal ``repr`` texts settle it without a walk: over the JSON types a
    snapshot holds, ``repr`` tells list from tuple, bool from int, int from
    float and ``-0.0`` from ``0.0``.  Otherwise the walk decides, since the
    texts also differ when only dict key order does; it raises
    ``TypeError`` on a key or leaf that is not a JSON type.
    """
    return repr(a) == repr(b) or _same_structure(a, b)


def _same_structure(a, b) -> bool:
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is dict:
        if any(type(key) is not str for key in a):
            raise TypeError(f"snapshot key is not a str: {a!r}")
        return a.keys() == b.keys() and all(_same_structure(a[key], b[key]) for key in a)
    if kind is list or kind is tuple:
        return len(a) == len(b) and all(map(_same_structure, a, b))
    if kind is float:
        return repr(a) == repr(b)
    if kind in (str, int, bool) or a is None:
        return a == b
    raise TypeError(f"snapshot leaf of type {kind.__name__}: {a!r}")


def assert_lockstep(
    left: AgentConfiguration,
    right: AgentConfiguration,
    steps: int,
    left_step=reasoning_step,
    right_step=reasoning_step,
    label: str = "",
) -> None:
    """Step two agents together, comparing snapshots after every step.

    Snapshots are compared with ``same_snapshot``; JSON is rendered only for
    the failure message.
    """
    for index in range(steps):
        left_step(left)
        right_step(right)
        if not same_snapshot(left.snapshot(), right.snapshot()):
            raise AssertionError(
                f"{label}divergence at step {index}\n"
                f"left : {left.snapshot_json()}\nright: {right.snapshot_json()}"
            )


def equivalence_run(seed: int, cycles: int = 20) -> None:
    """One randomized main-vs-reference comparison; raises on divergence.

    Two pairs of twins run the same program: one pair is compared after every
    transition (``reasoning_step``), the other after every full cycle
    (``run_cycle`` against ``reference_cycle``), because the two drivers
    reach the transitions by separate code.  Snapshots are compared with
    ``same_snapshot``; JSON is rendered only for the failure message.
    """
    rng = random.Random(seed)
    program = random_program(rng)
    main = instantiate(*program)
    ref = instantiate(*program)
    cycled = instantiate(*program)
    ref_cycled = instantiate(*program)
    for cycle_index in range(cycles):
        run_cycle(cycled)
        reference_cycle(ref_cycled)
        check_structural_invariants(cycled)
        if not same_snapshot(cycled.snapshot(), ref_cycled.snapshot()):
            raise AssertionError(
                f"seed {seed}: divergence after cycle {cycle_index}\n"
                f"main: {cycled.snapshot_json()}\nref : {ref_cycled.snapshot_json()}"
            )
    for step_index in range(cycles * 9):
        reasoning_step(main)
        reference_step(ref)
        check_structural_invariants(main)
        if not same_snapshot(main.snapshot(), ref.snapshot()):
            raise AssertionError(
                f"seed {seed}: divergence after step {step_index}\n"
                f"main: {main.snapshot_json()}\nref : {ref.snapshot_json()}"
            )


def type_counts(record: TraceRecord, types: Iterable[str]) -> dict[str, int]:
    """Per service type in ``types``, how many services of it the record's
    deployment map holds."""
    counts = Counter(
        service_type for deployed in record.deployments.values() for service_type in deployed
    )
    return {service_type: counts[service_type] for service_type in types}


def check_trace_safety(trace: list[TraceRecord], config: ScenarioConfig) -> None:
    """Conservation, capacity safety, uniqueness safety, and the underloaded
    count at every tick."""
    capacities = {server.server_id: server.capacity for server in config.servers}
    preferred = {server.server_id: server.preferred_min for server in config.servers}
    total_services = len(config.services)
    for record in trace:
        underloaded = sum(
            0 < len(types) < preferred[server_id] for server_id, types in record.deployments.items()
        )
        assert record.underloaded == underloaded, f"tick {record.tick}: underloaded miscounted"
        deployed = sum(len(types) for types in record.deployments.values())
        assert deployed == total_services, f"tick {record.tick}: conservation violated"
        for server_id, types in record.deployments.items():
            assert len(types) <= capacities[server_id], (
                f"tick {record.tick}: capacity exceeded on {server_id}"
            )
            if config.uniqueness_constraint:
                assert len(set(types)) == len(types), (
                    f"tick {record.tick}: duplicate type on {server_id}"
                )


def first_capacity_delivery_tick(state: SimulationState) -> int | None:
    """The first tick at which a capacity publication can have been delivered."""
    latency = state.media["capacity"].latency
    for record in state.trace:
        if record.publications.get("capacity", 0) > 0:
            return record.tick + latency
    return None
