"""One repetition of a workload, run in a fresh process.

Usage: ``python3 perfbench/repetition.py MODE [SPANS_PATH] < document.json``

The scenario document arrives on standard input; one JSON result object is
printed on standard output.  MODE selects how the simulation is driven:

* ``single`` -- one ``run_simulation(state, ticks, seed)`` call;
* ``ticks``  -- ``run_simulation(state, 1)`` once per tick, with the seed
  passed on the first call only, timing every tick;
* ``traced`` -- like ``ticks``, with the layer wrappers of ``tracing``
  installed before set-up and removed afterwards.

Every mode runs the public pipeline ``parse_scenario`` -> ``build_scenario``
-> ``run_simulation`` -> ``trace_columns``/``trace_rows``/``summary`` and
returns the SHA-256 of the ``trace.csv`` text the command line would write,
with the simulated totals the output check compares.

Untraced repetitions also time a fixed piece of calibration work, which runs
no coagent code, right after every tick and around every set-up and emission.
Its time follows the host's speed, which other tenants' load moves by up to
half again for minutes at a time; ``run.py`` scales each host time by it to
the reference speed.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from coagent.loader import parse_scenario  # noqa: E402
from coagent.scenarios import (  # noqa: E402
    build_scenario,
    run_simulation,
    summary,
    trace_columns,
    trace_rows,
)
from tracing import Tracer, accounting_errors, layer_metrics  # noqa: E402

#: Extra timed set-ups per untraced repetition, after the simulated one.
EXTRA_SETUPS = 2
#: Calibration work: iterations of an arithmetic loop, then lookups in a
#: table of ``CALIBRATION_KEYS`` string keys in an order that defeats the CPU
#: caches.  Neighbours' load slows the simulation's scattered heap more than
#: the loop and less than the lookups; together they track it.
CALIBRATION_LOOPS = 7_000
CALIBRATION_LOOKUPS = 1_700
CALIBRATION_KEYS = 100_000

STAT_KEYS = (
    "total-moves",
    "total-rejected-moves",
    "total-switches",
    "total-rejected-switches",
    "quiescence-tick",
)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Calibrator:
    """Fixed pure-Python work whose host time follows the host's speed."""

    def __init__(self):
        before = _maxrss_kib()
        keys = [f"key-{index}" for index in range(CALIBRATION_KEYS)]
        self.table = dict.fromkeys(keys, 1)
        random.Random(0).shuffle(keys)
        self.order = keys
        self.position = 0
        #: What the table adds to the peak resident set of a fresh process.
        self.footprint_kib = _maxrss_kib() - before

    def sample(self) -> float:
        """Host seconds one pass of the calibration work takes just now."""
        start = perf_counter()
        total = 0
        for value in range(CALIBRATION_LOOPS):
            total += value * value % 7
        table, first = self.table, self.position
        for key in self.order[first : first + CALIBRATION_LOOKUPS]:
            total += table[key]
        self.position = (first + CALIBRATION_LOOKUPS) % len(self.order)
        return perf_counter() - start

    def around(self, measure):
        """Time ``measure()`` between two calibration samples.

        Returns its result, its host seconds and the mean of the two samples.
        """
        before = self.sample()
        start = perf_counter()
        result = measure()
        host_s = perf_counter() - start
        return result, host_s, (before + self.sample()) / 2


def setup(doc: dict):
    """Parse and build the scenario."""
    return build_scenario(parse_scenario(doc))


def emit(state, rows=trace_rows) -> tuple[str, str]:
    """The ``trace.csv`` and ``summary.json`` texts, written to memory."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(trace_columns(state))
    writer.writerows(rows(state))
    summary_text = json.dumps(summary(state), indent=2, sort_keys=True) + "\n"
    return buffer.getvalue(), summary_text


def digest(trace_csv: str) -> str:
    return hashlib.sha256(trace_csv.encode("utf-8")).hexdigest()


def _outputs(state, trace_csv: str, summary_text: str) -> dict:
    run_summary = json.loads(summary_text)
    return {
        "agents": len(state.agents),
        "ticks": len(state.trace),
        "digest": digest(trace_csv),
        "stats": {key: run_summary[key] for key in STAT_KEYS},
    }


def _drive_ticks(state, ticks: int, seed: int, step=run_simulation, after_tick=None) -> list[float]:
    """Run one tick per ``step`` call; returns each call's host time."""
    times = []
    for tick in range(ticks):
        start = perf_counter()
        step(state, 1, seed if tick == 0 else None)
        times.append(perf_counter() - start)
        if after_tick is not None:
            after_tick()
    return times


def untraced(doc: dict, mode: str, extra_setups: int = EXTRA_SETUPS) -> dict:
    """A ``single`` or ``ticks`` repetition.

    Every host time comes with the calibration time taken next to it: one
    sample after each tick, the mean of the samples around each set-up and
    the emission.  The peak resident set leaves out the calibration table.
    """
    calibrator = Calibrator()
    state, setup_s, setup_cal = calibrator.around(lambda: setup(doc))
    ticks, seed = state.config.ticks, state.config.seed
    tick_s: list[float] = []
    tick_cal: list[float] = []
    if mode == "single":
        start = perf_counter()
        run_simulation(state, ticks, seed)
        simulate_s = perf_counter() - start
    elif mode == "ticks":
        tick_s = _drive_ticks(
            state, ticks, seed, after_tick=lambda: tick_cal.append(calibrator.sample())
        )
        simulate_s = sum(tick_s)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    (trace_csv, summary_text), emit_s, emit_cal = calibrator.around(lambda: emit(state))
    result = {
        "mode": mode,
        "setup_s": [setup_s],
        "setup_cal_s": [setup_cal],
        "simulate_s": simulate_s,
        "emit_s": emit_s,
        "emit_cal_s": emit_cal,
        "run_s": setup_s + simulate_s + emit_s,
        "tick_s": tick_s,
        "tick_cal_s": tick_cal,
        "maxrss_kib": _maxrss_kib() - calibrator.footprint_kib,
    }
    result.update(_outputs(state, trace_csv, summary_text))
    del state
    for _ in range(extra_setups):
        gc.collect()
        state, setup_s, setup_cal = calibrator.around(lambda: setup(doc))
        result["setup_s"].append(setup_s)
        result["setup_cal_s"].append(setup_cal)
        del state
    return result


def traced(doc: dict, spans_path: Path | None = None) -> dict:
    """A ``traced`` repetition: per-layer metrics from spans and public state."""
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        config = tracer.wrap("parse_scenario", parse_scenario)(doc)
        state = tracer.wrap("build_scenario", build_scenario)(config)
        setup_s = perf_counter() - start
        result = traced_simulation(tracer, state)
    finally:
        tracer.restore()
    result["setup_s"] = [setup_s]
    result["run_s"] += setup_s
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return result


def traced_simulation(tracer: Tracer, state) -> dict:
    """Drive a built state tick by tick under ``tracer`` and emit its outputs."""
    ticks, seed = state.config.ticks, state.config.seed
    samples = {"queue_depth_max": 0, "queue_depth_end_sum": 0, "in_flight_max": 0}
    agents = [state.agents[agent_id] for agent_id in state.agent_order]
    media = list(state.media.values())

    def sample() -> None:
        # Public state between ticks, outside every span and tick time.
        depths = [len(cfg.circumstance.events) for cfg in agents]
        samples["queue_depth_max"] = max(samples["queue_depth_max"], max(depths))
        samples["queue_depth_end_sum"] += sum(depths)
        in_flight = sum(len(medium.in_flight) for medium in media)
        samples["in_flight_max"] = max(samples["in_flight_max"], in_flight)

    tick_s = _drive_ticks(state, ticks, seed, tracer.wrap("tick", run_simulation), sample)
    start = perf_counter()
    trace_csv, summary_text = emit(state, tracer.wrap("trace_rows", trace_rows))
    emit_s = perf_counter() - start
    samples.update(
        ticks=ticks,
        agents=len(state.agents),
        media=len(state.media),
        moves=sum(record.moves for record in state.trace),
        rejected_moves=sum(record.rejected_moves for record in state.trace),
        switches=sum(record.switches for record in state.trace),
        rejected_switches=sum(record.rejected_switches for record in state.trace),
        observations=sum(len(cfg.observations) for cfg in agents),
        simulate_s=sum(tick_s),
    )
    metrics = layer_metrics(tracer, samples)
    result = {
        "mode": "traced",
        "simulate_s": sum(tick_s),
        "emit_s": emit_s,
        "run_s": sum(tick_s) + emit_s,
        "tick_s": tick_s,
        "maxrss_kib": _maxrss_kib(),
        "layers": metrics,
        "errors": accounting_errors(tracer, metrics, samples),
    }
    result.update(_outputs(state, trace_csv, summary_text))
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    doc = json.loads(sys.stdin.read())
    if mode == "traced":
        result = traced(doc, Path(argv[1]) if len(argv) > 1 else None)
    else:
        result = untraced(doc, mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
