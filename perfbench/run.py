"""Scenario-simulation benchmark for coagent.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seeded generator (``gen.py``) writes one
scenario document for the workload; every repetition then runs it through
the public pipeline in a fresh process (``repetition.py``) and is checked
against the recorded outputs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and sample count.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:
host times from repetitions that drive ``run_simulation`` one tick per call,
each scaled to a reference host speed by calibration work timed next to
it.  Every repetition's ``trace.csv`` digest must equal the recorded one,
which a single ``run_simulation`` call for all ticks made; a seed without
recorded outputs starts with such a call and is checked against it.  With
``--trace 1`` untraced repetitions alternate with traced ones, and the
metrics are the per-layer ones, in unscaled host time.  The run is a batch simulation from one
process: no arrival process, no extra threads.

The simulated model has no real-system reference, so the benchmark reports
no accuracy figure; the simulated totals it prints are outputs to check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

RECORDED = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench"
#: Host seconds the calibration work of ``repetition.py`` takes at the
#: reference speed, between the slower and the faster speed of a 2-vCPU Xeon
#: VM shared with other tenants.  An end-to-end time ``t`` measured next to a
#: calibration sample ``c`` reports as ``t * REFERENCE_CALIBRATION_S / c``.
REFERENCE_CALIBRATION_S = 0.0012
#: No repetition may run longer than this; the whole run ends well within
#: three minutes even when the last repetition starts late.
CHILD_TIMEOUT_S = 120.0
STAT_KEYS = (
    "total-moves",
    "total-rejected-moves",
    "total-switches",
    "total-rejected-switches",
    "quiescence-tick",
)


class RepetitionError(RuntimeError):
    """A repetition raised, timed out or printed no result."""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layout_error() -> str | None:
    """Why this checkout cannot run the benchmark, or None."""
    if not (ROOT / "src" / "coagent" / "__init__.py").is_file():
        return f"no coagent sources under {ROOT / 'src'}; run from a full checkout"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json in {ROOT}"
    return None


def run_child(doc_text: str, mode: str, timeout: float, spans: Path | None = None) -> dict:
    """Run one repetition in a fresh process and return its result object."""
    command = [sys.executable, str(HERE / "repetition.py"), mode]
    if spans is not None:
        command.append(str(spans))
    try:
        proc = subprocess.run(
            command, input=doc_text, capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"{mode} repetition exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RepetitionError(f"{mode} repetition exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def output_mismatches(result: dict, reference: dict) -> list[str]:
    """Differences between a repetition's outputs and the reference outputs."""
    problems = []
    if result["digest"] != reference["digest"]:
        problems.append(
            f"trace.csv sha256 {result['digest'][:16]}... != {reference['digest'][:16]}..."
        )
    for key in STAT_KEYS:
        if result["stats"].get(key) != reference["stats"].get(key):
            problems.append(f"{key} {result['stats'].get(key)} != {reference['stats'].get(key)}")
    return problems


def recorded_outputs(workload: str, seed: int) -> dict | None:
    if not RECORDED.is_file():
        return None
    return json.loads(RECORDED.read_text()).get(workload, {}).get(str(seed))


def _quantile(values: list[float], share: float) -> float:
    """Nearest-rank quantile: 200 samples leave 10 beyond p95."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """The repetitions of one benchmark invocation and their checks."""

    def __init__(self, workload: str, seed: int, doc_text: str | None = None):
        self.workload = workload
        self.seed = seed
        self.doc_text = doc_text if doc_text is not None else gen.document_text(workload, seed)
        self.recorded = recorded_outputs(workload, seed) if doc_text is None else None
        self.reference = self.recorded
        self.results: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0

    def attempt(self, mode: str, timeout: float, spans: Path | None = None) -> float:
        """Run and check one repetition; returns its host duration."""
        self.attempted += 1
        start = time.monotonic()
        try:
            result = run_child(self.doc_text, mode, timeout, spans)
        except (RepetitionError, json.JSONDecodeError) as exc:
            self.failures.append(str(exc))
            return time.monotonic() - start
        problems = list(result.get("errors", []))
        if self.reference is None and mode == "single":
            self.reference = result
        elif self.reference is None:
            problems.append("no reference outputs to check against")
        else:
            problems += output_mismatches(result, self.reference)
        if problems:
            self.failures.append(f"{mode} repetition: " + "; ".join(problems))
        else:
            self.results.append(result)
        return time.monotonic() - start

    @property
    def failed(self) -> int:
        return len(self.failures)

    def of(self, *modes: str) -> list[dict]:
        return [result for result in self.results if result["mode"] in modes]


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Repeat until the next repetition would end after ``seconds``.

    A seed without recorded outputs starts with a single ``run_simulation``
    call, whose outputs the later repetitions must reproduce; the recorded
    outputs were made by such a call.  At least one repetition of each other
    mode always runs.
    """
    start = time.monotonic()
    cycle = ["traced", "ticks"] if trace else ["ticks"]
    first = ["single"] if run.reference is None else []
    durations: dict[str, float] = {}
    for index, mode in enumerate(itertools.chain(first, itertools.cycle(cycle))):
        elapsed = time.monotonic() - start
        if index >= len(first) + len(cycle):
            estimate = durations.get(mode, max(durations.values()))
            if elapsed + estimate > seconds or elapsed > CHILD_TIMEOUT_S:
                return
        spans = SPANS_DIR / f"spans-{run.workload}" if mode == "traced" else None
        durations[mode] = run.attempt(mode, max(10.0, CHILD_TIMEOUT_S - elapsed), spans)


def _scaled(host_s: float, calibration_s: float) -> float:
    """A host time scaled to the reference speed."""
    return host_s * REFERENCE_CALIBRATION_S / calibration_s


def end_to_end(run: Run) -> dict[str, tuple[float, str, str]]:
    """Metric -> (value, unit, how it was sampled), from the tick-driven repetitions.

    Every time is scaled to the reference speed by the calibration sample
    taken next to it (see ``repetition.py``).
    """
    ticked = run.of("ticks")
    setups = [
        _scaled(host, cal) for r in ticked for host, cal in zip(r["setup_s"], r["setup_cal_s"])
    ]
    tick_ms = [
        [1000 * _scaled(host, cal) for host, cal in zip(r["tick_s"], r["tick_cal_s"])]
        for r in ticked
    ]
    simulate_s = [sum(samples) / 1000 for samples in tick_ms]
    run_s = [
        _scaled(r["setup_s"][0], r["setup_cal_s"][0])
        + simulate
        + _scaled(r["emit_s"], r["emit_cal_s"])
        for r, simulate in zip(ticked, simulate_s)
    ]
    cycles = [r["agents"] * r["ticks"] / simulate for r, simulate in zip(ticked, simulate_s)]
    tick_samples = sum(len(samples) for samples in tick_ms)
    reps = f"median of {len(ticked)} repetitions"
    per_tick = f"median over {len(ticked)} repetitions of {tick_samples} tick samples"
    return {
        "agent_cycles_per_s": (_median(cycles), "cycles/s", reps),
        "run_s": (_median(run_s), "s", reps),
        "setup_s": (_median(setups), "s", f"median of {len(setups)} set-ups"),
        "tick_ms.p50": (_median([_quantile(s, 0.50) for s in tick_ms]), "ms", per_tick),
        "tick_ms.p95": (_median([_quantile(s, 0.95) for s in tick_ms]), "ms", per_tick),
        "peak_rss_mb": (_median([r["maxrss_kib"] / 1024 for r in ticked]), "MiB", reps),
        "runs_failed": (
            run.failed / run.attempted,
            "ratio",
            f"{run.failed} of {run.attempted} repetitions",
        ),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str, str]]:
    """Metric -> (value, unit, how it was sampled), from the traced repetitions."""
    traced = run.of("traced")
    untraced = run.of("single", "ticks")
    units = {metric["name"]: metric["unit"] for metric in benchmark_spec()["per_layer"]}
    how = f"median of {len(traced)} traced repetitions"
    metrics = {
        name: (_median([r["layers"][name] for r in traced]), unit, how)
        for name, unit in units.items()
        if name != "trace.overhead"
    }
    traced_run = _median([r["run_s"] for r in traced])
    untraced_run = _median([r["run_s"] for r in untraced])
    metrics["trace.overhead"] = (
        traced_run / untraced_run if untraced_run else 0.0,
        units["trace.overhead"],
        f"traced run_s {traced_run:.4f} s over untraced run_s {untraced_run:.4f} s "
        f"({len(traced)} and {len(untraced)} repetitions)",
    )
    return metrics


def report(run: Run, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""
    reference = run.reference or {}
    print(
        f"perfbench {run.workload} seed={run.seed} trace={int(trace)}: "
        f"{reference.get('agents', '?')} agents x {reference.get('ticks', '?')} ticks; "
        "the model has no real-system reference, so no accuracy figure is reported"
    )
    if reference:
        stats = " ".join(f"{key}={reference['stats'][key]}" for key in STAT_KEYS)
        print(f"simulated (checked, not metrics): {stats} trace.csv sha256={reference['digest']}")
    source = (
        f"the outputs recorded for seed {run.seed}"
        if run.recorded
        else "this run's single-call repetition (seed not recorded)"
    )
    print(f"output check: {len(run.results)} of {run.attempted} repetitions match {source}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics = per_layer(run) if trace else end_to_end(run)
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit:9s} {how}")
    listed = benchmark_spec()["per_layer" if trace else "end_to_end"]
    return {
        "correct": run.failed == 0 and bool(run.results),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]][0], "unit": metric["unit"]}
            for metric in listed
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = layout_error()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    measure(run, args.seconds, bool(args.trace))
    result = report(run, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
