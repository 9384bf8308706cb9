"""Command-line entry point: validate and run scenarios, drive the oracle.

Exit codes: 0 success, 2 configuration error, 3 I/O error.  No output files
are written when validation fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from coagent.bdi.interpreter import post_external_event, run_cycle
from coagent.bdi.reference import reference_cycle
from coagent.loader import (
    ConfigError,
    build_agent,
    load_agent_program,
    load_scenario,
    parse_scenario,
    read_json,
)
from coagent.scenarios import (
    build_scenario,
    run_simulation,
    summary,
    trace_columns,
    trace_rows,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

EMIT_CHOICES = ("trace-csv", "summary-json", "agent-log")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coagent",
        description="BDI agent runtime with coordination media: scenario simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write trace/summary files")
    run.add_argument("--scenario", required=True, help="path to a scenario document")
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="simulation seed (default: the document's seed)",
    )
    run.add_argument("--ticks", type=int, default=None, help="override the tick count")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument(
        "--emit",
        action="append",
        choices=EMIT_CHOICES,
        default=None,
        help="artifacts to write (repeatable; default: trace-csv and summary-json)",
    )
    run.add_argument(
        "--overwrite", action="store_true", help="allow overwriting existing output files"
    )

    validate = sub.add_parser("validate", help="load and validate a scenario document")
    validate.add_argument("scenario", help="path to a scenario document")

    oracle = sub.add_parser(
        "oracle",
        help="run the brute-force reference interpreter on an agent program",
    )
    oracle.add_argument("program", help="path to an agent program document")
    oracle.add_argument("--cycles", type=int, default=20, help="reasoning cycles to run")
    oracle.add_argument(
        "--compare",
        action="store_true",
        help="also run the main interpreter and fail on any trace divergence",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    """Run a scenario and write its outputs.

    ``--seed`` and ``--ticks`` are written into the document before it is
    parsed, so the config checks them and places its services with that
    seed; a document it refuses writes no file.
    """
    emit = tuple(args.emit) if args.emit else ("trace-csv", "summary-json")
    try:
        doc = read_json(args.scenario)
        if isinstance(doc, dict):
            given = {"seed": args.seed, "ticks": args.ticks}
            doc = {**doc, **{key: value for key, value in given.items() if value is not None}}
        config = parse_scenario(doc, args.scenario)
        state = build_scenario(config, agent_log="agent-log" in emit)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    targets = {
        "trace-csv": out_dir / "trace.csv",
        "summary-json": out_dir / "summary.json",
        "agent-log": out_dir / "agent-log.jsonl",
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if not args.overwrite:
            for kind in emit:
                if targets[kind].exists():
                    print(
                        f"error: {targets[kind]} exists; pass --overwrite to replace it",
                        file=sys.stderr,
                    )
                    return EXIT_IO
    except OSError as exc:
        print(f"error: cannot prepare output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    run_simulation(state, config.ticks)
    run_summary = summary(state)

    try:
        if "trace-csv" in emit:
            with targets["trace-csv"].open("w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(trace_columns(state))
                writer.writerows(trace_rows(state))
        if "summary-json" in emit:
            targets["summary-json"].write_text(
                json.dumps(run_summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        if "agent-log" in emit:
            with targets["agent-log"].open("w", encoding="utf-8") as handle:
                for agent_id, cfg in state.agents.items():
                    record = {"agent": agent_id, "observations": cfg.observations}
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"quiescence tick: {run_summary['quiescence-tick']}")
    print(f"total moves: {run_summary['total-moves']}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        config = load_scenario(args.scenario)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"OK: {config.name} ({len(config.servers)} servers, "
        f"{len(config.services)} services, {config.brokers} brokers, "
        f"{config.ticks} ticks)"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        program = load_agent_program(args.program)
        if args.cycles < 0:
            raise ConfigError(f"{args.program}: cycles must be >= 0")
        if program.modules:
            raise ConfigError(
                f"{args.program}: the reference interpreter covers plain agents; "
                "remove the modules section"
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    reference = build_agent(program)
    for te in program.events:
        post_external_event(reference, te)
    twin = None
    if args.compare:
        twin = build_agent(program)
        for te in program.events:
            post_external_event(twin, te)

    for cycle in range(args.cycles):
        reference_cycle(reference)
        line = {"cycle": cycle, "state": reference.snapshot()}
        print(json.dumps(line, sort_keys=True))
        if twin is not None:
            run_cycle(twin)
            if twin.snapshot_json() != reference.snapshot_json():
                print(
                    f"divergence at cycle {cycle}: main interpreter disagrees "
                    "with the reference",
                    file=sys.stderr,
                )
                return 1
    if twin is not None:
        print("main interpreter and reference agree", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "oracle":
        return _cmd_oracle(args)
    raise AssertionError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
