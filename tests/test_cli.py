"""CLI contract: subcommands, exit codes, output files, determinism."""

import hashlib
import json

import pytest

from coagent.cli import main

from tests.conftest import SCENARIO_A, SCENARIO_B


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestValidate:
    def test_valid_document(self, capsys):
        assert main(["validate", str(SCENARIO_A)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invariant_violation_exit_2(self, tmp_path, capsys):
        doc = {
            "name": "bad",
            "servers": [{"id": "s1", "capacity": 2, "preferred-min": 1}],
            "services": [
                {"id": f"v{i}", "type": "web", "initial-server": "s1"} for i in range(3)
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "exceed capacity" in err and "bad.json" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {
                    "name": "clash",
                    "brokers": 1,
                    "servers": [{"id": "broker-01", "capacity": 2, "preferred-min": 1}],
                    "services": [{"id": "v1", "type": "web", "initial-server": "broker-01"}],
                },
                "collides",
            ),
            (
                {
                    "name": "unplaceable",
                    "uniqueness-constraint": True,
                    "servers": [{"id": "s1", "capacity": 4, "preferred-min": 1}],
                    "services": [{"id": "v1", "type": "web"}, {"id": "v2", "type": "web"}],
                },
                "no legal placement",
            ),
        ],
    )
    def test_documents_run_rejects_fail_validation(self, doc, message, tmp_path, capsys):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "guard",
        ["-" * 1100 + "1", "+".join(["1"] * 3000)],
        ids=["unary-minus-1100", "sum-3000"],
    )
    def test_deeply_nested_guard_is_a_config_error(self, guard, tmp_path, capsys):
        doc = json.loads(SCENARIO_B.read_text())
        rule = {"observe": {"category": "belief-updated"}, "topic": "alerts", "guard": guard}
        doc["endpoints"] = [{"process-id": "alerts", "role": "broker", "publication-rules": [rule]}]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nests too deeply" in err and "publication-rules[0].guard" in err
        assert "Traceback" not in err


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--scenario", str(SCENARIO_A), "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "quiescence tick:" in stdout and "total moves:" in stdout

    def test_identical_seed_identical_bytes(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(SCENARIO_A), "--seed", "7", "--out", str(first)]) == 0
        assert main(["run", "--scenario", str(SCENARIO_A), "--seed", "7", "--out", str(second)]) == 0
        assert sha(first / "trace.csv") == sha(second / "trace.csv")

    def test_ticks_zero_header_only_csv_null_quiescence(self, tmp_path):
        out = tmp_path / "zero"
        assert main(["run", "--scenario", str(SCENARIO_A), "--ticks", "0", "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("tick,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["quiescence-tick"] is None

    def test_refuses_overwrite_without_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(SCENARIO_A), "--out", str(out)]) == 0
        assert main(["run", "--scenario", str(SCENARIO_A), "--out", str(out)]) == 3
        assert "overwrite" in capsys.readouterr().err
        assert (
            main(["run", "--scenario", str(SCENARIO_A), "--out", str(out), "--overwrite"])
            == 0
        )

    def test_no_outputs_written_on_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed, code", [(1, 0), (0, 2)])
    def test_seed_option_is_the_seed_validated(self, seed, code, tmp_path, capsys):
        # The greedy initial placement draws with the seed: seed 1 places c,
        # seed 0 (the document's) does not.
        doc = {
            "name": "seeded",
            "seed": 0,
            "ticks": 5,
            "uniqueness-constraint": True,
            "servers": [
                {"id": "s1", "capacity": 2, "preferred-min": 1},
                {"id": "s2", "capacity": 1, "preferred-min": 1},
            ],
            "services": [{"id": "a", "type": "x"}, {"id": "b", "type": "y"}, {"id": "c", "type": "y"}],
        }
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["run", "--scenario", str(path), "--seed", str(seed), "--out", str(out)]
        assert main(args) == code
        if code == 0:
            assert (out / "trace.csv").exists() and (out / "summary.json").exists()
        else:
            assert "no legal placement for service 'c'" in capsys.readouterr().err
            assert not out.exists()

    def test_agent_log_emission(self, tmp_path):
        out = tmp_path / "log"
        code = main(
            [
                "run",
                "--scenario",
                str(SCENARIO_A),
                "--out",
                str(out),
                "--emit",
                "agent-log",
            ]
        )
        assert code == 0
        lines = (out / "agent-log.jsonl").read_text().splitlines()
        agents = [json.loads(line)["agent"] for line in lines]
        assert agents == sorted(agents)
        assert not (out / "trace.csv").exists()  # only the requested artifact

    @pytest.mark.parametrize("scenario", [SCENARIO_A, SCENARIO_B], ids=lambda path: path.stem)
    def test_agent_log_leaves_trace_and_summary_unchanged(self, scenario, tmp_path):
        # Observation records are kept only for the agent log; leaving it out
        # must not change any other output.
        outputs = {}
        for name, extra in (("plain", []), ("logged", ["--emit", "agent-log"])):
            out = tmp_path / name
            emit = ["--emit", "trace-csv", "--emit", "summary-json", *extra]
            args = ["run", "--scenario", str(scenario), "--seed", "3", "--out", str(out)]
            assert main([*args, *emit]) == 0
            outputs[name] = [(out / f).read_bytes() for f in ("trace.csv", "summary.json")]
        assert not (tmp_path / "plain" / "agent-log.jsonl").exists()
        assert outputs["plain"] == outputs["logged"]

    def test_csv_column_contract(self, tmp_path):
        out = tmp_path / "contract"
        assert main(["run", "--scenario", str(SCENARIO_B), "--out", str(out)]) == 0
        header = (out / "trace.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "tick"
        server_cols = [c for c in header if c.startswith("server:")]
        type_cols = [c for c in header if c.startswith("type:")]
        assert len(server_cols) == 10 and len(type_cols) == 5
        # Column family order: tick, servers, types, underloaded, moves, pubs.
        assert header.index("underloaded") > header.index(server_cols[-1])
        assert header.index("moves") == header.index("underloaded") + 1
        assert header.index("pub:capacity") > header.index("moves")


class TestOracle:
    @pytest.fixture
    def program_path(self, tmp_path):
        doc = {
            "name": "demo",
            "beliefs": {"x": 0},
            "actions": ["ping"],
            "plans": [
                {
                    "id": "p1",
                    "trigger": {"category": "goal-added", "subject": "g"},
                    "body": [
                        {"do": "believe", "key": "x", "value": "x + 1"},
                        {"do": "act", "name": "ping"},
                    ],
                }
            ],
            "events": [{"category": "goal-added", "subject": "g"}],
        }
        path = tmp_path / "program.json"
        path.write_text(json.dumps(doc))
        return path

    def test_prints_snapshot_per_cycle(self, program_path, capsys):
        assert main(["oracle", str(program_path), "--cycles", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["cycle"] == 0 and "beliefs" in first["state"]

    def test_compare_agrees(self, program_path, capsys):
        assert main(["oracle", str(program_path), "--cycles", "5", "--compare"]) == 0
        assert "agree" in capsys.readouterr().err

    def test_schema_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "prog.json"
        path.write_text(json.dumps({"plans": [{"id": "p"}]}))
        assert main(["oracle", str(path)]) == 2
        assert "prog.json" in capsys.readouterr().err

    def test_reserved_believe_key_exit_2(self, program_path, capsys):
        doc = json.loads(program_path.read_text())
        doc["plans"][0]["body"][0]["key"] = "payload"
        program_path.write_text(json.dumps(doc))
        assert main(["oracle", str(program_path), "--compare"]) == 2
        err = capsys.readouterr().err
        assert "body[0].key" in err and "reserved" in err and "Traceback" not in err

    def test_module_programs_rejected(self, tmp_path, capsys):
        doc = {
            "name": "m",
            "modules": [{"id": "m1"}],
        }
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 2
        assert "modules" in capsys.readouterr().err
