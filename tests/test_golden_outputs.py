"""Golden outputs: both bundled scenarios at seed 3 give pinned bytes.

A changed digest is a change in observable behaviour: a speed-up or a
refactor must leave these untouched.
"""

import hashlib

import pytest

from coagent.cli import main

from tests.conftest import SCENARIO_A, SCENARIO_B

GOLDEN = {
    SCENARIO_A: {
        "trace.csv": "ca0341c2657fc1adc9d3123091ca235cff9b3e4920725ed4f270341794fbcb2d",
        "summary.json": "8cadb08b016f382e9082e06a16aeb3b850e26bdc965196d18dceef8b69fffd5e",
        "agent-log.jsonl": "b33d60c799314b272352fbd5dcab8d04dcec64bc042d19716c719e130f175980",
    },
    SCENARIO_B: {
        "trace.csv": "d93a36e3acc71c9db7ce7df2b812b4588feca5a460faebf36a349a313c775880",
        "summary.json": "d9631bf1b010faae1a693dcb4e33519cf7017a189a0ba146bc99640a5f6ca720",
        "agent-log.jsonl": "5f27d9e591198881aa2223922dd03b75cbccdd33fb0ca33ee05a49fc2690b4c2",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN), ids=lambda path: path.stem)
def test_seed_3_outputs_match_pinned_digests(scenario, tmp_path):
    emit = ["--emit", "trace-csv", "--emit", "summary-json", "--emit", "agent-log"]
    args = ["run", "--scenario", str(scenario), "--seed", "3", "--out", str(tmp_path), *emit]
    assert main(args) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[scenario]
    }
    assert digests == GOLDEN[scenario]
