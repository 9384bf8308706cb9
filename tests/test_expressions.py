"""Expression language: parsing, evaluation, and totality rules."""

import pytest

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.expressions import (
    Env,
    Expr,
    ExpressionEvalError,
    ExpressionSyntaxError,
    UNDEFINED,
)


def ev(source, names=None, payload=None, subject=None):
    return Expr(source).evaluate(Env(names=names, payload=payload, subject=subject))


def cond(source, names=None, payload=None, subject=None):
    return Expr(source).as_condition(Env(names=names, payload=payload, subject=subject))


class TestParsing:
    def test_literals(self):
        assert ev("3") == 3
        assert ev("2.5") == 2.5
        assert ev("'sym'") == "sym"
        assert ev("true") is True
        assert ev("false") is False

    def test_arithmetic(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 / 4") == 2.5
        assert ev("-x", names={"x": 3}) == -3

    def test_belief_and_payload_references(self):
        assert ev("deployed", names={"deployed": 4}) == 4
        assert ev("payload.server", payload={"server": "s1"}) == "s1"
        assert ev("subject", subject="deployed") == "deployed"

    def test_functions(self):
        assert ev("abs(0 - 5)") == 5
        assert ev("min(3, 1)") == 1
        assert ev("max(3, 1, 7)") == 7

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "x +",
            "import os",
            "__import__('os')",
            "x.y",  # attribute base must be payload
            "[1, 2]",
            "f(1)",
            "x ** 2",
            "lambda: 1",
            "x if y else z",
            "~x",
            "+x",
            "x % 2",
            "x // 2",
            "x & 1",
            "x in y",
            "x is y",
            "min(a=1)",
            "None",
            "b'x'",
            "payload.a.b",
        ],
    )
    def test_rejected_at_parse_time(self, source):
        with pytest.raises(ExpressionSyntaxError):
            Expr(source)


class TestConditionTotality:
    def test_absent_belief_makes_comparison_false(self):
        assert cond("missing < 5") is False
        assert cond("missing >= 5") is False

    def test_negated_absent_comparison(self):
        # The comparison itself collapses to false; negation then applies.
        assert cond("not (missing < 5)") is True

    def test_division_by_zero_is_false(self):
        assert cond("1 / zero > 0", names={"zero": 0}) is False

    def test_type_mismatch_is_false(self):
        assert cond("x < 5", names={"x": "sym"}) is False

    def test_absent_payload_field(self):
        assert cond("payload.old > 1", payload={"new": 2}) is False

    def test_connectives_over_partial_information(self):
        names = {"deployed": 3, "capacity": 5}
        assert cond("deployed < capacity", names=names) is True
        assert cond("deployed < capacity and missing > 0", names=names) is False
        assert cond("deployed < capacity or missing > 0", names=names) is True

    def test_chained_comparison(self):
        assert cond("1 < x < 5", names={"x": 3}) is True
        assert cond("1 < x < 5", names={"x": 7}) is False

    def test_relative_change_guard(self):
        guard = "abs(payload.new - payload.old) / payload.old >= 0.5"
        assert cond(guard, payload={"old": 10, "new": 30}) is True
        assert cond(guard, payload={"old": 10, "new": 11}) is False
        assert cond(guard, payload={"old": 0, "new": 5}) is False  # div-by-zero total


class TestValueMode:
    def test_defined_value(self):
        assert Expr("x + 1").as_value(Env(names={"x": 2})) == 3

    def test_undefined_value_raises(self):
        with pytest.raises(ExpressionEvalError):
            Expr("x + 1").as_value(Env(names={}))

    @pytest.mark.parametrize("source", ["-true", "-'s'", "min()"])
    def test_undefined_operations_raise(self, source):
        with pytest.raises(ExpressionEvalError):
            Expr(source).as_value(Env())

    def test_comparisons_and_connectives_always_have_a_value(self):
        assert Expr("1 < missing < 5").as_value(Env()) is False
        assert Expr("missing or 1 > 0").as_value(Env()) is True

    @pytest.mark.parametrize(
        "source, payload",
        [
            ("'ab' * 3", {}),
            ("payload.x * 2", {"x": "ab"}),
            ("true + 1", {}),
            ("payload.x * 2", {"x": [1]}),
            ("-payload.x", {"x": [1]}),
            ("abs(true)", {}),
            ("max('a', 'b')", {}),
            ("min(payload.x)", {"x": [3, 1]}),
        ],
    )
    def test_arithmetic_takes_numbers_only(self, source, payload):
        assert Expr(source).evaluate(Env(payload=payload)) is UNDEFINED

    def test_arithmetic_mixes_int_and_float(self):
        assert Expr("payload.x * 2 + 0.5").as_value(Env(payload={"x": 3})) == 6.5

    def test_evaluate_returns_undefined_sentinel(self):
        assert Expr("x + 1").evaluate(Env(names={})) is UNDEFINED

    def test_symbol_equality(self):
        assert cond("type != payload.type", names={"type": "a"}, payload={"type": "b"})
        assert not cond("type != payload.type", names={"type": "a"}, payload={"type": "a"})


class TestEnv:
    def test_names_are_read_in_place(self):
        beliefs = BeliefBase({"x": 1})
        env = Env(names=beliefs)
        beliefs.set("x", 2)
        beliefs.set("y", 3)
        assert Expr("x + y").as_value(env) == 5

    def test_subject_falls_back_to_names(self):
        assert ev("subject", names={"subject": "from-names"}) == "from-names"
        assert ev("subject", names={"subject": "from-names"}, subject="given") == "given"
        assert ev("subject") is UNDEFINED
