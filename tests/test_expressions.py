"""Expression language: parsing, evaluation, and totality rules."""

import ast
import copy
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coagent.bdi.beliefs import BeliefBase
from coagent.bdi.events import EventCategory, TriggeringEvent
from coagent.bdi.expressions import (
    MAX_DEPTH,
    QUOTED_CHARS,
    RESERVED_NAMES,
    TRUE,
    Expr,
    ExpressionEvalError,
    ExpressionSyntaxError,
    UNDEFINED,
    _Writer,
)
from coagent.bdi.reference import (
    expression_holds,
    expression_strict,
    expression_value,
)
from tests.conftest import REPO_ROOT


def event(payload=None, subject="e"):
    """A triggering event: what an expression reads besides the beliefs."""
    return TriggeringEvent(EventCategory.GOAL_ADDED, subject, payload or {})


def ev(source, names=None, payload=None, subject="e"):
    return Expr(source).evaluate(names or {}, event(payload, subject))


def cond(source, names=None, payload=None, subject="e"):
    return Expr(source).as_condition(names or {}, event(payload, subject))


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

    @pytest.mark.parametrize(
        "source",
        ["missing == missing", "missing != 1", "1 != missing", "1 < 2 != missing", "-missing != 0"],
    )
    def test_an_undefined_operand_makes_any_comparison_false(self, source):
        assert cond(source) is False

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
        assert Expr("x + 1").as_value({"x": 2}, event()) == 3

    def test_undefined_value_raises(self):
        with pytest.raises(ExpressionEvalError):
            Expr("x + 1").as_value({}, event())

    @pytest.mark.parametrize("source", ["-true", "-'s'", "min()"])
    def test_undefined_operations_raise(self, source):
        with pytest.raises(ExpressionEvalError):
            Expr(source).as_value({}, event())

    def test_comparisons_and_connectives_always_have_a_value(self):
        assert Expr("1 < missing < 5").as_value({}, event()) is False
        assert Expr("missing or 1 > 0").as_value({}, event()) is True

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
            ("payload.x + 1", {"x": True}),
            ("-payload.x", {"x": False}),
            ("max(payload.x, 1)", {"x": True}),
        ],
    )
    def test_arithmetic_takes_numbers_only(self, source, payload):
        assert Expr(source).evaluate({}, event(payload)) is UNDEFINED

    def test_arithmetic_mixes_int_and_float(self):
        assert Expr("payload.x * 2 + 0.5").as_value({}, event({"x": 3})) == 6.5

    def test_evaluate_returns_undefined_sentinel(self):
        assert Expr("x + 1").evaluate({}, event()) is UNDEFINED

    def test_symbol_equality(self):
        assert cond("type != payload.type", names={"type": "a"}, payload={"type": "b"})
        assert not cond("type != payload.type", names={"type": "a"}, payload={"type": "a"})


class TestInputs:
    def test_names_are_read_in_place(self):
        beliefs = BeliefBase({"x": 1})
        expr = Expr("x + y")
        assert expr.evaluate(beliefs, event()) is UNDEFINED  # compiled before the writes
        beliefs.set("x", 2)
        beliefs.set("y", 3)
        assert expr.as_value(beliefs, event()) == 5

    def test_subject_is_the_event_subject_even_when_names_hold_one(self):
        assert ev("subject", names={"subject": "from-names"}, subject="given") == "given"
        assert ev("subject == 'given'", names={"subject": "x"}, subject="given") is True
        assert ev("payload.subject", payload={"subject": "p"}, subject="given") == "p"


class TestReads:
    """What an expression reads, recorded by the checking walk, and the
    belief renames of module namespacing."""

    def test_the_reads_are_the_bare_names_and_the_payload_keys(self):
        expr = Expr("not (payload.a + -x) / 2 < abs(y, 1) <= subject and true or min(payload.b)")
        assert expr.names == {"x", "y", "subject"}
        assert expr.payload_keys == {"a", "b"}
        assert TRUE.names == TRUE.payload_keys == frozenset()

    def test_renamed_rewrites_each_belief_it_reads(self):
        expr = Expr("on and payload.on > m__on + off")
        renamed = expr.renamed({"on": "m__on", "off": "m__off", "unread": "m__unread"})
        assert renamed.source == "m__on and payload.on > m__on + m__off"
        assert renamed.names == {"m__on", "m__off"} and renamed.payload_keys == {"on"}
        assert expr.source == "on and payload.on > m__on + off"

    def test_renamed_keeps_an_expression_that_reads_none_of_the_beliefs(self):
        assert TRUE.renamed({"x": "m__x"}) is TRUE
        expr = Expr("payload.x > subject")
        assert expr.renamed({"x": "m__x"}) is expr
        assert expr.renamed({}) is expr

    @pytest.mark.parametrize("name", sorted(RESERVED_NAMES - {"not"}))
    def test_renamed_never_rewrites_a_reserved_name(self, name):
        expr = Expr(f"{name} == 1 or abs(payload.k) > x")
        assert expr.renamed({name: "renamed", "x": "y"}).source == (
            f"{name} == 1 or abs(payload.k) > y"
        )


def test_only_expressions_and_the_oracle_read_expression_trees():
    # The grammar has one owner: no other module imports ast or reads an
    # expression's .tree.  The reference oracle keeps its own naive walk.
    package = REPO_ROOT / "src" / "coagent"
    owners = {package / "bdi" / "expressions.py", package / "bdi" / "reference.py"}
    assert all(owner.is_file() for owner in owners)
    readers = []
    for path in sorted(package.rglob("*.py")):
        if path in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "ast" for alias in node.names)
                or isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "ast"
                or isinstance(node, ast.Attribute)
                and node.attr == "tree"
            ):
                readers.append((path.relative_to(package).as_posix(), node.lineno))
    assert readers == []


def test_every_written_node_that_has_a_position_is_on_line_1():
    # The writer's node classes carry the position, so no walk sets it; a
    # plain ast node built by mistake would have none and fail compile.
    source = "not (payload.a + -x) / 2 < abs(y, 1) <= subject and true or min(b)"
    module = _Writer(source).module(Expr(source).tree)
    positioned = [node for node in ast.walk(module) if "lineno" in node._attributes]
    assert {type(node).__name__ for node in positioned} >= {"ExceptHandler", "Try", "arg"}
    for node in positioned:
        assert (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset) == (1, 0, 1, 0)
    compile(module, "<expression>", "exec")


class TestExtremeSources:
    """Sources far larger or deeper than any configuration still compile."""

    @staticmethod
    def alternating(levels):
        source = "x"
        for level in range(levels):
            source = f"(y {'and' if level % 2 else 'or'} {source})"
        return source

    @pytest.mark.parametrize(
        "source, names, expected",
        [
            (" and ".join(["x"] * 2000), {"x": 1}, True),
            (" and ".join(["x"] * 1999 + ["y"]), {"x": 1, "y": 0}, False),
            (" + ".join(["1"] * 500), {}, 500),
            (" + ".join(["x"] * 499 + ["1.5"]), {"x": 2}, 999.5),
            ("not " * 300 + "x", {"x": 0}, False),
            ("not " * 301 + "missing", {}, True),
            ("-" * 300 + "x", {"x": 4}, 4),
            ("-" * 301 + "1", {}, -1),
        ],
        ids=["and-2000", "and-2000-false", "sum-500", "sum-500-names", "not-300",
             "not-301-undefined", "minus-300", "minus-301"],
    )
    def test_long_and_deep_chains(self, source, names, expected):
        expr = Expr(source)
        value = expr.evaluate(names, event())
        assert value == expected and type(value) is type(expected)
        assert expr.as_condition(names, event()) is bool(expected)

    @pytest.mark.parametrize("y", [0, 1])
    @pytest.mark.parametrize("x", [0, 1])
    def test_150_levels_of_alternating_and_or(self, x, y):
        expr = Expr(self.alternating(150))
        names = {"x": x, "y": y}
        assert expr.evaluate(names, event()) is expression_value(expr, names, event())

    def test_nesting_beyond_the_parser_is_a_syntax_error(self):
        for source in ("-" * 1100 + "1", "+".join(["1"] * 3000), "not " * 1100 + "x"):
            with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
                Expr(source)

    def test_a_700_term_sum_is_refused_at_load(self):
        # It loads and evaluates at the top of a stack, but its first
        # evaluation 300 frames down would overflow the walk.
        with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
            Expr(" + ".join(["1"] * 700))

    @pytest.mark.parametrize(
        "source, quoted",
        [
            ("x" * QUOTED_CHARS + " +", repr("x" * QUOTED_CHARS) + "..."),
            ("x" * (QUOTED_CHARS - 2) + " +", repr("x" * (QUOTED_CHARS - 2) + " +")),
            ("x < 1 if y else 2" + " " * QUOTED_CHARS, repr("x < 1 if y else 2" + " " * 43) + "..."),
        ],
        ids=["parse-long", "parse-at-bound", "walk-long"],
    )
    def test_a_syntax_error_quotes_at_most_the_start_of_the_source(self, source, quoted):
        with pytest.raises(ExpressionSyntaxError) as raised:
            Expr(source)
        message = str(raised.value)
        assert quoted in message and (quoted == repr(source)) is (repr(source) in message)

    @staticmethod
    def levels_deep(form, levels):
        """A source whose tree is ``levels`` deep.  Parentheses nest at most
        200 deep, so the deepest sources are these unparenthesized forms."""
        if form == "sum":
            return " + ".join(["1"] * levels)
        return {"minus": "-", "not": "not "}[form] * (levels - 1) + "1"

    @pytest.mark.parametrize("form, expected", [("sum", MAX_DEPTH), ("minus", -1), ("not", False)])
    def test_a_source_at_the_bound_first_evaluates_300_frames_down(self, form, expected):
        expr = Expr(self.levels_deep(form, MAX_DEPTH))
        with pytest.raises(ExpressionSyntaxError, match="nests too deeply"):
            Expr(self.levels_deep(form, MAX_DEPTH + 1))

        def down(frames):
            return expr.evaluate({}, event()) if frames == 0 else down(frames - 1)

        assert down(300) == expected


# -- differential check against the reference oracle's evaluator ---------------

_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.floats(min_value=0, max_value=1e300).map(repr),
    st.sampled_from(["true", "false", "True", "False", "1e999", str(10**400)]),
    st.text(alphabet="ab ", max_size=3).map(repr),
    st.sampled_from(["a", "b", "c", "subject", "payload.p", "payload.q"]),
    st.sampled_from(["missing", "payload.absent"]),  # always undefined
)
_COMPARISON_OPS = st.sampled_from(["<", "<=", "==", "!=", ">=", ">"])


def _chain(operands, operators):
    parts = [operands[0]]
    for operator, operand in zip(operators, operands[1:]):
        parts += [operator, operand]
    return "(" + " ".join(parts) + ")"


def _compound(children):
    operands = st.lists(children, min_size=2, max_size=4)
    comparisons = st.tuples(operands, st.lists(_COMPARISON_OPS, min_size=3, max_size=3))
    return st.one_of(
        children.map(lambda x: f"(not {x})"),
        children.map(lambda x: f"(-{x})"),
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        comparisons.map(lambda t: _chain(t[0], t[1])),
        comparisons.map(lambda t: _chain(t[0], t[1])),  # weighted: the guards' main form
        st.tuples(operands, st.lists(st.sampled_from(["and", "or"]), min_size=3, max_size=3)).map(
            lambda t: _chain(t[0], t[1])
        ),
        st.tuples(st.sampled_from(["abs", "min", "max"]), st.lists(children, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
    )


#: Sources over the whole grammar, each with at least one operator.
_SOURCES = _compound(st.recursive(_LEAVES, _compound, max_leaves=8))
_VALUES = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.0, -0.0, 10**400]),
    st.floats(),
    st.booleans(),
    st.text(alphabet="ab", max_size=2),
    st.none(),
)


def _outcome(evaluate):
    try:
        return ("value", evaluate())
    except Exception as exc:  # noqa: BLE001 -- errors are compared, not handled
        return ("error", type(exc), str(exc))


def _agree(main, reference):
    if main[0] != reference[0] or main[0] == "error":
        return main == reference
    a, b = main[1], reference[1]
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@given(
    source=_SOURCES,
    names=st.dictionaries(st.sampled_from(["a", "b", "c", "subject"]), _VALUES),
    payload=st.dictionaries(st.sampled_from(["p", "q"]), _VALUES),
    subject=st.text(alphabet="ab", max_size=2),
)
@settings(max_examples=500, deadline=None)
def test_compiled_expressions_agree_with_the_reference_evaluator(source, names, payload, subject):
    # Every position compares against a fresh Expr, so each compiles its
    # function here, with warnings raised as errors.
    te = event(payload, subject)
    for position, reference in (
        ("evaluate", expression_value),
        ("as_condition", expression_holds),
        ("as_value", expression_strict),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expr = Expr(source)
            ours = _outcome(lambda: getattr(expr, position)(names, te))
        theirs = _outcome(lambda: reference(expr, names, te))
        assert _agree(ours, theirs), (source, position, ours, theirs)


# -- differential check of the recorded reads and of renamed -------------------


class _Renamer(ast.NodeTransformer):
    """The rename that registration once made on a deep copy of the tree,
    kept here as the oracle of ``Expr.renamed``."""

    def __init__(self, renames):
        self.renames = renames

    def visit_Name(self, node):
        if node.id in self.renames:
            return ast.copy_location(ast.Name(id=self.renames[node.id], ctx=node.ctx), node)
        return node


def _walked_reads(tree):
    """The bare names and payload keys, by a naive walk of the tree: every
    name but a called function, ``payload`` before a key, and the literals."""
    nodes = list(ast.walk(tree))
    not_read = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    not_read |= {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    names = {
        node.id
        for node in nodes
        if isinstance(node, ast.Name) and id(node) not in not_read
        and node.id not in ("true", "false")
    }
    return names, {node.attr for node in nodes if isinstance(node, ast.Attribute)}


def _walked_renamed(expr, renames):
    if not any(isinstance(node, ast.Name) and node.id in renames for node in ast.walk(expr.tree)):
        return expr
    tree = _Renamer(renames).visit(copy.deepcopy(expr.tree))
    ast.fix_missing_locations(tree)
    return Expr(ast.unparse(tree))


@given(
    source=_SOURCES,
    # Module belief keys: never a reserved name.  A target may be another
    # key, so two beliefs may swap names.
    renames=st.dictionaries(
        st.sampled_from(["a", "b", "c", "missing"]),
        st.sampled_from(["a", "b", "m__a", "m_1__missing"]),
    ),
)
@settings(max_examples=500, deadline=None)
def test_recorded_reads_and_renamed_agree_with_a_naive_walk(source, renames):
    expr = Expr(source)
    before = ast.dump(expr.tree)
    assert (expr.names, expr.payload_keys) == _walked_reads(expr.tree), source
    ours, theirs = expr.renamed(renames), _walked_renamed(expr, renames)
    assert ours == theirs and (ours is expr) == (theirs is expr), (source, renames)
    assert (ours.names, ours.payload_keys) == _walked_reads(ours.tree)
    assert ast.dump(expr.tree) == before
