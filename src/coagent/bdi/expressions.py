"""Guard and value expressions over beliefs and event bindings.

Expressions are written in a restricted Python-syntax subset: numeric and
string literals, ``true``/``false``, belief references by bare name, event
binding references via ``payload.<key>`` and ``subject``, arithmetic
(``+ - * /``), comparisons (``< <= == != >= >``), boolean connectives
(``and or not``), and the functions ``abs``, ``min``, ``max`` over numbers.

Expressions are checked and compiled once, when configuration is loaded;
evaluation never raises in condition position.  A reference to an absent
belief or binding (or a division by zero, or a type mismatch) makes the
enclosing comparison false.  In value position the same situations raise
``ExpressionEvalError`` so the caller can fail the running plan.
"""

from __future__ import annotations

import ast
import operator
from typing import Any, Callable, Mapping


class ExpressionSyntaxError(ValueError):
    """Raised at load time for expressions outside the supported subset."""


class ExpressionEvalError(ValueError):
    """Raised in value position when an expression has no defined result."""


class _Undefined:
    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _Undefined()

_ALLOWED_FUNCS = {"abs": abs, "min": min, "max": max}

_CMP_OPS = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}

_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
#: The operand types arithmetic and function calls take; any other operand
#: (UNDEFINED, a bool, a str, a container) makes the result UNDEFINED.
_NUMBERS = (int, float)


def _truth(value: Any) -> bool:
    return value is not UNDEFINED and bool(value)


def _subject(env: "Env") -> Any:
    if env.subject is None:
        return env.names.get("subject", UNDEFINED)
    return env.subject


def _compile(node: ast.AST, source: str) -> Callable[["Env"], Any]:
    """Check one node against the supported subset and return its evaluator.

    This walk is the grammar's only definition.  A node's own operator is
    checked before its children are compiled, so the first unsupported
    construct in pre-order is the one reported.
    """
    if isinstance(node, ast.Expression):
        return _compile(node.body, source)
    if isinstance(node, ast.BoolOp):
        operands = [_compile(value, source) for value in node.values]
        if isinstance(node.op, ast.And):
            return lambda env: all(_truth(operand(env)) for operand in operands)
        return lambda env: any(_truth(operand(env)) for operand in operands)
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.Not, ast.USub)):
            raise ExpressionSyntaxError(f"unsupported unary operator in {source!r}")
        operand = _compile(node.operand, source)
        if isinstance(node.op, ast.Not):
            return lambda env: not _truth(operand(env))

        def negation(env: Env) -> Any:
            value = operand(env)
            if type(value) not in _NUMBERS:
                return UNDEFINED
            return -value

        return negation
    if isinstance(node, ast.Compare):
        if any(type(op) not in _CMP_OPS for op in node.ops):
            raise ExpressionSyntaxError(f"unsupported comparison in {source!r}")
        first = _compile(node.left, source)
        links = [
            (_CMP_OPS[type(op)], _compile(comparator, source))
            for op, comparator in zip(node.ops, node.comparators)
        ]

        def comparison(env: Env) -> bool:
            left = first(env)
            for compare, comparator in links:
                right = comparator(env)
                if left is UNDEFINED or right is UNDEFINED:
                    return False
                try:
                    if not compare(left, right):
                        return False
                except TypeError:
                    return False
                left = right
            return True

        return comparison
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BIN_OPS:
            raise ExpressionSyntaxError(f"unsupported arithmetic operator in {source!r}")
        combine = _BIN_OPS[type(node.op)]
        lhs, rhs = _compile(node.left, source), _compile(node.right, source)

        def arithmetic(env: Env) -> Any:
            left, right = lhs(env), rhs(env)
            if type(left) not in _NUMBERS or type(right) not in _NUMBERS:
                return UNDEFINED
            try:
                return combine(left, right)
            except ZeroDivisionError:
                return UNDEFINED

        return arithmetic
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ExpressionSyntaxError(f"unsupported function call in {source!r}")
        if node.keywords:
            raise ExpressionSyntaxError(f"keyword arguments not allowed in {source!r}")
        func = _ALLOWED_FUNCS[node.func.id]
        params = [_compile(arg, source) for arg in node.args]

        def call(env: Env) -> Any:
            args = [param(env) for param in params]
            if any(type(arg) not in _NUMBERS for arg in args):
                return UNDEFINED
            try:
                return func(*args)
            except TypeError:  # the wrong number of arguments
                return UNDEFINED

        return call
    if isinstance(node, ast.Attribute):
        if not (isinstance(node.value, ast.Name) and node.value.id == "payload"):
            raise ExpressionSyntaxError(
                f"only payload.<key> attribute references allowed in {source!r}"
            )
        key = node.attr
        return lambda env: env.payload.get(key, UNDEFINED)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, str, bool)):
            raise ExpressionSyntaxError(f"unsupported literal in {source!r}")
        literal = node.value
        return lambda env: literal
    if isinstance(node, ast.Name):
        name = node.id
        if name in ("true", "false"):
            constant = name == "true"
            return lambda env: constant
        if name == "subject":
            return _subject
        return lambda env: env.names.get(name, UNDEFINED)
    raise ExpressionSyntaxError(f"unsupported syntax ({type(node).__name__}) in {source!r}")


class Expr:
    """A parsed expression, evaluable in condition or value position."""

    __slots__ = ("source", "_tree", "_evaluate")

    def __init__(self, source: str):
        if not isinstance(source, str) or not source.strip():
            raise ExpressionSyntaxError(f"expression must be a non-empty string, got {source!r}")
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionSyntaxError(f"cannot parse expression {source!r}: {exc}") from None
        self._evaluate = _compile(tree, source)
        self.source = source
        self._tree = tree

    def __repr__(self) -> str:
        return f"Expr({self.source!r})"

    @property
    def tree(self) -> ast.Expression:
        """The parsed tree, shared by every reader: walk or copy it, never mutate it."""
        return self._tree

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and other.source == self.source

    def __hash__(self) -> int:
        return hash(self.source)

    def evaluate(self, env: "Env") -> Any:
        """Raw evaluation; may return UNDEFINED."""
        return self._evaluate(env)

    def as_condition(self, env: "Env") -> bool:
        """Total boolean evaluation: undefined results collapse to False."""
        return _truth(self._evaluate(env))

    def as_value(self, env: "Env") -> Any:
        """Strict evaluation: raises if the expression has no defined result."""
        result = self._evaluate(env)
        if result is UNDEFINED:
            raise ExpressionEvalError(
                f"expression {self.source!r} has no defined value in this context"
            )
        return result


class Env:
    """Name-resolution environment: belief names, ``subject``, and ``payload``.

    ``names`` is read in place, never copied: any mapping with
    ``get(key, default)`` will do, including the host's ``BeliefBase``, so
    an evaluation sees the beliefs as they are when it runs.  ``subject``
    names the triggering event's subject; when it is ``None``, a bare
    ``subject`` is looked up in ``names`` instead.
    """

    __slots__ = ("names", "payload", "subject")

    def __init__(
        self,
        names: Any = None,
        payload: Mapping[str, Any] | None = None,
        subject: str | None = None,
    ):
        self.names = {} if names is None else names
        self.payload: Mapping[str, Any] = payload or {}
        self.subject = subject


#: Context that always applies: used as the default plan context and guard.
TRUE = Expr("true")
