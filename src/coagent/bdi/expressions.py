"""Guard and value expressions over beliefs and event bindings.

Expressions are written in a restricted Python-syntax subset: numeric and
string literals, ``true``/``false``, belief references by bare name, event
binding references via ``payload.<key>`` and ``subject``, arithmetic
(``+ - * /``), comparisons (``< <= == != >= >``), boolean connectives
(``and or not``), and the functions ``abs``, ``min``, ``max``.

Expressions are parsed and checked when configuration is loaded; evaluation
never raises in condition position.  A reference to an absent belief or
binding (or a division by zero, or a type mismatch) makes the enclosing
comparison false.  In value position the same situations raise
``ExpressionEvalError`` so the caller can fail the running plan.
"""

from __future__ import annotations

import ast
from typing import Any, Mapping


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
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}

_BIN_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _validate(node: ast.AST, source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, source)
    elif isinstance(node, ast.BoolOp):
        if not isinstance(node.op, (ast.And, ast.Or)):
            raise ExpressionSyntaxError(f"unsupported boolean operator in {source!r}")
        for value in node.values:
            _validate(value, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.Not, ast.USub)):
            raise ExpressionSyntaxError(f"unsupported unary operator in {source!r}")
        _validate(node.operand, source)
    elif isinstance(node, ast.Compare):
        for op in node.ops:
            if type(op) not in _CMP_OPS:
                raise ExpressionSyntaxError(f"unsupported comparison in {source!r}")
        _validate(node.left, source)
        for comp in node.comparators:
            _validate(comp, source)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BIN_OPS:
            raise ExpressionSyntaxError(f"unsupported arithmetic operator in {source!r}")
        _validate(node.left, source)
        _validate(node.right, source)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ExpressionSyntaxError(f"unsupported function call in {source!r}")
        if node.keywords:
            raise ExpressionSyntaxError(f"keyword arguments not allowed in {source!r}")
        for arg in node.args:
            _validate(arg, source)
    elif isinstance(node, ast.Attribute):
        if not (isinstance(node.value, ast.Name) and node.value.id == "payload"):
            raise ExpressionSyntaxError(
                f"only payload.<key> attribute references allowed in {source!r}"
            )
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, str, bool)):
            raise ExpressionSyntaxError(f"unsupported literal in {source!r}")
    elif isinstance(node, ast.Name):
        pass
    else:
        raise ExpressionSyntaxError(
            f"unsupported syntax ({type(node).__name__}) in {source!r}"
        )


class Expr:
    """A parsed expression, evaluable in condition or value position."""

    __slots__ = ("source", "_tree")

    def __init__(self, source: str):
        if not isinstance(source, str) or not source.strip():
            raise ExpressionSyntaxError(f"expression must be a non-empty string, got {source!r}")
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionSyntaxError(f"cannot parse expression {source!r}: {exc}") from None
        _validate(tree, source)
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

    def _eval(self, node: ast.AST, env: "Env") -> Any:
        if isinstance(node, ast.Expression):
            return self._eval(node.body, env)
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id == "true":
                return True
            if node.id == "false":
                return False
            return env.lookup(node.id)
        if isinstance(node, ast.Attribute):
            return env.lookup_payload(node.attr)
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                for value in node.values:
                    if not self._truth(self._eval(value, env)):
                        return False
                return True
            for value in node.values:
                if self._truth(self._eval(value, env)):
                    return True
            return False
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.Not):
                return not self._truth(operand)
            if operand is UNDEFINED or isinstance(operand, (bool, str)):
                return UNDEFINED
            return -operand
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, env)
                if left is UNDEFINED or right is UNDEFINED:
                    return False
                try:
                    ok = _CMP_OPS[type(op)](left, right)
                except TypeError:
                    return False
                if not ok:
                    return False
                left = right
            return True
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            try:
                if isinstance(node.op, ast.Add):
                    return left + right
                if isinstance(node.op, ast.Sub):
                    return left - right
                if isinstance(node.op, ast.Mult):
                    return left * right
                return left / right
            except (TypeError, ZeroDivisionError):
                return UNDEFINED
        if isinstance(node, ast.Call):
            func = _ALLOWED_FUNCS[node.func.id]  # type: ignore[union-attr]
            args = [self._eval(arg, env) for arg in node.args]
            if any(arg is UNDEFINED for arg in args):
                return UNDEFINED
            try:
                return func(*args)
            except (TypeError, ValueError):
                return UNDEFINED
        raise AssertionError(f"unvalidated node {type(node).__name__}")

    @staticmethod
    def _truth(value: Any) -> bool:
        if value is UNDEFINED:
            return False
        return bool(value)

    def evaluate(self, env: "Env") -> Any:
        """Raw evaluation; may return UNDEFINED."""
        return self._eval(self._tree, env)

    def as_condition(self, env: "Env") -> bool:
        """Total boolean evaluation: undefined results collapse to False."""
        return self._truth(self._eval(self._tree, env))

    def as_value(self, env: "Env") -> Any:
        """Strict evaluation: raises if the expression has no defined result."""
        result = self._eval(self._tree, env)
        if result is UNDEFINED:
            raise ExpressionEvalError(
                f"expression {self.source!r} has no defined value in this context"
            )
        return result


class Env:
    """Name-resolution environment: belief names, ``subject``, and ``payload``."""

    __slots__ = ("names", "payload")

    def __init__(
        self,
        names: Mapping[str, Any] | None = None,
        payload: Mapping[str, Any] | None = None,
        subject: str | None = None,
    ):
        self.names: dict[str, Any] = dict(names or {})
        if subject is not None:
            self.names["subject"] = subject
        self.payload: Mapping[str, Any] = payload or {}

    def lookup(self, name: str) -> Any:
        if name in self.names:
            return self.names[name]
        return UNDEFINED

    def lookup_payload(self, key: str) -> Any:
        if key in self.payload:
            return self.payload[key]
        return UNDEFINED


#: Context that always applies: used as the default plan context and guard.
TRUE = Expr("true")
