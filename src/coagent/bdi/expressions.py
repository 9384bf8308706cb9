"""Guard and value expressions over beliefs and the triggering event.

Expressions are written in a restricted Python-syntax subset.  The grammar
and its meaning, which ``coagent.bdi.reference`` re-derives independently:

* literals: ints, floats, strings, and ``true``/``false`` (``True`` and
  ``False`` too);
* a bare name is the belief of that name; ``payload.<key>`` is the entry
  ``key`` of the triggering event's payload; ``subject`` is the triggering
  event's subject (``subject`` is a reserved belief key);
* arithmetic ``+ - * /`` and unary minus take numbers only (``int`` and
  ``float``, not ``bool``); ``abs``, ``min`` and ``max`` take numbers only
  and the arity Python's builtins take;
* comparisons ``< <= == != >= >``, chained as in Python: a link runs only
  when the links before it held, and the result is ``True`` or ``False``;
* ``and``, ``or`` and ``not`` over truth values, short-circuiting, with a
  ``True`` or ``False`` result.

A reference to an absent belief or payload entry is undefined (``UNDEFINED``), and
so is arithmetic or a call over an operand that is not a number, a division
by zero, or a call with the wrong number of arguments.  A comparison with an
undefined operand, or between values Python cannot order, is false, and an
undefined value is false wherever a truth value is taken.  So evaluation
never raises in condition position; in value position an undefined result
raises ``ExpressionEvalError``, so the caller can fail the running plan.

Each expression is parsed and checked once, when configuration is loaded,
by the walk that also writes it as one Python function, ``value(names,
te)``: a tree of ``ast`` nodes, never source text.  The function reads the
beliefs ``names`` in place, never a copy (any mapping with ``get(key,
default)``, the host's ``BeliefBase`` included, whose ``get`` is its facts
dict's, so a bare-name read enters no Python frame), and the triggering
event ``te``.  Loading keeps only the parsed tree; the expression's first
evaluation runs the walk again and compiles what it writes.  Every
evaluation after that is one call of straight-line code, and
``as_condition`` takes the truth of its result inline.  Literals
enter that code as constants, and the sentinel, the number types and the
three functions by name.  Short-circuit operands and later comparison links
run inside ``if`` blocks that follow one another, so the code nests only as
deep as the source nests ``and``/``or`` and comparisons, and a long operand
list or arithmetic chain stays flat.  A source tree deeper than
``MAX_DEPTH`` levels, or too deep for the parser, is an
``ExpressionSyntaxError``; so the first evaluation, which walks the tree
again, has room for it even a few hundred frames down a call stack.  A
syntax error quotes at most the first ``QUOTED_CHARS`` characters of the
source.

The checking walk also records what the expression reads, as ``Expr.names``
(the bare names: its beliefs, and ``subject``) and ``Expr.payload_keys``
(the ``payload.<key>`` keys), so a caller asks what an expression reads with
set operations, and ``Expr.renamed`` rewrites its belief names for module
namespacing.  This module is the only one that reads or rewrites an
expression's syntax tree, apart from the reference oracle's own naive
walk; the names the grammar gives a meaning of its own are
``RESERVED_NAMES``.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from coagent.bdi.events import TriggeringEvent


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

_FUNCTIONS = ("abs", "min", "max")
#: Names the grammar gives a meaning of its own, so no belief may take one:
#: the functions, the literals ``true`` and ``false``, ``payload``,
#: ``subject`` and ``not``.
RESERVED_NAMES = frozenset({"payload", "subject", "true", "false", "not", *_FUNCTIONS})
_COMPARISONS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div)
#: The operand types arithmetic and function calls take; any other operand
#: (UNDEFINED, a bool, a str, a container) makes the result UNDEFINED.
_NUMBERS = (int, float)
#: The deepest source tree accepted, in levels: the walk enters one Python
#: frame per level, and runs again at the first evaluation, which may come
#: from a deep call stack.
MAX_DEPTH = 500

#: The most of a source an error message quotes, in characters.
QUOTED_CHARS = 60


def _quote(source: str) -> str:
    """The source as error messages quote it: its first ``QUOTED_CHARS``
    characters, then ``...`` if it is longer."""
    if len(source) <= QUOTED_CHARS:
        return repr(source)
    return repr(source[:QUOTED_CHARS]) + "..."


#: What generated code reads by name: its only globals.
_BINDINGS = {
    "UNDEFINED": UNDEFINED,
    "NUMBERS": _NUMBERS,
    "abs": abs,
    "min": min,
    "max": max,
    "type": type,
    "TypeError": TypeError,
    "ZeroDivisionError": ZeroDivisionError,
}

#: A value's static kind: its exact type when known (a literal, or a result
#: that is always a bool), ``_DEFINED`` when it is known not to be
#: UNDEFINED, else ``None``.
_DEFINED = object


class _OnLine1:
    """The position of every written node that has one, as class attributes:
    ``compile`` needs one and the written code is all on line 1, so each
    node takes it from its class, and nothing sets it node by node."""

    lineno = end_lineno = 1
    col_offset = end_col_offset = 0


#: The node classes the writer builds that carry a position, each one a
#: subclass of ``_OnLine1`` and of the ``ast`` class of its name, which
#: ``compile`` takes it for.  The source tree ``walk`` reads is plain ``ast``.
_node = SimpleNamespace(
    **{
        name: type(name, (_OnLine1, getattr(ast, name)), {})
        for name in (
            "Assign", "Attribute", "BinOp", "BoolOp", "Call", "Compare", "Constant",
            "ExceptHandler", "FunctionDef", "If", "IfExp", "Name", "Pass", "Return",
            "Try", "UnaryOp", "arg",
        )
    }
)

# Nodes and field lists that every written function may share: ``compile``
# only reads its tree, so one node may stand at many places in it, and
# nothing appends to a shared list.  Node classes take their fields
# positionally, in ``_fields`` order.
_EMPTY: list = []
_LOAD, _STORE, _NOT = ast.Load(), ast.Store(), ast.Not()
_IS, _IS_NOT, _IN = [ast.Is()], [ast.IsNot()], [ast.In()]  # one-operator lists
_UNDEFINED = _node.Name("UNDEFINED", _LOAD)
_UNDEFINED_ONLY = [_UNDEFINED]
_FALSE, _TRUE = _node.Constant(False), _node.Constant(True)
_TE = _node.Name("te", _LOAD)
_TYPE, _NUMBERS_ONLY = _node.Name("type", _LOAD), [_node.Name("NUMBERS", _LOAD)]
_SUBJECT = _node.Attribute(_TE, "subject", _LOAD)
_GET = {
    "names": _node.Attribute(_node.Name("names", _LOAD), "get", _LOAD),
    "payload": _node.Attribute(_node.Attribute(_TE, "payload", _LOAD), "get", _LOAD),
}
_IGNORE = {
    error: [_node.ExceptHandler(_node.Name(error, _LOAD), None, [_node.Pass()])]
    for error in ("TypeError", "ZeroDivisionError")
}
_ARGUMENTS = ast.arguments(
    _EMPTY, [_node.arg("names"), _node.arg("te")], None, _EMPTY, _EMPTY, None, _EMPTY
)


def _lookup(mapping: str, key: str) -> ast.expr:
    """``names.get(key, UNDEFINED)`` or ``te.payload.get(key, UNDEFINED)``."""
    return _node.Call(_GET[mapping], [_node.Constant(key), _UNDEFINED], _EMPTY)


def _is_number(value: ast.expr) -> ast.expr:
    return _node.Compare(_node.Call(_TYPE, [value], _EMPTY), _IN, _NUMBERS_ONLY)


def _defined(value: ast.expr) -> ast.expr:
    return _node.Compare(value, _IS_NOT, _UNDEFINED_ONLY)


def _all(tests: list[ast.expr]) -> ast.expr:
    return tests[0] if len(tests) == 1 else _node.BoolOp(ast.And(), tests)


def _guarded(block: list[ast.stmt], tests: list[ast.expr], statement: ast.stmt) -> None:
    """Append ``statement`` to ``block``, run only if every test holds."""
    block.append(_node.If(_all(tests), [statement], _EMPTY) if tests else statement)


def _truth(value: ast.expr, kind: Any) -> ast.expr:
    """The truth of ``value`` as a bool expression, UNDEFINED being false;
    ``value`` is a name or constant unless it is always a bool."""
    if kind is bool:
        return value
    if type(value) is _node.Constant:
        return _node.Constant(bool(value.value))
    as_bool = _node.UnaryOp(_NOT, _node.UnaryOp(_NOT, value))
    if kind is not None:
        return as_bool
    return _node.BoolOp(ast.And(), [_defined(value), as_bool])


def _ignoring(error: str, statement: ast.stmt) -> ast.stmt:
    """``statement``, with ``error`` raised by it ignored."""
    return _node.Try([statement], _IGNORE[error], _EMPTY, _EMPTY)


def _set(local: ast.Name, value: ast.expr) -> ast.stmt:
    """``local = value``, for the node ``local`` that reads a local."""
    return _node.Assign([_node.Name(local.id, _STORE)], value)


class _Writer:
    """The grammar walk: checks one parsed expression and writes its code.

    This walk is the grammar's only definition.  A node's own operator is
    checked before its children are walked, so the first unsupported
    construct in pre-order is the one reported.  ``walk`` appends the
    statements a node needs to the block it is given and returns the node's
    value as an expression over names and constants, with the value's
    kind; it enters one Python frame per level of the source tree, and
    ``depth`` counts them.  It records what the expression reads: ``names``,
    the bare names (its beliefs, and ``subject``), and ``payload_keys``, the
    keys of its ``payload.<key>`` references.
    """

    def __init__(self, source: str):
        self.quoted = _quote(source)  # the source as error messages show it
        self.temps = 0
        self.names: set[str] = set()
        self.payload_keys: set[str] = set()

    def temp(self) -> ast.Name:
        """A new local of the written function, as the node that reads it."""
        self.temps += 1
        return _node.Name(f"t{self.temps}", _LOAD)

    def atom(self, value: ast.expr, block: list[ast.stmt]) -> ast.expr:
        """The value as a name or constant, so it may be read twice."""
        if type(value) is _node.Name or type(value) is _node.Constant:
            return value
        temp = self.temp()
        block.append(_set(temp, value))
        return temp

    def numbers(self, operands: list[tuple[ast.expr, Any]]) -> list[ast.expr]:
        """The run-time checks that every operand is a number."""
        return [_is_number(value) for value, kind in operands if kind not in _NUMBERS]

    def walk(self, node: ast.AST, block: list[ast.stmt], depth: int = 1) -> tuple[ast.expr, Any]:
        quoted, form = self.quoted, type(node)
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nests too deeply (over {MAX_DEPTH} levels): {quoted}"
            )
        if form is ast.Attribute:
            if not (isinstance(node.value, ast.Name) and node.value.id == "payload"):
                raise ExpressionSyntaxError(
                    f"only payload.<key> attribute references allowed in {quoted}"
                )
            self.payload_keys.add(node.attr)
            return _lookup("payload", node.attr), None
        if form is ast.Name:
            name = node.id
            if name in ("true", "false"):
                return (_TRUE if name == "true" else _FALSE), bool
            self.names.add(name)
            if name == "subject":
                return _SUBJECT, _DEFINED
            return _lookup("names", name), None
        if form is ast.Constant:
            if not isinstance(node.value, (int, float, str, bool)):
                raise ExpressionSyntaxError(f"unsupported literal in {quoted}")
            return _node.Constant(node.value), type(node.value)
        if form is ast.BoolOp:
            # One ``if`` per later operand, side by side: it runs while the
            # result so far is true (``and``) or false (``or``).
            result = self.temp()
            test = result if isinstance(node.op, ast.And) else _node.UnaryOp(_NOT, result)
            outer = block
            for position, operand in enumerate(node.values):
                if position:
                    block = []
                    outer.append(_node.If(test, block, _EMPTY))
                value, kind = self.walk(operand, block, depth + 1)
                if kind is not bool:
                    value = self.atom(value, block)
                block.append(_set(result, _truth(value, kind)))
            return result, bool
        if form is ast.UnaryOp:
            if not isinstance(node.op, (ast.Not, ast.USub)):
                raise ExpressionSyntaxError(f"unsupported unary operator in {quoted}")
            value, kind = self.walk(node.operand, block, depth + 1)
            value = self.atom(value, block)
            if isinstance(node.op, ast.Not):
                negation = _node.UnaryOp(_NOT, value)
                if kind is None:  # UNDEFINED is false, so its negation is true
                    undefined = _node.Compare(value, _IS, _UNDEFINED_ONLY)
                    return _node.BoolOp(ast.Or(), [undefined, negation]), bool
                return negation, bool
            tests = self.numbers([(value, kind)])
            negative = _node.UnaryOp(node.op, value)
            if not tests:
                return negative, kind
            return _node.IfExp(tests[0], negative, _UNDEFINED), None
        if form is ast.Compare:
            if any(not isinstance(op, _COMPARISONS) for op in node.ops):
                raise ExpressionSyntaxError(f"unsupported comparison in {quoted}")
            # Each link: both sides defined, then the comparison itself, a
            # TypeError counting as false.  Later links run inside an ``if``
            # on the result so far.
            left, left_kind = self.walk(node.left, block, depth + 1)
            left = self.atom(left, block)
            result = self.temp()
            holds = [_set(result, _TRUE)]
            outer = block
            for position, (op, comparator) in enumerate(zip(node.ops, node.comparators)):
                if position:
                    block = []
                    outer.append(_node.If(result, block, _EMPTY))
                right, right_kind = self.walk(comparator, block, depth + 1)
                right = self.atom(right, block)
                block.append(_set(result, _FALSE))
                link = _node.If(_node.Compare(left, [op], [right]), holds, _EMPTY)
                sides = ((left, left_kind), (right, right_kind))
                tests = [_defined(side) for side, kind in sides if kind is None]
                _guarded(block, tests, _ignoring("TypeError", link))
                left, left_kind = right, right_kind if right_kind is not None else _DEFINED
            return result, bool
        if form is ast.BinOp:
            if not isinstance(node.op, _ARITHMETIC):
                raise ExpressionSyntaxError(f"unsupported arithmetic operator in {quoted}")
            operands = []
            for operand in (node.left, node.right):
                value, kind = self.walk(operand, block, depth + 1)
                operands.append((self.atom(value, block), kind))
            tests = self.numbers(operands)
            (left, left_kind), (right, right_kind) = operands
            combined = _node.BinOp(left, node.op, right)
            if isinstance(node.op, ast.Div):  # a division by zero is undefined
                result = self.temp()
                block.append(_set(result, _UNDEFINED))
                _guarded(block, tests, _ignoring("ZeroDivisionError", _set(result, combined)))
                return result, None
            if tests:
                return _node.IfExp(_all(tests), combined, _UNDEFINED), None
            return combined, float if float in (left_kind, right_kind) else int
        if form is ast.Call:
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionSyntaxError(f"unsupported function call in {quoted}")
            if node.keywords:
                raise ExpressionSyntaxError(f"keyword arguments not allowed in {quoted}")
            args = []
            for arg in node.args:
                value, kind = self.walk(arg, block, depth + 1)
                args.append((self.atom(value, block), kind))
            tests = self.numbers(args)
            # The wrong number of arguments is a TypeError: undefined.
            result = self.temp()
            call = _node.Call(_node.Name(node.func.id, _LOAD), [value for value, _ in args], _EMPTY)
            block.append(_set(result, _UNDEFINED))
            _guarded(block, tests, _ignoring("TypeError", _set(result, call)))
            return result, None
        raise ExpressionSyntaxError(f"unsupported syntax ({type(node).__name__}) in {quoted}")

    def module(self, tree: ast.Expression) -> ast.Module:
        """The module that defines ``value(names, te)``, at line 1."""
        body: list[ast.stmt] = []
        value, _ = self.walk(tree.body, body)
        body.append(_node.Return(value))
        return ast.Module([_node.FunctionDef("value", _ARGUMENTS, body, _EMPTY)], _EMPTY)


class Expr:
    """A parsed expression, evaluable in condition or value position.

    ``names`` and ``payload_keys`` are what it reads, as the checking walk
    recorded them: the bare names (its beliefs, and ``subject``) and the
    keys of its ``payload.<key>`` references.
    """

    __slots__ = ("source", "names", "payload_keys", "_tree", "_value")

    def __init__(self, source: str):
        if not isinstance(source, str) or not source.strip():
            raise ExpressionSyntaxError(f"expression must be a non-empty string, got {source!r}")
        writer = _Writer(source)
        try:
            tree = ast.parse(source, mode="eval")
            writer.walk(tree.body, [])  # for its checks and reads; the code is dropped
        except SyntaxError as exc:
            raise ExpressionSyntaxError(
                f"cannot parse expression {_quote(source)}: {exc}"
            ) from None
        except RecursionError:
            raise ExpressionSyntaxError(f"expression nests too deeply: {_quote(source)}") from None
        self.source = source
        self.names = frozenset(writer.names)
        self.payload_keys = frozenset(writer.payload_keys)
        self._tree = tree
        self._value = None

    def __repr__(self) -> str:
        return f"Expr({self.source!r})"

    @property
    def tree(self) -> ast.Expression:
        """The parsed tree, shared by every reader: walk or copy it, never mutate it."""
        return self._tree

    def renamed(self, renames: Mapping[str, str]) -> Expr:
        """This expression with each belief it reads that ``renames`` names
        read under its new name.  Itself when it reads none of them, so
        ``TRUE`` stays ``TRUE`` and no tree is walked.  A reserved name is
        never a belief, so ``renames`` never rewrites one."""
        beliefs = self.names.intersection(renames).difference(RESERVED_NAMES)
        if not beliefs:
            return self
        tree = ast.parse(self.source, mode="eval")  # a fresh tree, rewritten in place
        for node in ast.walk(tree):
            if type(node) is ast.Name and node.id in beliefs:
                node.id = renames[node.id]
        return Expr(ast.unparse(tree))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and other.source == self.source

    def __hash__(self) -> int:
        return hash(self.source)

    def _compile(self) -> Any:
        """Write and compile the code, once; returns the value function.

        Loading drops what its walk wrote, so an expression that is never
        evaluated keeps only its parsed tree."""
        module = _Writer(self.source).module(self._tree)
        namespace = dict(_BINDINGS)
        exec(compile(module, f"<expression {self.source!r}>", "exec"), namespace)
        self._value = namespace["value"]
        return self._value

    def evaluate(self, names: Any, te: TriggeringEvent) -> Any:
        """Raw evaluation over beliefs ``names`` and event ``te``; may return UNDEFINED."""
        return (self._value or self._compile())(names, te)

    def as_condition(self, names: Any, te: TriggeringEvent) -> bool:
        """Total boolean evaluation: undefined results collapse to False."""
        result = (self._value or self._compile())(names, te)
        return result is not UNDEFINED and bool(result)

    def as_value(self, names: Any, te: TriggeringEvent) -> Any:
        """Strict evaluation: raises if the expression has no defined result."""
        result = (self._value or self._compile())(names, te)
        if result is UNDEFINED:
            raise ExpressionEvalError(
                f"expression {self.source!r} has no defined value in this context"
            )
        return result


#: Context that always applies: used as the default plan context and guard.
TRUE = Expr("true")
