"""Textual function definitions: parsing, evaluation, pretty-printing.

The accepted grammar, with ^ binding tightest and right-associative:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?
    base   := '-' base | number | 'x' | '(' expr ')'
            | ident '(' expr (',' expr)? ')'

The only variable is x.  Function names are fixed: sin, cos, exp, log,
sqrt and abs take one argument, min and max take two.  Parse failures
raise ParseError with a stable message carrying a 1-based byte offset;
so does an expression nested deeper than 100 levels.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Union

import numpy as np

from .core import EvaluationError, RealFunction, _check_unit

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ExprAst",
    "ParseError",
    "parse",
    "eval_ast",
    "to_text",
    "to_real_function",
    "UNARY_FUNCTIONS",
    "BINARY_FUNCTIONS",
]

UNARY_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

BINARY_FUNCTIONS = {"min": min, "max": max}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["ExprAst", ...]


ExprAst = Union[Const, Var, Unary, Binary, Call]


class ParseError(Exception):
    """Raised for any malformed expression; offsets are 1-based bytes."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(message)


def _parse_error(offset: int, detail: str) -> ParseError:
    return ParseError(offset, f"parse error at byte {offset}: {detail}")


def _syntax_error(offset: int, expected: str, found: str) -> ParseError:
    return _parse_error(offset, f"expected {expected}, found {found}")


class _Token(NamedTuple):
    kind: str  # "number", "ident", "op", "eof"
    text: str
    offset: int  # 1-based byte offset of the first character

    def describe(self) -> str:
        return "end of input" if self.kind == "eof" else f"'{self.text}'"


# The three kinds of token; "number" tries its integer-part form first.
_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_OP = r"[-+*/^(),]"

# One token after any whitespace.
_TOKEN_RE = re.compile(rf"\s*(?:(?P<number>{_NUMBER})|(?P<ident>{_IDENT})|(?P<op>{_OP}))")

# Up to 2**10 tokens from where a match starts, each read as _TOKEN_RE
# reads it, then any whitespace.  Nothing follows the repetition, so a
# match never backtracks into it, and the bound caps the state the regex
# engine keeps per match (about 200 bytes a token) at any text length.
_LEXICAL_RE = re.compile(rf"(?:\s*(?:{_NUMBER}|{_IDENT}|{_OP})){{0,{2**10}}}\s*")

_BASE_EXPECTED = "number, 'x', '(', '-', or function name"


def _lexical_error(text: str) -> ParseError | None:
    """The error for the first character of text that starts no token, or None.

    One regex scan in C, 2**10 tokens a match, where tokenizing a long
    text in Python would cost a microsecond a token.
    """
    end, previous = 0, -1
    while end != previous:  # stops at the first character that starts no token
        previous, end = end, _LEXICAL_RE.match(text, end).end()
    if end == len(text):
        return None
    return _syntax_error(end + 1, "number, identifier, or operator", f"'{text[end]}'")


def _tokens(text: str) -> Iterator[_Token]:
    """The tokens of text, then eof, each made when the parser reads it.

    text must have no lexical error, so the tokens reach its end but for
    trailing whitespace.
    """
    for match in iter(_TOKEN_RE.scanner(text).match, None):
        kind = match.lastgroup
        # _make, unlike _Token(...), runs no Python-level __new__.
        yield _Token._make((kind, match[kind], match.start(kind) + 1))
    yield _Token("eof", "", len(text) + 1)


# Deepest nesting parse() accepts, counting both the parser's own recursion
# (parentheses, unary minus, ^ and calls) and the height of the tree, which
# a chain such as x+x+...+x grows without any recursion.  _evaluate,
# to_text and tree equality walk the tree recursively.  _evaluate spends
# one frame a level, at a point or on an array alike, or two at a call,
# whose arguments a list comprehension evaluates in a frame of its own on
# Python 3.11; a nested call costs the parser four frames a level.  So
# this keeps every walk and every evaluation well inside Python's default
# limit of 1000 frames.
_MAX_DEPTH = 100


# Binding strength of each binary operator, shared by the parser and the
# printer; ^ alone is right-associative.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


class _Parser:
    """Recursive descent with precedence climbing; each parse_* method returns (tree, height)."""

    def __init__(self, tokens: Iterator[_Token]):
        self.pull = tokens.__next__
        self.token = self.pull()  # the next token to read; eof is never read past
        self.depth = 0  # recursion depth of the descent in progress

    def advance(self) -> _Token:
        token = self.token
        self.token = self.pull()
        return token

    def expect_op(self, op: str) -> None:
        token = self.token
        if token.kind == "op" and token.text == op:
            self.advance()
            return
        raise _syntax_error(token.offset, f"'{op}'", token.describe())

    def at_op(self, *ops: str) -> bool:
        token = self.token
        return token.kind == "op" and token.text in ops

    def check_depth(self, token: _Token, depth: int) -> int:
        if depth > _MAX_DEPTH:
            raise _parse_error(token.offset, f"expression nests deeper than {_MAX_DEPTH} levels")
        return depth

    def descend(
        self, token: _Token, parse: Callable[..., tuple[ExprAst, int]], *args: int
    ) -> tuple[ExprAst, int]:
        self.depth = self.check_depth(token, self.depth + 1)
        result = parse(*args)
        self.depth -= 1
        return result

    def build(self, token: _Token, node: ExprAst, *heights: int) -> tuple[ExprAst, int]:
        return node, self.check_depth(token, 1 + max(heights))

    def parse_expr(self, tightest: int = 1) -> tuple[ExprAst, int]:
        """A base, then every operator of _PRECEDENCE level tightest or above.

        A left-associative operator's right operand takes only tighter
        operators; ^ takes its own level again, one nesting level deeper.
        """
        node, height = self.parse_base()
        while True:
            token = self.token
            level = _PRECEDENCE.get(token.text, 0)  # 0 for any other token
            if level < tightest:
                return node, height
            self.advance()
            if token.text == "^":
                right, right_height = self.descend(token, self.parse_expr, level)
            else:
                right, right_height = self.parse_expr(level + 1)
            node, height = self.build(token, Binary(token.text, node, right), height, right_height)

    def parse_base(self) -> tuple[ExprAst, int]:
        token = self.token
        if self.at_op("-"):
            self.advance()
            operand, height = self.descend(token, self.parse_base)
            return self.build(token, Unary("-", operand), height)
        if token.kind == "number":
            self.advance()
            return Const(float(token.text)), 1
        if self.at_op("("):
            self.advance()
            result = self.descend(token, self.parse_expr)
            self.expect_op(")")
            return result
        if token.kind == "ident":
            if token.text == "x":
                self.advance()
                return Var(), 1
            return self.parse_call(token)
        raise _syntax_error(token.offset, _BASE_EXPECTED, token.describe())

    def parse_call(self, name_token: _Token) -> tuple[ExprAst, int]:
        name = name_token.text
        if name not in UNARY_FUNCTIONS and name not in BINARY_FUNCTIONS:
            raise _parse_error(name_token.offset, f"unknown identifier '{name}'")
        self.advance()
        self.expect_op("(")
        args = [self.descend(name_token, self.parse_expr)]
        if name in BINARY_FUNCTIONS:
            self.expect_op(",")
            args.append(self.descend(name_token, self.parse_expr))
        self.expect_op(")")
        return self.build(
            name_token, Call(name, tuple(arg for arg, _ in args)), *(height for _, height in args)
        )


def parse(text: str) -> ExprAst:
    """Parse an expression in x, or raise ParseError with a byte offset.

    One regex scan of the whole text first raises the error for a
    character that starts no token, so that error wins over any syntax
    or depth error, wherever it stands.  The parser then reads tokens as
    it goes, so it stops tokenizing where the text first fails, such as
    101 parentheses into 3000.
    """
    error = _lexical_error(text)
    if error:
        raise error
    parser = _Parser(_tokens(text))
    node, _ = parser.parse_expr()
    trailing = parser.token
    if trailing.kind != "eof":
        raise _syntax_error(trailing.offset, "end of input", trailing.describe())
    return node


# ---------------------------------------------------------------------------
# Pretty printing


def _render(node: ExprAst) -> tuple[str, int]:
    """Return (text, precedence) with 4 meaning an atomic base."""
    if isinstance(node, Const):
        text = repr(node.value).replace("inf", "1e309")  # 1e309 parses as inf
        return text if node.value >= 0 else f"({text})", 4
    if isinstance(node, Var):
        return "x", 4
    if isinstance(node, Unary):
        text, prec = _render(node.operand)
        if prec < 4:
            text = f"({text})"
        return f"-{text}", 4
    if isinstance(node, Call):
        args = ", ".join(_render(arg)[0] for arg in node.args)
        return f"{node.name}({args})", 4
    if isinstance(node, Binary):
        op = node.op
        mine = _PRECEDENCE[op]
        left_text, left_prec = _render(node.left)
        right_text, right_prec = _render(node.right)
        if op == "^":
            # Left operand of ^ must be a base; right may be another ^ chain.
            if left_prec < 4:
                left_text = f"({left_text})"
            if right_prec < 4 and not (isinstance(node.right, Binary) and node.right.op == "^"):
                right_text = f"({right_text})"
            return f"{left_text}^{right_text}", mine
        if left_prec < mine:
            left_text = f"({left_text})"
        if right_prec <= mine:
            right_text = f"({right_text})"
        return f"{left_text} {op} {right_text}", mine
    raise TypeError(f"not an expression node: {node!r}")


def to_text(node: ExprAst) -> str:
    """Render the tree back to source; reparsing gives an identical tree."""
    return _render(node)[0]


# ---------------------------------------------------------------------------
# Evaluation


def _fail(node: ExprAst, x: float | np.ndarray, reason: str) -> Exception:
    if isinstance(x, np.ndarray):  # a subtree without x failed a batch, which reads no message
        return _BatchFailed()
    return EvaluationError(f"evaluation of '{to_text(node)}' failed at x={x!r}: {reason}")


# Each operator and function on Python floats, as _ARRAY_OPS on arrays.
_SCALAR_OPS: dict[str, Callable[..., float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
    **UNARY_FUNCTIONS,
    **BINARY_FUNCTIONS,
}


def _evaluate(node: ExprAst, x: float | np.ndarray) -> float | np.ndarray:
    """The tree's value at x, a point or a 1-D array of points, by one recursive walk.

    Children are evaluated left to right.  A node whose operands are all
    floats runs _SCALAR_OPS: a zero divisor, a math error and a
    non-finite value at a Binary or Call node fail that node, whose
    message is built only then; constants, x and unary minus are not
    checked.  That is every node at a point and every subtree without x
    in a batch; the others run _ARRAY_OPS, and check only what
    _batch_evaluator says.  Binary, the most common inner node, is
    tested first.
    """
    if isinstance(node, Binary):
        name, args = node.op, (_evaluate(node.left, x), _evaluate(node.right, x))
    elif isinstance(node, Const):
        return node.value
    elif isinstance(node, Var):
        return x
    elif isinstance(node, Unary):
        return -_evaluate(node.operand, x)
    elif isinstance(node, Call):
        name, args = node.name, [_evaluate(arg, x) for arg in node.args]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    # At a point x is a float, and so is every operand: one test, not two.
    if x.__class__ is not float and (
        isinstance(args[0], np.ndarray) or isinstance(args[-1], np.ndarray)
    ):
        values = _ARRAY_OPS[name](*args)
        for a in args:
            if a.__class__ is float and not math.isfinite(a) and not np.isfinite(values).all():
                raise _BatchFailed
        return values
    if name == "/" and args[1] == 0.0:
        raise _fail(node, x, "division by zero")
    try:
        value = _SCALAR_OPS[name](*args)
    except (ValueError, OverflowError) as exc:
        raise _fail(node, x, str(exc)) from exc
    if not math.isfinite(value):
        raise _fail(node, x, f"non-finite result {value!r}")
    return value


class _BatchFailed(Exception):
    """A node failed at some point of a batch; RealFunction then finds the first such point."""


_Operand = Union[np.ndarray, float]  # an operand without x is its value


def _each(operand: _Operand) -> Iterable[float]:
    """An array's values as Python floats, or a value without x repeated."""
    return memoryview(operand) if isinstance(operand, np.ndarray) else repeat(operand)


def _power(a: _Operand, b: _Operand) -> np.ndarray:
    size = a.size if isinstance(a, np.ndarray) else b.size
    return np.fromiter(map(math.pow, _each(a), _each(b)), float, size)


def _mapped(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    return lambda a: np.fromiter(map(fn, memoryview(a)), float, a.size)


# Each operator and function on arrays, bit for bit as _SCALAR_OPS: numpy
# does + - * / and abs, which IEEE-754 rounds as it does Python floats, and
# the functions and ^ map the math module over the values.  min and max
# keep Python's rule, the first argument unless the second is strictly
# smaller (larger), so they agree on ties and on -0.0 against 0.0.
_ARRAY_OPS: dict[str, Callable[..., np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": _power,
    "abs": np.abs,
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
    **{name: _mapped(fn) for name, fn in UNARY_FUNCTIONS.items() if name != "abs"},
}


def _batch_evaluator(node: ExprAst) -> Callable[[np.ndarray], np.ndarray | None]:
    """The tree's values at a 1-D array of points, or None if any node fails at any of them.

    The walk on the array raises exactly when it raises at some point of
    it.  numpy's floating-point flags raise a zero divisor and any
    non-finite value an operator makes from finite operands, and the
    functions and ^ raise math's errors.  The flags miss an infinite
    literal carried on (inf * x, inf / 0), so a node with one as an
    operand checks its values, as does a constant root; x, in [0, 1],
    needs none.  So every value returned is finite, and bit for bit the
    walk's at its point.  Underflow is silent, as on Python floats.
    """

    def batch(xs: np.ndarray) -> np.ndarray | None:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            try:
                values = _evaluate(node, xs)
            except (_BatchFailed, FloatingPointError, ValueError, OverflowError):
                return None
        if isinstance(values, np.ndarray):
            return values.copy() if values is xs else values
        return np.full(xs.shape, values) if math.isfinite(values) else None  # no x: a constant root

    return batch


def eval_ast(node: ExprAst, x: float) -> float:
    """Evaluate the tree at x in [0, 1]; failures name the offending node.

    One walk of the tree; to evaluate it at many points, build
    to_real_function once and pass the points to its values().
    """
    return _evaluate(node, _check_unit(x))


def to_real_function(node: ExprAst) -> RealFunction:
    """Wrap a parsed tree as a RealFunction, probing it on a uniform grid.

    A call walks the tree at one point, and a batch walks it once on an
    array of points, whose values are bit for bit the calls'.
    RealFunction checks the domain of each call and each batch.
    """
    return RealFunction(evaluator=partial(_evaluate, node), batch=_batch_evaluator(node))
