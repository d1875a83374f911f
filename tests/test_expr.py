"""Expression language: tokenizing, parsing, printing, evaluating.

The evaluation fixtures carry hand-computed expected values (the oracle
is ordinary Python arithmetic, written without looking at the parser),
and the error fixtures freeze the full message text, offsets included —
the messages are part of the interface.
"""

from __future__ import annotations

import math
import re
import sys
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bernprim import (
    EvaluationError,
    ParseError,
    RealFunction,
    eval_ast,
    parse,
    to_real_function,
    to_text,
)
from bernprim.core import _PROBE_GRID
from bernprim.expr import Binary, Call, Const, Unary, Var, _batch_evaluator, _evaluate
from corpus import CORPUS

EVAL_CASES = [
    ("2+3*x^2", 1.0, 5.0),
    ("2*x+1", 0.5, 2.0),
    ("1-x-x", 0.25, 0.5),  # left-associative subtraction
    ("1/x/2", 0.5, 1.0),  # left-associative division
    ("x^x^2", 0.5, 0.5 ** (0.5**2)),  # right-associative power
    ("-x^2", 0.5, 0.25),  # unary minus binds to the base: (-x)^2
    ("2^-x", 0.5, 2.0**-0.5),
    ("--x", 0.3, 0.3),
    ("min(x, 1 - x)", 0.75, 0.25),
    ("max(x^2, x/2)", 0.25, 0.125),
    ("sin(3.141592653589793*x)", 0.5, 1.0),
    ("exp(x)", 1.0, math.e),
    ("sqrt(x)", 0.25, 0.5),
    ("log(exp(1)*x)", 1.0, 1.0),
    ("abs(x - 0.75)", 0.5, 0.25),
    ("2e-1 + x", 0.0, 0.2),
    (".5*x", 1.0, 0.5),
    ("x*1.5e1", 0.1, 1.5),
    ("(x + 1)^2", 0.5, 2.25),
    ("x^0.5", 0.25, 0.5),
    ("1/(1+x)", 1.0, 0.5),
    ("cos(0)", 0.9, 1.0),
]

PARSE_ERROR_CASES = [
    ("x^^2", 3, "parse error at byte 3: expected number, 'x', '(', '-', or function name, found '^'"),
    ("", 1, "parse error at byte 1: expected number, 'x', '(', '-', or function name, found end of input"),
    ("1 + + 2", 5, "parse error at byte 5: expected number, 'x', '(', '-', or function name, found '+'"),
    ("sin(x", 6, "parse error at byte 6: expected ')', found end of input"),
    ("sin(x, 1)", 6, "parse error at byte 6: expected ')', found ','"),
    ("min(x)", 6, "parse error at byte 6: expected ',', found ')'"),
    ("(x", 3, "parse error at byte 3: expected ')', found end of input"),
    ("x)", 2, "parse error at byte 2: expected end of input, found ')'"),
    ("x(1)", 2, "parse error at byte 2: expected end of input, found '('"),
    ("y + 1", 1, "parse error at byte 1: unknown identifier 'y'"),
    ("foo(x)", 1, "parse error at byte 1: unknown identifier 'foo'"),
    ("x $ 1", 3, "parse error at byte 3: expected number, identifier, or operator, found '$'"),
    # Before a syntax or depth error is raised, the whole text is scanned
    # for characters that start no token, so a bad character anywhere wins
    # over a syntax or depth error before it.
    ("x^^2 $", 6, "parse error at byte 6: expected number, identifier, or operator, found '$'"),
    ("x\t\n$", 4, "parse error at byte 4: expected number, identifier, or operator, found '$'"),
    ("(" * 3000 + "$", 3001, "parse error at byte 3001: expected number, identifier, or operator, found '$'"),
    ("(" * 3000 + "x", 101, "parse error at byte 101: expression nests deeper than 100 levels"),
    # A '.' starts a number only before a digit; inside one it is read
    # with the digits before it.
    ("1..5 + x.", 9, "parse error at byte 9: expected number, identifier, or operator, found '.'"),
    ("1e5.", 4, "parse error at byte 4: expected number, identifier, or operator, found '.'"),
    ("x1.", 3, "parse error at byte 3: expected number, identifier, or operator, found '.'"),
]

ROUNDTRIP_CORPUS = [
    "0",
    "1",
    "x",
    "-x",
    "--x",
    "-(x + 1)",
    "2.5",
    ".25",
    "1e3",
    "2e-1",
    "1.5E+2",
    "x + 1",
    "1 + x + 2",
    "1 - x - 2",
    "x*2",
    "2 * x * 3",
    "x/2",
    "1/x/2",
    "x^2",
    "x^x^x",
    "(x^x)^x",
    "-x^2",
    "2^-x",
    "x^-0.5",
    "(x + 1)^2",
    "x*(1 - x)",
    "(1 + x)*(1 - x)",
    "1 - (x - 1)",
    "x/(1 + x)",
    "2 + 3*x^2",
    "x^3 - 0.5*x + 0.25",
    "sin(x)",
    "cos(2*x)",
    "exp(-x)",
    "log(x + 1)",
    "sqrt(x + 0.25)",
    "abs(x - 0.5)",
    "min(x, 1 - x)",
    "max(x^2, x/2)",
    "min(max(x, 0.25), 0.75)",
    "sin(cos(exp(x)))",
    "sqrt(abs(x - 0.5))",
    "sin(x)^2 + cos(x)^2",
    "exp(x*log(x + 0.5))",
    "1/(1 + exp(-(x - 0.5)*10))",
    "x^2^x",
    "-sin(x)",
    "x - -x",
    "2*-x",
    "min(x, x) + max(x, x)",
    # Infinite constants, which repr() would print as 'inf'.
    "1e309",
    "-1e309",
    "x*1e309",
    "min(x, 1e309)",
]


class TestEvaluation:
    @pytest.mark.parametrize("text,x,expected", EVAL_CASES)
    def test_fixture_values(self, text, x, expected):
        assert eval_ast(parse(text), x) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    def test_corpus_texts_match_reference_callables(self):
        for entry in CORPUS:
            node = parse(entry.text)
            for i in range(21):
                x = i / 20
                assert eval_ast(node, x) == pytest.approx(entry.fn(x), rel=1e-13, abs=1e-15)

    def test_domain_check(self):
        node = parse("x")
        with pytest.raises(ValueError):
            eval_ast(node, -0.5)
        with pytest.raises(ValueError):
            eval_ast(node, 1.5)

    def test_deterministic(self):
        node = parse("sin(3*x) + exp(x)/2")
        assert eval_ast(node, 0.37) == eval_ast(node, 0.37)


class TestEvaluationErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvaluationError, match="division by zero"):
            eval_ast(parse("1/x"), 0.0)

    def test_log_domain(self):
        with pytest.raises(EvaluationError, match="failed at x="):
            eval_ast(parse("log(x)"), 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationError, match="failed at x="):
            eval_ast(parse("sqrt(x - 0.5)"), 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationError):
            eval_ast(parse("(0 - 2)^0.5"), 0.5)

    def test_overflow(self):
        with pytest.raises(EvaluationError):
            eval_ast(parse("exp(1000*x)"), 1.0)

    def test_message_names_the_subexpression(self):
        with pytest.raises(EvaluationError, match=r"1\.0 / x"):
            eval_ast(parse("2 + 1/x"), 0.0)


# (text, x, message from eval_ast at x, message from to_real_function's probe)
EVAL_ERROR_CASES = [
    (
        "1/x",
        0.0,
        "evaluation of '1.0 / x' failed at x=0.0: division by zero",
        "construction probe failed at x=0.0: evaluation of '1.0 / x' failed at x=0.0: division by zero",
    ),
    (
        "log(x)",
        0.0,
        "evaluation of 'log(x)' failed at x=0.0: math domain error",
        "construction probe failed at x=0.0: evaluation of 'log(x)' failed at x=0.0: math domain error",
    ),
    (
        "sqrt(x - 0.5)",
        0.0,
        "evaluation of 'sqrt(x - 0.5)' failed at x=0.0: math domain error",
        "construction probe failed at x=0.0: "
        "evaluation of 'sqrt(x - 0.5)' failed at x=0.0: math domain error",
    ),
    (
        "(0 - 2)^0.5",
        0.5,
        "evaluation of '(0.0 - 2.0)^0.5' failed at x=0.5: math domain error",
        "construction probe failed at x=0.0: "
        "evaluation of '(0.0 - 2.0)^0.5' failed at x=0.0: math domain error",
    ),
    (
        "exp(1000*x)",
        1.0,
        "evaluation of 'exp(1000.0 * x)' failed at x=1.0: math range error",
        "construction probe failed at x=0.7109375: "
        "evaluation of 'exp(1000.0 * x)' failed at x=0.7109375: math range error",
    ),
    (
        "1e308*x + 1e308*x",
        1.0,
        "evaluation of '1e+308 * x + 1e+308 * x' failed at x=1.0: non-finite result inf",
        "construction probe failed at x=0.90234375: "
        "evaluation of '1e+308 * x + 1e+308 * x' failed at x=0.90234375: non-finite result inf",
    ),
    (
        "1e308*x*10",
        1.0,
        "evaluation of '1e+308 * x * 10.0' failed at x=1.0: non-finite result inf",
        "construction probe failed at x=0.18359375: "
        "evaluation of '1e+308 * x * 10.0' failed at x=0.18359375: non-finite result inf",
    ),
    # Both operands fail at 0; the left one is evaluated, and fails, first.
    (
        "log(x) + 1/x",
        0.0,
        "evaluation of 'log(x)' failed at x=0.0: math domain error",
        "construction probe failed at x=0.0: evaluation of 'log(x)' failed at x=0.0: math domain error",
    ),
    (
        "max(sqrt(x - 1), 1/x)",
        0.0,
        "evaluation of 'sqrt(x - 1.0)' failed at x=0.0: math domain error",
        "construction probe failed at x=0.0: "
        "evaluation of 'sqrt(x - 1.0)' failed at x=0.0: math domain error",
    ),
    (
        "10^(400*x)",
        1.0,
        "evaluation of '10.0^(400.0 * x)' failed at x=1.0: math range error",
        "construction probe failed at x=0.7734375: "
        "evaluation of '10.0^(400.0 * x)' failed at x=0.7734375: math range error",
    ),
]


class TestFrozenEvaluationErrors:
    """Full messages, as the tree-walking evaluator worded them."""

    @pytest.mark.parametrize("text,x,message,_probe", EVAL_ERROR_CASES)
    def test_eval_ast_message(self, text, x, message, _probe):
        with pytest.raises(EvaluationError) as excinfo:
            eval_ast(parse(text), x)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text,_x,_message,probe", EVAL_ERROR_CASES)
    def test_probe_message(self, text, _x, _message, probe):
        with pytest.raises(EvaluationError) as excinfo:
            to_real_function(parse(text))
        assert str(excinfo.value) == probe


    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
    def test_left_operand_fails_first(self, op):
        with pytest.raises(EvaluationError) as excinfo:
            eval_ast(parse(f"log(x) {op} (1/x)"), 0.0)
        assert str(excinfo.value) == "evaluation of 'log(x)' failed at x=0.0: math domain error"


class TestParseErrors:
    @pytest.mark.parametrize("text,offset,message", PARSE_ERROR_CASES)
    def test_frozen_messages(self, text, offset, message):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert str(excinfo.value) == message
        assert excinfo.value.offset == offset

    def test_offsets_are_one_based_bytes(self):
        # Leading whitespace shifts the offset; byte 1 is the first byte.
        with pytest.raises(ParseError) as excinfo:
            parse("   ?")
        assert excinfo.value.offset == 4

    def test_whitespace_is_what_isspace_says(self):
        assert parse("x\u3000+\x1c1 \n") == parse("x + 1")
        assert not "\u200b".isspace()
        with pytest.raises(ParseError) as excinfo:
            parse("x\u200b+ 1")
        assert str(excinfo.value) == (
            "parse error at byte 2: expected number, identifier, or operator, found '\u200b'"
        )


class TestLexicalScan:
    """Tokens are made as the parser reads them; the bad-character scan runs in C."""

    @staticmethod
    def _scan_seconds(text: str) -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse(text)
            best = min(best, time.perf_counter() - start)
        return best

    def test_megabyte_scans_in_linear_time(self):
        # x+x+...+x then '$': the parser stops at byte 200, too deep, and
        # the scan then reads every character to find the '$', which wins.
        # Four times the text should take about four times as long; a
        # quadratic scan would take sixteen.
        small, large = ("x+" * 2**17 + "$", "x+" * 2**19 + "$")
        assert len(large) > 2**20
        with pytest.raises(ParseError) as excinfo:
            parse(large)
        assert excinfo.value.offset == len(large)
        assert self._scan_seconds(large) < 8 * self._scan_seconds(small)

    def test_scan_state_stays_bounded(self):
        # The regex engine keeps about 200 bytes a token within one match,
        # so the scan goes 2**10 tokens a match: 1 MB of tokens would
        # otherwise hold some 200 MB.
        text = "x+" * 2**19 + "$"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_parser_reads_only_the_tokens_it_needs(self):
        # A flat sum of a million x's is lexically fine, and the parser
        # stops at the 101st x: far sooner than tokenizing it all.
        text = "+".join(["x"] * 2**19)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == "parse error at byte 200: expression nests deeper than 100 levels"
        assert peak < 2**20


# (kind, deepest accepted text, the text one level deeper, byte it is rejected at,
#  the subexpression that fails at every x, or None)
DEPTH_CASES = [
    ("parentheses", "(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, 101, None),
    ("unary-minus", "-" * 99 + "x", "-" * 100 + "x", 1, None),
    ("power", "^".join(["x"] * 100), "^".join(["x"] * 101), 2, None),
    ("sin-calls", "sin(" * 99 + "x" + ")" * 99, "sin(" * 100 + "x" + ")" * 100, 1, None),
    ("min-calls", "min(" * 99 + "x" + ", x)" * 99, "min(" * 100 + "x" + ", x)" * 100, 1, None),
    ("flat-sum", "+".join(["x"] * 100), "+".join(["x"] * 101), 200, None),
    (
        "failing-min-calls",
        "min(" * 97 + "log(x - 1)" + ", x)" * 97,
        "min(" * 98 + "log(x - 1)" + ", x)" * 98,
        1,
        "log(x - 1.0)",
    ),
]


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDepthLimit:
    """Both sides of the 100-level limit, with 650 frames to spare.

    A nested call costs the parser four frames a level; a parser that spent
    seven or more would fail the accepted side.  A node that fails at the
    bottom of the deepest tree raises its EvaluationError, not a
    RecursionError, through the whole depth.
    """

    @pytest.mark.parametrize(
        "kind,deepest,deeper,offset,failing", DEPTH_CASES, ids=[case[0] for case in DEPTH_CASES]
    )
    def test_deepest_accepted_and_one_more(self, kind, deepest, deeper, offset, failing):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 650)
        try:
            tree = parse(deepest)
            assert parse(to_text(tree)) == tree
            if failing is None:
                assert math.isfinite(eval_ast(tree, 0.5))
                assert to_real_function(tree).values([0.5])[0] == eval_ast(tree, 0.5)
            else:
                message = f"evaluation of '{failing}' failed at x="
                with pytest.raises(EvaluationError, match=re.escape(message + "0.5:")):
                    eval_ast(tree, 0.5)
                with pytest.raises(EvaluationError, match=re.escape(message + "0.0:")):
                    to_real_function(tree)
            with pytest.raises(ParseError) as excinfo:
                parse(deeper)
        finally:
            sys.setrecursionlimit(limit)
        assert str(excinfo.value) == (
            f"parse error at byte {offset}: expression nests deeper than 100 levels"
        )
        assert excinfo.value.offset == offset


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
    def test_parse_print_parse_is_identity(self, text):
        tree = parse(text)
        printed = to_text(tree)
        assert parse(printed) == tree
        # The printer's own output is a fixed point.
        assert to_text(parse(printed)) == printed

    @pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
    def test_round_trip_preserves_values(self, text):
        tree = parse(text)
        reparsed = parse(to_text(tree))
        for x in (0.1, 0.5, 0.9):
            try:
                expected = eval_ast(tree, x)
            except EvaluationError:
                continue
            assert eval_ast(reparsed, x) == expected

    def test_negative_constants_keep_their_parentheses_and_sign(self):
        assert to_text(Const(-math.inf)) == "(-1e309)"
        assert to_text(Const(-2.5)) == "(-2.5)"
        assert to_text(Const(-0.0)) == "-0.0"


_PRINTABLE_CONSTANTS = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


def _ast_trees(values=_PRINTABLE_CONSTANTS, max_leaves=25):
    constants = values.map(Const)
    leaves = st.one_of(constants, st.just(Var()))

    def extend(children):
        return st.one_of(
            children.map(lambda c: Unary("-", c)),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            st.tuples(
                st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), children
            ).map(lambda t: Call(t[0], (t[1],))),
            st.tuples(st.sampled_from(["min", "max"]), children, children).map(
                lambda t: Call(t[0], (t[1], t[2]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


class TestProperties:
    @given(tree=_ast_trees())
    @settings(max_examples=250, deadline=None)
    def test_printer_inverts_to_parser(self, tree):
        assert parse(to_text(tree)) == tree

    @given(
        text=st.text(
            alphabet="x0123456789+-*/^(), .esincoqrtablgmp$",
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parser_is_total(self, text):
        # Arbitrary input either parses or raises ParseError — never
        # anything else.
        try:
            parse(text)
        except ParseError as exc:
            assert 1 <= exc.offset <= len(text) + 1


class TestToRealFunction:
    def test_wraps_and_probes(self):
        f = to_real_function(parse("x^2"))
        assert f(0.5) == 0.25

    def test_calls_check_the_domain(self):
        f = to_real_function(parse("x^2"))
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\], got 1\.5"):
            f(1.5)
        with pytest.raises(ValueError, match=r"got -0\.5"):
            f(-0.5)

    def test_probe_catches_bad_expressions(self):
        with pytest.raises(EvaluationError, match="probe"):
            to_real_function(parse("log(x)"))

    def test_probe_grid_hits_dyadic_poles(self):
        # 1/(x - 0.25) only blows up if the probe grid hits the pole;
        # the 257-point grid i/256 does.
        with pytest.raises(EvaluationError):
            to_real_function(parse("1/(x - 0.25)"))


# Constants for the batch tests: signed zeros for min and max, values that
# overflow, subnormals, and 1e400's infinity, besides ordinary reals.
_BATCH_CONSTANTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 1e308, 5e-324, math.inf]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)

# Points in [0, 1]: the ends, dyadics such as the probe's i/256, and any others.
_POINTS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.integers(0, 1024).map(lambda i: i / 1024),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=16,
)


def _scalar_hexes(tree, xs):
    """float.hex of the walk's value at each x, or None if any call raises or is not finite."""
    try:
        values = [float(_evaluate(tree, x)) for x in xs]
    except EvaluationError:
        return None
    return [v.hex() for v in values] if all(map(math.isfinite, values)) else None


class TestBatchEvaluation:
    """The walk on an array of points against the walk at each point, bit for bit."""

    @given(tree=_ast_trees(_BATCH_CONSTANTS, max_leaves=12), xs=_POINTS)
    @settings(max_examples=500, deadline=None)
    def test_batch_equals_scalar_walk(self, tree, xs):
        expected = _scalar_hexes(tree, xs)
        values = _batch_evaluator(tree)(np.array(xs))
        if expected is None:
            assert values is None
        else:
            assert [v.hex() for v in values.tolist()] == expected

    @given(tree=_ast_trees(_BATCH_CONSTANTS, max_leaves=12), xs=_POINTS)
    @settings(max_examples=200, deadline=None)
    def test_values_equal_calls_and_fail_as_they_do(self, tree, xs):
        try:
            f = to_real_function(tree)
        except EvaluationError:
            assume(False)
        try:
            expected = [f(x).hex() for x in xs]
        except EvaluationError as exc:
            with pytest.raises(EvaluationError) as excinfo:
                f.values(xs)
            assert str(excinfo.value) == str(exc)
        else:
            assert [v.hex() for v in f.values(xs).tolist()] == expected

    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("min(x, -x)", 0.0, "0x0.0p+0"),
            ("min(-x, x)", 0.0, "-0x0.0p+0"),
            ("max(x, -x)", 0.0, "0x0.0p+0"),
            ("max(-x, x)", 0.0, "-0x0.0p+0"),
            ("min(x, 0.5)", 0.5, "0x1.0000000000000p-1"),
            ("-x", 0.0, "-0x0.0p+0"),
            ("x^2", 0.1, (0.1**2).hex()),
        ],
    )
    def test_signed_zeros_and_ties(self, text, x, expected):
        tree = parse(text)
        assert _batch_evaluator(tree)(np.array([x]))[0].hex() == expected
        assert float(eval_ast(tree, x)).hex() == expected

    @pytest.mark.parametrize(
        "text",
        [
            # An infinity that the next node would turn finite again.
            "min(1e400*x, 1)",
            "max(x - 1e400, 0)",
            "exp(x - 1e400)",
            "1/(x + 1e400)",
            "(x + 1e400)^0",
            "0.5^(x + 1e400)",
            # One that reaches the root through nodes without checks.
            "-(1e308*x*10)",
            "-abs(1e308*x*10)",
        ],
    )
    def test_non_finite_values_fail_the_batch(self, text):
        tree = parse(text)
        assert _scalar_hexes(tree, [0.0, 0.5, 1.0]) is None
        assert _batch_evaluator(tree)(np.array([0.0, 0.5, 1.0])) is None

    @pytest.mark.parametrize(
        "text,fails",
        [
            ("1/(x - 1)", True),
            ("1e308*x*10", True),
            ("exp(800*x)", True),
            ("x*1e309", True),
            ("1/(1e309*x)", True),
            ("1e309/(x - 1)", True),
            ("min(x, 1e309)", False),
            ("x/1e309", False),
        ],
    )
    def test_flags_hold_at_every_remainder_length(self, text, fails):
        # numpy runs a loop in SIMD lanes and then a remainder; at every
        # length, a point that fails first, in the middle or last fails
        # the batch, and leaves numpy's error settings as they were.
        tree, errors = parse(text), np.geterr()
        for size in range(1, 71):
            for at in {0, size // 2, size - 1}:
                xs = (np.arange(size) + 1.0) / 2**12
                xs[at] = 1.0
                expected = _scalar_hexes(tree, xs.tolist())
                assert (expected is None) == fails
                values = _batch_evaluator(tree)(xs)
                assert (None if values is None else [v.hex() for v in values.tolist()]) == expected
                assert np.geterr() == errors

    @pytest.mark.parametrize("text", ["log(x)", "1/(x - 0.5)", "sqrt(x - 1)", "exp(800*x)", "1e400"])
    def test_failing_probe_batch_gives_the_scalar_message(self, text):
        tree = parse(text)
        assert _batch_evaluator(tree)(_PROBE_GRID) is None
        with pytest.raises(EvaluationError) as scalar:
            RealFunction(partial(_evaluate, tree))
        with pytest.raises(EvaluationError) as batched:
            to_real_function(tree)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("first", [0, 1, 40000, 2**16 - 2])
    def test_first_failing_point_costs_one_call(self, first):
        # 2**16 points (i + 1) / 2**17 and a pole at the first-th: odd
        # numerators, so no pole is a probe point i/256.
        xs = (np.arange(2**16) + 1) / 2**17
        pole = xs[first].item()
        f = to_real_function(parse(f"1/(x - {pole!r})"))
        calls, batches = [], []
        counted = RealFunction(
            lambda x: calls.append(x) or f.evaluator(x),
            batch=lambda points: batches.append(points.size) or f.batch(points),
        )
        batches.clear()  # the probe's batch
        with pytest.raises(EvaluationError) as batched:
            counted.values(xs)
        assert calls == [pole]
        assert len(batches) <= (2 if first == 0 else 2 * 16 + 2)
        with pytest.raises(EvaluationError) as loop:
            RealFunction(f.evaluator).values(xs)
        assert str(batched.value) == str(loop.value)

    def test_values_check_the_domain_once(self):
        f = to_real_function(parse("x^2"))
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\], got 1\.5"):
            f.values([0.5, 1.5, -0.5])
        with pytest.raises(ValueError, match=r"got nan"):
            f.values([math.nan])
        with pytest.raises(ValueError, match="one-dimensional"):
            f.values([[0.5]])
        assert f.values([]).size == 0
