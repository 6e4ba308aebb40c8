import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oscillax.coeff_dsl import (
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    Var,
    _print_node,
    parse,
)


# ---------------------------------------------------------------------------
# parsing and evaluation


def test_literals_and_pi():
    assert parse("2")(0.0) == 2.0
    assert parse("2.5e-1")(0.0) == 0.25
    assert parse("pi")(123.0) == math.pi


def test_variable():
    assert parse("s")(7.25) == 7.25


@pytest.mark.parametrize("src,at,expected", [
    ("2+3*4", 0.0, 14.0),
    ("(2+3)*4", 0.0, 20.0),
    ("2*3^2", 0.0, 18.0),
    ("-s^2", 3.0, -9.0),          # unary minus binds looser than power
    ("2^3^2", 0.0, 512.0),        # right associative
    ("6/3/2", 0.0, 1.0),          # left associative
    ("1 - 2 - 3", 0.0, -4.0),
    ("2*pi/s", math.pi, 2.0),
])
def test_precedence(src, at, expected):
    assert parse(src)(at) == pytest.approx(expected, rel=0, abs=1e-15)


@pytest.mark.parametrize("name,fn", [
    ("sin", math.sin), ("cos", math.cos), ("exp", math.exp),
    ("log", math.log), ("abs", abs),
])
def test_functions(name, fn):
    e = parse(f"{name}(s)")
    for x in (0.5, 1.0, 2.75):
        assert e(x) == pytest.approx(fn(x), rel=1e-15)


def test_vectorised_evaluation_matches_scalar():
    e = parse("sin(s)^2 + cos(s)^2")
    s = np.linspace(0.1, 9.7, 257)
    vals = e.evaluate_grid(s)
    assert vals.shape == s.shape
    assert np.allclose(vals, 1.0, rtol=0, atol=1e-15)
    # __call__ dispatches on dimensionality
    assert np.isscalar(e(1.0)) or np.ndim(e(1.0)) == 0
    assert e(s).shape == s.shape


# ---------------------------------------------------------------------------
# errors


@pytest.mark.parametrize("src", [
    "", "2 +", "sin()", "(", "2 ** 3", "foo(s)", "t + 1", "1..2", "2 3",
])
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse(src)


def test_parse_error_carries_position():
    with pytest.raises(ParseError, match=r"position"):
        parse("1 + @")


def test_a_literal_past_float_range_is_a_parse_error_and_one_below_it_round_trips():
    # 1e999 would read as inf and print as "inf", which does not parse back
    with pytest.raises(ParseError, match=r"literal '1e999' at position 13 overflows"):
        parse("1/s^3 + exp(-1e999*s)")
    tiny = parse("1/s^3 + exp(-1e-999*s)")
    assert parse(tiny.source).ast == tiny.ast


def test_division_by_zero_names_the_abscissa():
    e = parse("1/(s - 2)")
    with pytest.raises(DomainError, match=r"s = 2"):
        e.evaluate_grid(np.array([0.0, 1.0, 2.0, 3.0]))


def test_log_of_nonpositive_is_a_domain_error():
    with pytest.raises(DomainError):
        parse("log(s)")(-1.0)


# ---------------------------------------------------------------------------
# printing round trip


def test_to_source_round_trip_simple():
    src = "2*sin(s)^2 - 1"
    e = parse(src)
    assert e.source == src
    assert parse(e.source).ast == e.ast


def test_printer_emits_minimal_parentheses():
    assert parse("(s+1)*2").source == "(s + 1)*2"
    assert parse("s+1*2").source == "s + 1*2"
    assert parse("(2^3)^2").source == "(2^3)^2"
    assert parse("2^(3^2)").source == "2^3^2"


_leaf = st.one_of(
    st.just(Var()),
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Num, st.integers(min_value=0, max_value=999).map(float)),
)


def _exprs(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "abs", "log"]), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    )


_ast = st.recursive(_leaf, _exprs, max_leaves=25)


@given(_ast)
def test_print_parse_round_trip_is_exact(node):
    """Printing and reparsing reproduces the tree node for node."""
    assert parse(_print_node(node, 0, False)).ast == node


# ---------------------------------------------------------------------------
# misc contracts


def test_expr_is_immutable():
    e = parse("s + 1")
    with pytest.raises(AttributeError):
        e.source = "other"


def test_an_expression_is_called_like_a_plain_callable():
    grid = np.linspace(0.0, 1.0, 5)
    f1 = parse("2*s")
    f2 = lambda s: 2.0 * np.asarray(s)
    assert np.allclose(f1(grid), f2(grid), rtol=0, atol=0)
    # at a number the expression gives a float, as a scalar coefficient does
    assert type(f1(0.5)) is float and f1(0.5) == f2(0.5)
