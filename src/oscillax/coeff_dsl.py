"""Tiny expression language for radial coefficient functions.

Coefficients are functions of a single variable ``s``.  The grammar covers
arithmetic (+, -, *, /, ^), the functions sin, cos, exp, log, abs, the
constant ``pi`` and numeric literals.  There are no conditionals: a
piecewise coefficient is a plain vectorised callable.  An expression is
called like any other coefficient, so every consumer calls p, q, a1 and a2
as it was given them, whichever kind they are.

Expressions are immutable.  Evaluation is vectorised over numpy arrays and
refuses to return non-finite values: division by zero, log of a non-positive
argument, overflow and the like raise :class:`DomainError` pointing at the
offending abscissa instead of leaking NaN into downstream quadratures.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "CoefficientExpr",
    "DomainError",
    "ParseError",
    "parse",
]


class ParseError(ValueError):
    """Raised for malformed source text, with a character position."""


class DomainError(ValueError):
    """Raised when evaluation would produce a non-finite value."""


# ---------------------------------------------------------------------------
# AST nodes

class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    """The variable s.  It has no fields, so it is falsy: test nodes by type, not truth."""


class Neg(NamedTuple):
    operand: "Node"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


class Call(NamedTuple):
    func: str  # one of sin cos exp log abs
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
}

_CONSTANTS = {"pi": math.pi}


# ---------------------------------------------------------------------------
# Tokenizer / parser.  Recursive descent with the usual precedence ladder:
# sum < product < unary minus < power (right associative) < atoms.

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_exp:
                    # exponent must be followed by digits, optionally signed
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        seen_exp = True
                        j = k
                    else:
                        break
                else:
                    break
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"bad numeric literal {lexeme!r} at position {i}") from None
            if not math.isfinite(value):  # it would print as inf, which does not parse back
                raise ParseError(f"numeric literal {lexeme!r} at position {i} overflows a "
                                 f"float64")
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, where = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} at position {where}")
        self.advance()

    def parse(self) -> Node:
        node = self.sum()
        kind, val, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r} at position {where}")
        return node

    def sum(self) -> Node:
        node = self.product()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(str(val), node, self.product())
            else:
                return node

    def product(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(str(val), node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # right associative, exponent may carry its own sign
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, where = self.advance()
        if kind == "num":
            return Num(float(val))  # type: ignore[arg-type]
        if kind == "name":
            name = str(val)
            if name == "s":
                return Var()
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(name, arg)
            raise ParseError(f"unknown identifier {name!r} at position {where}")
        if kind == "op" and val == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {'end of input' if kind == 'end' else repr(val)} at position {where}")


# ---------------------------------------------------------------------------
# Evaluation

def _eval_node(node: Node, s: np.ndarray) -> np.ndarray:
    if isinstance(node, Num):
        return np.full_like(s, node.value)
    if isinstance(node, Var):
        return s
    if isinstance(node, Neg):
        return -_eval_node(node.operand, s)
    if isinstance(node, Call):
        return _FUNCTIONS[node.func](_eval_node(node.arg, s))
    if isinstance(node, BinOp):
        a = _eval_node(node.left, s)
        b = _eval_node(node.right, s)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        if node.op == "^":
            return np.power(a, b)
    raise TypeError(f"not an expression node: {node!r}")


def _check_finite(values: np.ndarray, s: np.ndarray, source: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"expression {source!r} is not finite at s = {float(s.flat[i])!r}"
        )


# ---------------------------------------------------------------------------
# Printing.  Minimal parentheses, ASCII operators, literals via repr so the
# printed form parses back to the identical tree.

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_number(x: float) -> str:
    if abs(x) < 1e16 and x == math.floor(x) and not (x == 0 and math.copysign(1, x) < 0):
        return str(int(x))
    return repr(x)


def _print_node(node: Node, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Num):
        text = _fmt_number(node.value)
        if node.value < 0 or text.startswith("-"):
            # negative literal behaves like a unary minus for precedence
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return text
    if isinstance(node, Var):
        return "s"
    if isinstance(node, Call):
        return f"{node.func}({_print_node(node.arg, 0, False)})"
    if isinstance(node, Neg):
        inner = _print_node(node.operand, _PRECEDENCE["neg"], False)
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] or (parent_prec == _PRECEDENCE["neg"] and right_side) else text
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            # right associative; left operand needs parens at equal precedence
            left = _print_node(node.left, prec + 1, False)
            right = _print_node(node.right, prec, True)
        else:
            left = _print_node(node.left, prec, False)
            right = _print_node(node.right, prec + 1, True)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        # the operand-side bumps above already force parens where
        # associativity demands them, so only lower precedence wraps
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Public wrapper

class CoefficientExpr(NamedTuple):
    """An immutable coefficient function of ``s``: its source and its AST."""

    source: str
    ast: Node

    def evaluate_grid(self, grid: np.ndarray) -> np.ndarray:
        """Evaluate on an array of abscissae (need not be sorted)."""
        s = np.asarray(grid, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(_eval_node(self.ast, s), dtype=float)
        _check_finite(out, s, self.source)
        return out

    def __call__(self, s):
        """The coefficient at s, called like any coefficient: a float at a
        number, an array at an array.  A non-finite value raises DomainError."""
        arr = np.asarray(s, dtype=float)
        if arr.ndim == 0:
            return float(self.evaluate_grid(arr.reshape(1))[0])
        return self.evaluate_grid(arr)

    def to_source(self) -> str:
        return _print_node(self.ast, 0, False)


def parse(text: str) -> CoefficientExpr:
    """The expression of a source text; its source is the canonical printed form."""
    node = _Parser(text).parse()
    return CoefficientExpr(source=_print_node(node, 0, False), ast=node)
