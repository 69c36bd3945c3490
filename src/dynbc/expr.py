"""Scalar expressions in the variables t, x, z, p.

All coefficient functions of a problem (diffusivity, right-hand sides,
boundary data, initial data, growth gauges) enter the package as small
expression trees parsed from text.  The grammar is plain infix arithmetic:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are restricted to the variables ``t x z p``, the constants
``pi e`` and the function names ``sin cos exp log sqrt abs tanh sign``.
The exponent of ``^`` must fold to a constant, which keeps symbolic
differentiation closed under the node set.  Parsing does no simplification
beyond constant folding.  Differentiation also drops what is identically
zero: a zero factor or numerator makes a product or quotient zero, and a
zero term leaves a sum, so the derivative in a variable the expression does
not read is exactly 0 instead of ``0 * <tree>`` (nan once the tree overflows).

Trees are immutable; all operations here are pure.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary",
    "parse", "evaluate", "diff", "to_str", "compile_expr", "free_variables",
]

VARIABLES = ("t", "x", "z", "p")
NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # one of VARIABLES


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a FUNCTIONS entry
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]


# ---------------------------------------------------------------------------
# the operations: scalar value with its domain rule, and a function's
# derivative; a function's kernel is always numpy's function of that name

def _log(v: float) -> float:
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v}")
    return math.log(v)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise DomainError("zero raised to negative power")
    if a < 0.0 and b != math.floor(b):
        raise DomainError(f"negative base {a} with non-integer exponent {b}")
    return a ** b


# name -> (scalar value with its domain rule, the factor f'(arg) that the
# derivative of the node f(arg) puts on d(arg), built from that node)
_FUNCTIONS = {
    "sin": (math.sin, lambda e: _fold_unary("cos", e.arg)),
    "cos": (math.cos, lambda e: _fold_unary("neg", _fold_unary("sin", e.arg))),
    "exp": (math.exp, lambda e: e),
    "log": (_log, lambda e: _fold_binary("/", Const(1.0), e.arg)),
    "sqrt": (_sqrt, lambda e: _fold_binary("/", Const(0.5), e)),
    "abs": (abs, lambda e: _fold_unary("sign", e.arg)),
    "tanh": (math.tanh, lambda e: _fold_binary("-", Const(1.0), _fold_binary("^", e, Const(2.0)))),
    # flat away from 0; 0 at 0 by the abs convention
    "sign": (lambda v: float((v > 0) - (v < 0)), lambda e: Const(0.0)),
}
FUNCTIONS = tuple(_FUNCTIONS)
_UNARY = {"neg": operator.neg, **{name: value for name, (value, _) in _FUNCTIONS.items()}}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}


# ---------------------------------------------------------------------------
# construction with constant folding

def _fold_unary(op: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        try:
            return Const(_UNARY[op](arg.value))
        # an overflow or a math domain error (sin(inf)) is left to evaluation
        except (DomainError, OverflowError, ValueError):
            pass
    return Unary(op, arg)


def _fold_binary(op: str, left: Expr, right: Expr) -> Expr:
    if isinstance(left, Const) and isinstance(right, Const):
        try:
            return Const(_BINARY[op](left.value, right.value))
        except (DomainError, OverflowError):
            pass
    return Binary(op, left, right)


# ---------------------------------------------------------------------------
# parsing

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            if text[i].isspace():
                i += 1
                continue
            m = _NUMBER_RE.match(text, i)
            if m:
                self.tokens.append(("num", m.group(0), i))
                i = m.end()
                continue
            c = text[i]
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if c in "()+-*/^":
                self.tokens.append(("op", c, i))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.tok = _Tokenizer(text)

    def parse(self) -> Expr:
        e = self._expr()
        kind, value, offset = self.tok.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", offset)
        return e

    def _accept(self, ops: str) -> str | None:
        """Take the next token if it is one of the operators ops."""
        kind, value, _ = self.tok.peek()
        if kind == "op" and value in ops:
            self.tok.next()
            return value
        return None

    def _expect(self, op: str, message: str) -> None:
        kind, value, offset = self.tok.next()
        if not (kind == "op" and value == op):
            raise ExprSyntaxError(message, offset)

    def _expr(self, ops: str = "+-") -> Expr:
        """An expr, or a term when ops is '*/': operands joined left to right."""
        operand = self._factor if ops == "*/" else lambda: self._expr("*/")
        e = operand()
        while op := self._accept(ops):
            e = _fold_binary(op, e, operand())
        return e

    def _factor(self) -> Expr:
        if self._accept("-"):
            return _fold_unary("neg", self._factor())
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        offset = self.tok.peek()[2]
        if self._accept("^"):
            exponent = self._factor()
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent must fold to a constant", offset)
            return _fold_binary("^", base, exponent)
        return base

    def _atom(self) -> Expr:
        kind, value, offset = self.tok.next()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if value in VARIABLES:
                return Var(value)
            if value in NAMED_CONSTANTS:
                return Const(NAMED_CONSTANTS[value])
            if value in _FUNCTIONS:
                self._expect("(", f"expected '(' after function {value!r}")
                arg = self._expr()
                self._expect(")", "expected ')'")
                return _fold_unary(value, arg)
            raise UnknownIdentifier(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            e = self._expr()
            self._expect(")", "expected ')'")
            return e
        raise ExprSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)


def parse(text: str) -> Expr:
    """Parse expression text into a tree.

    Raises ExprSyntaxError (with byte offset) on malformed input and
    UnknownIdentifier on names outside the allowed symbol set.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, t: float = 0.0, x: float = 0.0, z: float = 0.0, p: float = 0.0) -> float:
    """Evaluate to an IEEE double; unused variables are ignored.

    Raises DomainError (carrying the offending node) for every operation
    that fails: log/sqrt of a negative argument, division by zero, a
    negative base with a non-integer exponent, and math's overflow and
    domain errors (``exp(z): math range error``).
    """
    env = {"t": float(t), "x": float(x), "z": float(z), "p": float(p)}
    return _eval(e, env)


def _eval(e: Expr, env: dict) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        op, args = _UNARY[e.op], (_eval(e.arg, env),)
    else:
        op, args = _BINARY[e.op], (_eval(e.left, env), _eval(e.right, env))
    try:
        return op(*args)
    except DomainError as exc:
        raise DomainError(str(exc), node=e) from None
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"{to_str(e)}: {exc}", node=e) from None


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr, v: str) -> Expr:
    """Exact symbolic derivative with respect to v in {t, x, z, p}.

    abs differentiates to sign, which evaluates to 0 at the kink; this is
    the one convention the node set needs to stay total.
    """
    if v not in VARIABLES:
        raise ValueError(f"cannot differentiate with respect to {v!r}")
    return _diff(e, v)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Const(0.0)
    return _fold_binary("*", a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return _fold_binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    return a if _is_zero(b) else _fold_binary("-", a, b)


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == v else 0.0)
    if isinstance(e, Unary):
        du = _diff(e.arg, v)
        if e.op == "neg":
            return _fold_unary("neg", du)
        return _mul(_FUNCTIONS[e.op][1](e), du)
    if isinstance(e, Binary):
        dl = _diff(e.left, v)
        dr = _diff(e.right, v)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(dl, e.right), _mul(e.left, dr))
        if e.op == "/":
            num = _sub(_mul(dl, e.right), _mul(e.left, dr))
            if _is_zero(num):
                return Const(0.0)
            return _fold_binary("/", num, _fold_binary("^", e.right, Const(2.0)))
        if e.op == "^":
            c = e.right
            if not isinstance(c, Const):
                raise ValueError("exponent must be a constant")
            powm1 = _fold_binary("^", e.left, Const(c.value - 1.0))
            return _mul(_mul(c, powm1), dl)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, (Const, Var)):
        # a folded negative constant prints with a leading minus
        if isinstance(e, Const) and (e.value < 0 or (e.value == 0 and math.copysign(1, e.value) < 0)):
            return _PREC["neg"]
        return 5
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else 5
    return _PREC[e.op]


def to_str(e: Expr) -> str:
    """Render with the fewest parentheses that still reparse to the same tree."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_str(e.arg)
            if _prec(e.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_str(e.arg)})"
    lhs, rhs = to_str(e.left), to_str(e.right)
    prec = _PREC[e.op]
    if _prec(e.left) < prec or (e.op == "^" and _prec(e.left) <= prec):
        lhs = f"({lhs})"
    # right operand needs parens at equal precedence too: a-(b-c), a/(b/c), a+(b+c)
    if e.op != "^" and _prec(e.right) <= prec:
        rhs = f"({rhs})"
    return f"{lhs}{e.op}{rhs}"


# ---------------------------------------------------------------------------
# compilation to a numpy-vectorized callable

def _pycode(e: Expr) -> str:
    if isinstance(e, Const):
        return f"({e.value!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{_pycode(e.arg)})"
        return f"_np.{e.op}({_pycode(e.arg)})"
    op = "**" if e.op == "^" else e.op
    left = _pycode(e.left)
    if isinstance(e.left, Const) and isinstance(e.right, Const):
        # a fold that failed (1/0, 10^400): numpy's inf/nan, not Python's error
        left = f"_np.float64{left}"
    return f"({left}{op}{_pycode(e.right)})"


def compile_expr(e: Expr):
    """Compile to ``f(t=0, x=0, z=0, p=0)`` broadcasting over numpy arrays.

    The compiled form does not police domains and never raises: out-of-domain
    points and non-finite constants yield nan/inf under numpy semantics
    (callers check finiteness), given numpy arrays or scalars.  Nor does it
    touch numpy's floating-point error policy: callers set it once per entry
    point (``np.errstate``), not around each kernel call.  The result is what
    the arithmetic gives, a float or an array.  Use ``evaluate`` for the
    strict scalar contract.
    """
    src = f"def _f(t=0.0, x=0.0, z=0.0, p=0.0):\n    return {_pycode(e)}\n"
    ns = {"_np": np, "inf": math.inf, "nan": math.nan}
    exec(src, ns)
    f = ns["_f"]
    f.expr = e
    return f


def free_variables(e: Expr) -> set[str]:
    """The variable names the expression actually reads."""
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_variables(e.arg)
    return free_variables(e.left) | free_variables(e.right)
