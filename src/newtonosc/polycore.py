"""Exact bivariate polynomials over Q, a small phase parser, and series types.

Everything upstream of the numerics is exact: coefficients are Fractions
and supports are integer lattice points.  Float evaluation (eval_grid,
eval_branch) rounds each coefficient to a float and computes in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, NegativeExponentError, ParseError

RationalLike = Union[int, Fraction]


class BivarPoly:
    """Polynomial in x and y with rational coefficients.

    Stored as a map (deg_x, deg_y) -> Fraction with zero coefficients
    removed, so equality of the maps is equality of polynomials.  Instances
    are immutable; arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], RationalLike] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (a, b), value in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative degree in support: {(a, b)}")
                coeff = Fraction(value)
                if coeff != 0:
                    clean[(int(a), int(b))] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], Fraction]) -> "BivarPoly":
        obj = cls.__new__(cls)
        obj._terms = {k: v for k, v in terms.items() if v != 0}
        return obj

    @classmethod
    def constant(cls, c: RationalLike) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "BivarPoly":
        if name == "x":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(a + b for a, b in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, Fraction(0)) + coeff
        return BivarPoly._raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._raw({k: -v for k, v in self._terms.items()})

    def __sub__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivarPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponents must be nonnegative integers")
        result = BivarPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, var: str) -> "BivarPoly":
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        idx = 0 if var == "x" else 1
        out: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in self._terms.items():
            deg = (a, b)[idx]
            if deg == 0:
                continue
            key = (a - 1, b) if idx == 0 else (a, b - 1)
            out[key] = out.get(key, Fraction(0)) + c * deg
        return BivarPoly._raw(out)

    def render(self) -> str:
        """Canonical string form; parse_poly(render(p)) == p."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for a, b in sorted(self._terms):
            coeff = self._terms[(a, b)]
            factors: list[str] = []
            if a == 1:
                factors.append("x")
            elif a > 1:
                factors.append(f"x^{a}")
            if b == 1:
                factors.append("y")
            elif b > 1:
                factors.append(f"y^{b}")
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            text = "*".join(factors)
            if not parts:
                parts.append(text if coeff > 0 else "-" + text)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BivarPoly({self.render()!r})"


def _coerce(value) -> BivarPoly | None:
    if isinstance(value, BivarPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BivarPoly.constant(value)
    return None


# --- parsing ---------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in ("x", "y"):
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over: expr of terms, term of factors, factor = base^int.

    Division is allowed by a positive integer literal only, at term level,
    left associative, which is how rational coefficients like x^2*y^2/4 and
    bare 3/4 both come in.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> BivarPoly:
        poly = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return poly

    def expr(self) -> BivarPoly:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        poly = self.term()
        if negate:
            poly = -poly
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> BivarPoly:
        poly = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
                poly = poly * self.factor()
            elif kind == "/":
                self.advance()
                k, value, pos = self.peek()
                if k != "int":
                    raise ParseError("divisor must be an integer literal", pos)
                if value == 0:
                    raise ParseError("division by zero", pos)
                self.advance()
                poly = poly * Fraction(1, value)
            else:
                return poly

    def factor(self) -> BivarPoly:
        poly = self.base()
        if self.peek()[0] == "^":
            self.advance()
            return poly ** self.exponent()
        return poly

    def exponent(self) -> int:
        kind, value, pos = self.peek()
        parens = False
        if kind == "(":
            parens = True
            self.advance()
            kind, value, pos = self.peek()
        neg_pos = None
        if kind == "-":
            neg_pos = pos
            self.advance()
            kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", pos)
        self.advance()
        if parens:
            k, _, p = self.peek()
            if k != ")":
                raise ParseError("expected ')' after exponent", p)
            self.advance()
        if neg_pos is not None:
            raise NegativeExponentError("exponent must be nonnegative", neg_pos)
        return int(value)

    def base(self) -> BivarPoly:
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return BivarPoly.constant(int(value))
        if kind == "var":
            self.advance()
            return BivarPoly.variable(str(value))
        if kind == "(":
            self.advance()
            poly = self.expr()
            k, _, p = self.peek()
            if k != ")":
                raise ParseError("expected ')'", p)
            self.advance()
            return poly
        raise ParseError("expected a number, variable, or '('", pos)


def parse_poly(text: str) -> BivarPoly:
    """Parse a polynomial in x and y with integer or fractional coefficients.

    >>> parse_poly("x^2*y^2/4").terms
    {(2, 2): Fraction(1, 4)}
    """
    return _Parser(text).parse()


# --- calculus and evaluation ----------------------------------------------


def mixed_derivative(phase: BivarPoly) -> BivarPoly:
    """d2/dxdy of the phase; everything downstream feeds on this."""
    return phase.diff("x").diff("y")


def integrate_xy(mixed: BivarPoly) -> BivarPoly:
    """A phase with the given mixed derivative and no pure-x or pure-y part.

    Each monomial c*x^a*y^b lifts to c*x^(a+1)*y^(b+1)/((a+1)(b+1)), exactly.
    """
    return BivarPoly(
        {(a + 1, b + 1): c / ((a + 1) * (b + 1)) for (a, b), c in mixed.terms.items()}
    )


def eval_grid(poly: BivarPoly, xs, ys) -> np.ndarray:
    """Vectorized float evaluation on a tensor grid: out[i, j] = p(xs[i], ys[j])."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((xs.size, ys.size))
    for (a, b), c in poly.terms.items():
        out += float(c) * np.outer(xs**a, ys**b)
    return out


# --- fractional power series ----------------------------------------------


class Reality(str, Enum):
    REAL = "Real"
    COMPLEX_PAIR = "ComplexPair"


@dataclass(frozen=True)
class PuiseuxTerm:
    """One term c * x^e of a fractional power series, e >= 0, c != 0."""

    exponent: Fraction
    coefficient: complex

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if self.exponent < 0:
            raise ValueError("negative exponent in series term")
        if self.coefficient == 0:
            raise ValueError("zero coefficients are dropped, not stored")


@dataclass(frozen=True)
class PuiseuxBranch:
    """A solution sheet y = sum c_k x^(e_k) of F(x, y(x)) = 0 near x = 0+.

    exact marks sheets whose series terminates (the sum is the whole
    solution); order is the truncation exponent otherwise.  ramification,
    the lcm of the exponent denominators, is this sheet's alone: no
    substitution x -> x^(1/r) is ever shared across branches.
    split_undetermined marks a non-exact cluster of several sheets that
    could not be told apart at this order.
    """

    terms: tuple[PuiseuxTerm, ...]
    multiplicity: int = 1
    exact: bool = False
    order: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a branch needs at least one term")
        exponents = [t.exponent for t in self.terms]
        for e0, e1 in zip(exponents, exponents[1:]):
            if not e0 < e1:
                raise ValueError("series exponents must increase strictly")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")

    @property
    def ramification(self) -> int:
        return math.lcm(*(t.exponent.denominator for t in self.terms))

    @property
    def reality(self) -> Reality:
        if all(t.coefficient.imag == 0 for t in self.terms):
            return Reality.REAL
        return Reality.COMPLEX_PAIR

    @property
    def split_undetermined(self) -> bool:
        return not self.exact and self.multiplicity > 1

    @property
    def leading_exponent(self) -> Fraction:
        return self.terms[0].exponent

    @property
    def leading_coefficient(self) -> complex:
        return self.terms[0].coefficient


def eval_branch(branch: PuiseuxBranch, x: float) -> float | complex:
    """Sum the series at a point x > 0; fractional powers need the open axis.

    Returns a real float when the imaginary part cancels exactly.
    """
    if not x > 0:
        raise DomainError(f"branch evaluation needs x > 0, got {x}")
    total = 0j
    for term in branch.terms:
        total = total + term.coefficient * x ** float(term.exponent)
    if total.imag == 0.0:
        return total.real
    return total
