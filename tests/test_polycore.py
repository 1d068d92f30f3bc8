"""Parser, exact arithmetic, and series container checks."""

import ast
import hashlib
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import newtonosc
from newtonosc.errors import NegativeExponentError, ParseError
from newtonosc.polycore import (
    BivarPoly,
    RationalLike,
    integrate_xy,
    mixed_derivative,
    parse_poly,
)
from newtonosc.puiseux import PuiseuxBranch, PuiseuxTerm, Reality

F = Fraction


def eval_exact(poly: BivarPoly, x: RationalLike, y: RationalLike) -> Fraction:
    x = Fraction(x)
    y = Fraction(y)
    total = Fraction(0)
    for (a, b), c in poly.terms.items():
        total += c * x**a * y**b
    return total


def eval_poly(poly: BivarPoly, x: float, y: float) -> float:
    """Evaluate at float arguments through exact rational arithmetic.

    The binary values of x and y are taken as exact rationals, the sum is
    formed exactly, and a single rounding happens on return, so the result
    is the correctly rounded value of the polynomial at (x, y).
    """
    return float(eval_exact(poly, Fraction(x), Fraction(y)))


class TestParse:
    def test_quartic_coefficient(self):
        assert parse_poly("x^2*y^2/4").terms == {(2, 2): F(1, 4)}

    def test_binomial_square(self):
        assert parse_poly("(y-x)^2").terms == {(0, 2): 1, (1, 1): -2, (2, 0): 1}

    def test_zero(self):
        assert parse_poly("0").terms == {}
        assert not parse_poly("x - x")

    def test_rational_literal(self):
        assert parse_poly("3/4").terms == {(0, 0): F(3, 4)}
        assert parse_poly("1/2*x").terms == {(1, 0): F(1, 2)}

    def test_leading_minus(self):
        assert parse_poly("-(y-x)^4/12") == -(parse_poly("(y-x)^2") ** 2) * F(1, 12)

    def test_whitespace_insignificant(self):
        assert parse_poly(" x ^ 2 + y ") == parse_poly("x^2+y")

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponentError) as info:
            parse_poly("x^(-1)")
        assert info.value.position == 3

    def test_negative_exponent_bare(self):
        with pytest.raises(NegativeExponentError):
            parse_poly("x^-2")

    def test_syntax_errors_carry_position(self):
        for text, pos in [("x +", 3), ("2x", 1), ("(x", 2), ("x^", 2), ("x & y", 2), ("x^(2", 4)]:
            with pytest.raises(ParseError) as info:
                parse_poly(text)
            assert info.value.position == pos, text

    def test_division_by_zero(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x/0")
        assert info.value.position == 2

    def test_divisor_must_be_literal(self):
        with pytest.raises(ParseError):
            parse_poly("x/y")

    def test_roundtrip_random(self):
        # parse(render(p)) == p on a seeded corpus
        rng = random.Random(1203)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randrange(0, 8)):
                key = (rng.randrange(0, 7), rng.randrange(0, 7))
                terms[key] = F(rng.randrange(-40, 41), rng.randrange(1, 13))
            p = BivarPoly(terms)
            assert parse_poly(p.render()) == p

    def test_render_canonical_forms(self):
        assert parse_poly("x*y").render() == "x*y"
        assert parse_poly("0").render() == "0"
        assert parse_poly("-x + y^2").render() == "y^2 - x"
        assert parse_poly("x^2*y^2/4").render() == "1/4*x^2*y^2"


# --- the parser pinned on fuzzed input -------------------------------------


def random_expr(rng: random.Random, depth: int = 0) -> str:
    """A well-formed phase over numbers, x, y, ^k, ^(k), parentheses, - and + - * /."""
    terms = []
    for i in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.3:
                base = rng.choice(["0", "1", "2", "3", "7", "12", "250", "007"])
            elif roll < 0.8 or depth >= 2:
                base = rng.choice("xy")
            else:
                base = "(" + random_expr(rng, depth + 1) + ")"
            if rng.random() < 0.4:
                k = rng.randint(0, 3 if base[0] == "(" else 9)
                base += rng.choice([f"^{k}", f"^({k})", f" ^ {k}"])
            factors.append(base)
        term = rng.choice(["*", " * "]).join(factors)
        if rng.random() < 0.2:
            term += f"/{rng.choice([1, 2, 3, 12])}"
        terms.append(term if i == 0 else rng.choice(["+", "-", " + ", " - "]) + term)
    text = "".join(terms)
    return "-" + text if rng.random() < 0.2 else text


NOISE = ["+", "-", "*", "/", "^", "(", ")", "x", "0", " ", "&", ".", "z", "é", "\t", "\u00a0",
         "/0", "^-1", "^(-2)"]


def malformed(rng: random.Random, text: str) -> str:
    """One random edit of text: a character dropped, noise inserted, a swap or a cut."""
    i = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.3 and text:
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1:]
    if roll < 0.7:
        return text[:i] + rng.choice(NOISE) + text[i:]
    if roll < 0.85 and len(text) > 1:
        i = min(i, len(text) - 2)
        return text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text[:i]


def fuzz_corpus(count: int = 2400, seed: int = 30) -> list[str]:
    """Seeded phases, 40% of them edited once; 1,707 of the 2,400 parse."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = random_expr(rng)
        if rng.random() < 0.4:
            text = malformed(rng, text)
            # an edit that joins digits into a two-digit power of a
            # parenthesized sum expands to hundreds of terms: edit again
            while re.search(r"\)\s*\^\s*\(?\d\d", text):
                text = malformed(rng, text)
        out.append(text)
    return out


def parse_digest(texts) -> str:
    """sha256 over each text's ordered terms, or its error type, message and position."""
    digest = hashlib.sha256()
    for text in texts:
        try:
            poly = parse_poly(text)
        except Exception as exc:  # noqa: BLE001  the error is the result
            record = f"{type(exc).__name__}\0{exc}\0{getattr(exc, 'position', None)}"
        else:
            record = ";".join(f"{a},{b},{c.numerator},{c.denominator}" for (a, b), c in poly.terms.items())
        digest.update(f"{text}\0{record}\n".encode())
    return digest.hexdigest()


# captured with the parser that multiplied every factor as a BivarPoly; the
# term order is pinned too, since eval_grid sums the terms in that order
PINNED_PARSE = "b703b5e874177e4abb4f8060bebe7ece7635414f48c2fd44665e6c319f6d57ea"


class TestPinnedParse:
    def test_fuzzed_terms_and_errors(self):
        assert parse_digest(fuzz_corpus()) == PINNED_PARSE

    def test_sympy_agrees_on_parsed_phases(self):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        # the first 600 phases: sympy takes about 5 ms a phase
        checked = 0
        for text in fuzz_corpus()[:600]:
            try:
                poly = parse_poly(text)
            except ParseError:
                continue
            # Python's grammar: no leading zeros, ASCII spaces, ** for ^
            plain = re.sub(r"\b0+(\d)", r"\1", " ".join(text.split())).replace("^", "**")
            expr = sympy.parse_expr(plain, local_dict={"x": x, "y": y})
            want = {k: v for k, v in sympy.Poly(expr, x, y).as_dict().items() if v != 0}
            assert {k: sympy.Rational(c.numerator, c.denominator) for k, c in poly.terms.items()} == want, text
            checked += 1
        assert checked == 422

    def test_huge_exponent_is_one_monomial(self):
        # each factor of x^a was once a BivarPoly product: this never finished
        assert parse_poly("x^99999999*y").terms == {(99999999, 1): 1}
        assert parse_poly("(2*x)^9*y^(0)/256").terms == {(9, 0): 2}

    @pytest.mark.parametrize("text, pos", [("x²*y", 1), ("x^٣*y", 2), ("٣", 0)])
    def test_non_ascii_digit_is_an_unexpected_character(self, text, pos):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == pos
        assert info.value.message == f"unexpected character {text[pos]!r}"

    def test_one_term_power_matches_repeated_products(self):
        for text in ("3/2*x*y^2", "-x", "7", "y^3/5"):
            p = parse_poly(text)
            for n in range(5):
                product = BivarPoly.constant(1)
                for _ in range(n):
                    product = product * p
                assert (p**n).terms == product.terms
        assert (BivarPoly() ** 0).terms == {(0, 0): 1}
        assert not BivarPoly() ** 3


class TestCalculus:
    def test_mixed_of_product_phase(self):
        assert mixed_derivative(parse_poly("x*y")) == BivarPoly.constant(1)

    def test_mixed_of_quartic_phase(self):
        assert mixed_derivative(parse_poly("x^2*y^2/4")) == parse_poly("x*y")

    def test_mixed_of_degenerate_phase(self):
        got = mixed_derivative(parse_poly("-(y-x)^4/12"))
        assert got == parse_poly("(y-x)^2")

    def test_linearity(self):
        rng = random.Random(7)
        mono = [parse_poly(s) for s in ("x^3*y", "x*y^5", "x^2", "y^2", "x*y", "1")]
        for _ in range(50):
            a = F(rng.randrange(-9, 10), rng.randrange(1, 5))
            b = F(rng.randrange(-9, 10), rng.randrange(1, 5))
            p = sum((rng.choice(mono) for _ in range(3)), BivarPoly())
            q = sum((rng.choice(mono) for _ in range(3)), BivarPoly())
            assert mixed_derivative(a * p + b * q) == a * mixed_derivative(p) + b * mixed_derivative(q)

    def test_support_shift(self):
        # d2/dxdy maps (a, b) to (a-1, b-1) with factor a*b, killing a=0 or b=0
        rng = random.Random(99)
        for _ in range(100):
            a, b = rng.randrange(0, 6), rng.randrange(0, 6)
            c = F(rng.randrange(1, 20), rng.randrange(1, 7))
            got = mixed_derivative(BivarPoly({(a, b): c}))
            if a == 0 or b == 0:
                assert got.terms == {}
            else:
                assert got.terms == {(a - 1, b - 1): c * a * b}

    def test_integrate_xy_inverts_mixed(self):
        for text in ("x*y", "x^2*y^2/4", "(y-x)^2", "1", "x^3*y + 2*y^2"):
            mixed = parse_poly(text)
            assert mixed_derivative(integrate_xy(mixed)) == mixed

    def test_integrate_xy_no_pure_terms(self):
        phase = integrate_xy(parse_poly("1 + x + y + x^2*y^3"))
        for a, b in phase.support():
            assert a >= 1 and b >= 1


class TestRefusals:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: BivarPoly({(-1, 0): 1}), id="negative-degree"),
            pytest.param(lambda: parse_poly("x*y").diff("z"), id="diff-z"),
            pytest.param(lambda: parse_poly("x*y") ** -1, id="negative-power"),
        ],
    )
    def test_bad_construction_is_a_value_error(self, build):
        with pytest.raises(ValueError):
            build()


class TestEval:
    def test_product_point(self):
        assert eval_poly(BivarPoly({(1, 1): 1}), 0.5, 0.25) == 0.125

    def test_pythagorean(self):
        assert eval_poly(parse_poly("x^2 + y^2"), 3.0, 4.0) == 25.0

    def test_correct_rounding(self):
        # reference: exact Fraction arithmetic evaluated independently here
        rng = random.Random(42)
        for _ in range(100):
            terms = {
                (rng.randrange(0, 5), rng.randrange(0, 5)): F(rng.randrange(-30, 31), rng.randrange(1, 9))
                for _ in range(5)
            }
            p = BivarPoly(terms)
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            exact = Fraction(0)
            for (a, b), c in p.terms.items():
                exact += c * Fraction(x) ** a * Fraction(y) ** b
            want = float(exact)
            got = eval_poly(p, x, y)
            assert got == want or abs(got - want) <= 2 * math.ulp(max(abs(want), 1e-300))

    def test_exact_agrees_at_rational_points(self):
        p = parse_poly("x^3*y - 2*x*y^2 + 7/3")
        x, y = F(5, 7), F(-3, 2)
        want = F(5, 7) ** 3 * F(-3, 2) - 2 * F(5, 7) * F(-3, 2) ** 2 + F(7, 3)
        assert eval_exact(p, x, y) == want


class TestBranchTypes:
    def test_complex_value(self):
        br = PuiseuxBranch(terms=(PuiseuxTerm(F(3, 2), 1j),))
        assert br.reality is Reality.COMPLEX_PAIR

    def test_exponents_strictly_increase(self):
        with pytest.raises(ValueError):
            PuiseuxBranch(terms=(PuiseuxTerm(F(3, 2), 1.0), PuiseuxTerm(F(3, 2), 2.0)))

    def test_term_validation(self):
        with pytest.raises(ValueError):
            PuiseuxTerm(F(-1, 2), 1.0)
        with pytest.raises(ValueError):
            PuiseuxTerm(F(1, 2), 0.0)

    def test_exactness_follows_the_order(self):
        # a branch built without an order terminates: it is exact, and so
        # never an undetermined cluster, whatever its multiplicity
        terms = (PuiseuxTerm(F(1), 1.0),)
        exact = PuiseuxBranch(terms=terms, multiplicity=2)
        assert exact.exact and not exact.split_undetermined
        cluster = PuiseuxBranch(terms=terms, multiplicity=2, order=F(3))
        assert not cluster.exact and cluster.split_undetermined

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(ValueError, match="multiplicity"):
            PuiseuxBranch(terms=(PuiseuxTerm(F(1), 1.0),), multiplicity=0)

    def test_branch_needs_terms(self):
        with pytest.raises(ValueError):
            PuiseuxBranch(terms=())


class TestExactLayer:
    """The exact layer (polycore, newton, errors) imports no numpy; float code lives elsewhere."""

    def test_exact_modules_import_no_numpy(self):
        src = Path(newtonosc.__file__).parent
        for name in ("polycore.py", "newton.py", "errors.py"):
            tree = ast.parse((src / name).read_text())
            modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
            modules |= {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
            assert not any(m.split(".")[0] == "numpy" for m in modules), name

    def test_moved_names_have_one_home(self):
        src = Path(newtonosc.__file__).parent
        homes = {"eval_grid": [], "PuiseuxTerm": [], "PuiseuxBranch": [], "Reality": []}
        for path in sorted(src.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in homes:
                    homes[node.name].append(path.stem)
        assert homes == {
            "eval_grid": ["opnorm"],
            "PuiseuxTerm": ["puiseux"],
            "PuiseuxBranch": ["puiseux"],
            "Reality": ["puiseux"],
        }
