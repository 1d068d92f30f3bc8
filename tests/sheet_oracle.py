"""Test oracle: printed Puiseux sheets against the roots of F(x0, .).

F factors as prod (y - y_i(x)) for small x > 0, so a printed sheet is
right when its partial sum at a small x0 lies within its truncation error
of a root of the univariate F(x0, .).  Those roots come from
mpmath.polyroots at 60 digits; a test that calls these helpers is skipped
where mpmath is not installed.
"""

import functools
from fractions import Fraction

import pytest

from newtonosc.polycore import parse_poly
from newtonosc.puiseux import expand_branches

F = Fraction

ORACLE_XS = (F(1, 100), F(1, 1000), F(1, 10000))
# An exact branch may miss a root of F(x0, .) by the rounding of its
# doubles: ROUNDING units of 2^-52 times the sum of its terms' moduli over |y|.
ROUNDING = 8
# A branch resolved to order K with leading exponent g is its partial sum
# plus o(x^K), so its relative miss is at most TRUNCATION * (R*x0)^(K - g),
# and that ratio falls at least FALL-fold from each x0 to the next, unless
# the miss is down to the rounding.  R, the branch's growth rate, is the
# largest (|c_k| / |c_g|)^(1/(e_k - g)) over its printed terms, at least 1:
# a series whose radius of convergence is below 1 earns a looser bound.
TRUNCATION = 1.0
FALL = 1.25


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists, highest power first."""
    a, q = list(a), []
    while len(a) >= len(b):
        f = a[0] / b[0]
        q.append(f)
        for i, c in enumerate(b):
            a[i] -= f * c
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return q, a


def _roots(p, mpmath):
    """The roots of p, each as often as its multiplicity.

    p / gcd(p, p') has every root of p once, and gcd(p, p') the rest, so
    polyroots only ever meets simple roots.
    """
    if len(p) < 2:
        return []
    g, r = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    square_free = _poly_divmod(p, g)[0]
    simple = []
    if len(square_free) > 1:
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in square_free]
        try:
            simple = list(mpmath.polyroots(coeffs, maxsteps=200, extraprec=60))
        except mpmath.libmp.NoConvergence:
            # a stiff column: coefficients spread over many decades
            simple = list(mpmath.polyroots(coeffs, maxsteps=2000, extraprec=400))
    return simple + _roots([c / g[0] for c in g], mpmath)


@functools.lru_cache(maxsize=None)
def column_roots(text, x0):
    """The roots of F(x0, .) / y^B at 60 digits, each as often as its multiplicity."""
    mpmath = pytest.importorskip("mpmath")
    poly = parse_poly(text)
    B = min(b for _, b in poly.support())
    deg = max(b for _, b in poly.support())
    column = [F(0)] * (deg - B + 1)
    for (a, b), c in poly.terms.items():
        column[deg - b] += c * x0**a
    with mpmath.workdps(60):
        return _roots(column, mpmath)


def growth_rate(branch):
    """R: at least 1, and at least (|c_k| / |c_g|)^(1/(e_k - g)) for each printed term."""
    lead = abs(branch.leading_coefficient)
    g = branch.leading_exponent
    ratios = [
        (abs(t.coefficient) / lead) ** (1 / float(t.exponent - g)) for t in branch.terms[1:]
    ]
    return max([1.0, *ratios])


def branch_failures(text, branches):
    """Each given branch whose partial sum misses the roots of F(x0, .), F = text.

    At each x0 a branch of m sheets takes the relative miss to its m-th
    nearest root of F(x0, .) / y^B.  A failure is (terms, multiplicity,
    order, the failed x0 and falls, (x0, miss, floor) per x0).
    """
    mpmath = pytest.importorskip("mpmath")
    misses = [[] for _ in branches]
    with mpmath.workdps(60):
        for x0 in ORACLE_XS:
            roots = column_roots(text, x0)
            x = mpmath.mpf(x0.numerator) / x0.denominator
            for br, rows in zip(branches, misses):
                parts = [
                    mpmath.mpc(t.coefficient.real, t.coefficient.imag)
                    * x ** (mpmath.mpf(t.exponent.numerator) / t.exponent.denominator)
                    for t in br.terms
                ]
                y = mpmath.fsum(parts)
                miss = sorted(abs(r - y) / abs(y) for r in roots)[br.multiplicity - 1]
                floor = ROUNDING * 2.0**-52 * mpmath.fsum(abs(p) for p in parts) / abs(y)
                rows.append((float(x0), float(miss), float(floor)))
    failures = []
    for br, rows in zip(branches, misses):
        if br.exact:
            bad = [x0 for x0, miss, floor in rows if miss > floor]
        else:
            k = float(br.order - br.leading_exponent)
            R = growth_rate(br)
            bad = [x0 for x0, miss, floor in rows if miss > max(floor, TRUNCATION * (R * x0) ** k)]
            for (x_a, miss_a, _), (x_b, miss_b, floor) in zip(rows, rows[1:]):
                if miss_b > floor and miss_b / x_b**k > miss_a / x_a**k / FALL:
                    bad.append(f"no fall at {x_b}")
        if bad:
            failures.append((br.terms, br.multiplicity, br.order, bad, rows))
    return failures


def sheet_failures(text, order=None):
    """Each branch that expand_branches prints for F = text and fails the oracle."""
    return branch_failures(text, expand_branches(parse_poly(text), order=order).branches)
