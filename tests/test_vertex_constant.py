"""The sharp constant of every vertex monomial, and the norms it bounds.

S = c x^m y^m is the model phase wherever the diagonal crosses F's
Newton polygon at the vertex (m-1, m-1), and there delta = 1/m.  Its
norm depends on lam * |c| alone, and criterion 2's Mellin derivation
(tests/test_acceptance.py) carries over with a = 1/(2m).  Because the
cutoff multiplies T on both sides by functions between 0 and 1,
lam^(1/(2m)) * ||T_lam|| <= L holds at every lam.
"""

import math
from fractions import Fraction

import pytest

import test_acceptance
from newtonosc.errors import ResolutionError
from newtonosc.opnorm import PhaseSpec, auto_grid
from newtonosc.polycore import BivarPoly
from newtonosc.scaling import CONV_TOL, norm_at

# both signs of c = 1, and c = 1/m^2, the coefficient of F there divided
# by m^2 when F = x^(m-1) y^(m-1), as in criterion 2's x^2*y^2/4
MONOMIALS = [
    (m, c)
    for m in range(1, 5)
    for c in dict.fromkeys((Fraction(1), Fraction(-1), Fraction(1, m * m)))
]
LAMBDAS = (16.0, 64.0, 256.0)
# lambda * |c| = 256 needs a grid beyond GRID_CAP for x^4*y^4 at rho 1
BEYOND_CAP = [(4, Fraction(1), 256.0), (4, Fraction(-1), 256.0)]


def vertex_constant(m: int, c) -> float:
    """L of S = c x^m y^m: the sup of lam^(1/(2m)) ||T_lam|| over lam.

    With a = 1/(2m), L = (2/m) |c|^(-a) max_tau mult(tau).  The kernel's
    parity in x and y gives mult, one factor per sector of
    parity_sectors: |Gamma(a + i tau)| e^(-pi tau/2) for even m (a
    negative c mirrors tau and leaves the maximum), and the larger of
    |Gamma(a + i tau) cos(pi (a + i tau)/2)| and the same with sin for
    odd m.  The maximum is scanned on [-20, 20], which holds it, then
    refined by golden-section search.
    """
    mpmath = pytest.importorskip("mpmath")
    a = mpmath.mpf(1) / (2 * m)

    def mult(tau):
        g = mpmath.gamma(a + 1j * tau)
        if m % 2 == 0:
            return abs(g) * mpmath.exp(-mpmath.pi * tau / 2)
        z = mpmath.pi * (a + 1j * tau) / 2
        return max(abs(g * mpmath.cos(z)), abs(g * mpmath.sin(z)))

    step = mpmath.mpf(1) / 10
    lo = max((t * step for t in range(-200, 201)), key=mult) - step
    hi = lo + 2 * step
    shrink = (mpmath.sqrt(5) - 1) / 2
    while hi - lo > 1e-9:
        t1, t2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if mult(t1) < mult(t2):
            lo = t1
        else:
            hi = t2
    scale = 2 / mpmath.mpf(m) * mpmath.mpf(abs(float(c))) ** -a
    return float(scale * mult((lo + hi) / 2))


def monomial(m: int, c: Fraction) -> PhaseSpec:
    return PhaseSpec(S=BivarPoly({(m, m): c}), rho=1.0)


def test_hand_derived_constants():
    # criterion 1's sqrt(2 pi) for x*y and criterion 2's LIMIT for x^2*y^2/4
    l1, l2 = test_acceptance.TestCriterion1.LIMIT, test_acceptance.TestCriterion2.LIMIT
    assert l1 == math.sqrt(2 * math.pi)
    assert vertex_constant(1, 1) == pytest.approx(l1, abs=1e-9)
    assert vertex_constant(2, Fraction(1, 4)) == pytest.approx(l2, abs=1e-9)


@pytest.mark.parametrize("m, c", MONOMIALS, ids=str)
def test_norm_stays_below_the_constant(m, c):
    L = vertex_constant(m, c)
    p = monomial(m, c)
    for lam in LAMBDAS:
        if (m, c, lam) in BEYOND_CAP:
            continue
        s = norm_at(p, lam, seed=0)
        assert lam ** (1 / (2 * m)) * s.value <= L * (1 + CONV_TOL), (lam, s)


@pytest.mark.parametrize("m, c, lam", BEYOND_CAP, ids=str)
def test_left_out_samples_exceed_the_grid_cap(m, c, lam):
    with pytest.raises(ResolutionError):
        auto_grid(monomial(m, c), lam)
