"""Output checks built without the package's own algorithms.

The polygon oracle is the criterion-4 half-plane oracle: a support point
is a vertex of the Newton polygon exactly when it is the unique minimizer
of w . p for some positive direction w.  The decay exponent is recomputed
from the support by minimizing max(c_x, c_y) over its convex hull, and
the branch count comes from the y-order of F after the axis factors are
divided out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# exponents stay in [0, 3]: adjacent edge slopes then have numerator and
# denominator <= 3, so their mediants are hit by directions up to 13
_DIRECTIONS = [(i, j) for i in range(1, 14) for j in range(1, 14)]

# the power iteration stops once the Rayleigh quotient moves by less than
# 1e-6 relative; with s2/s1 up to 0.995 (x*y at lambda 512) the error left
# after that step can be 1/(1 - 0.995^2) ~ 100 times the last move
SOLVER_TOL = 1e-6
SOLVER_GAP_FACTOR = 100.0


def polygon_vertices(support) -> tuple[tuple[int, int], ...]:
    """Vertices of the Newton polygon, left to right."""
    pts = set(support)
    found = set()
    for w1, w2 in _DIRECTIONS:
        vals = {p: w1 * p[0] + w2 * p[1] for p in pts}
        best = min(vals.values())
        argmin = [p for p, v in vals.items() if v == best]
        if len(argmin) == 1:
            found.add(argmin[0])
    return tuple(sorted(found))


def diagonal_delta(support) -> Fraction:
    """1 / (1 + t0), t0 the least t with (t, t) in hull(support) + quadrant.

    max(c_x, c_y) is convex, so its minimum over the hull sits at a
    support point or where a segment between two points crosses x = y.
    """
    pts = [(Fraction(a), Fraction(b)) for a, b in set(support)]
    t0 = min(max(p) for p in pts)
    for p, q in combinations(pts, 2):
        dp, dq = p[0] - p[1], q[0] - q[1]
        if dp * dq < 0:
            s = dp / (dp - dq)
            t0 = min(t0, p[0] + s * (q[0] - p[0]))
    return 1 / (1 + t0)


def branch_count(support) -> int:
    """Sheets of F = 0 through the origin: y-order at x = 0 after x^A y^B."""
    A = min(a for a, _ in support)
    B = min(b for _, b in support)
    return min(b for a, b in support if a == A) - B


def norm_tolerance(conv_ref: float, conv_run: float) -> float:
    """Relative tolerance between two estimates of one norm.

    Each side carries its stated quadrature error (conv_err) and the
    solver error its stopping rule allows.
    """
    return conv_ref + conv_run + 2 * SOLVER_GAP_FACTOR * SOLVER_TOL
