"""Newton polygon of the mixed derivative and the decay rates it predicts.

All polygon combinatorics are exact: vertices are lattice points, slopes
and rates are Fractions, and so is the degeneracy test, from its N and c
to the gcd in Q[x][y] that decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product, zip_longest
from typing import Optional

from .errors import EmptyPolygonError
from .polycore import BivarPoly


@dataclass(frozen=True)
class EdgeData:
    """One compact edge of the boundary, fixed by its two lattice endpoints.

    upper has the larger y (smaller x), lower the other.  n is the
    vertical drop and gamma the horizontal run over it, so the segment
    spans n rows and gamma*n columns.
    """

    upper: tuple[int, int]
    lower: tuple[int, int]

    @property
    def n(self) -> int:
        return self.upper[1] - self.lower[1]

    @property
    def gamma(self) -> Fraction:
        return Fraction(self.lower[0] - self.upper[0], self.n)

    @property
    def delta(self) -> Fraction:
        """delta_nu = 1/(1 + t_nu), t_nu where the diagonal meets this edge's line."""
        a_nu, b_nu = self.lower
        return (1 + self.gamma) / (1 + a_nu + (1 + b_nu) * self.gamma)


@dataclass(frozen=True)
class NewtonPolygon:
    """Boundary data of the hull of support + positive quadrant.

    vertices run left to right: x strictly increasing, y strictly
    decreasing.  A is the x offset (first vertex column), B the y offset
    (last vertex row); the boundary continues from the end vertices as a
    vertical and a horizontal ray.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[EdgeData, ...]
    A: int
    B: int


def build_polygon(F: BivarPoly) -> NewtonPolygon:
    """Lower-left hull of the support of F.

    Raises EmptyPolygonError for the zero polynomial.
    """
    if not F:
        raise EmptyPolygonError("the zero polynomial has no Newton polygon")
    hull = lower_hull(F.support())
    return NewtonPolygon(
        vertices=tuple(hull),
        edges=hull_edges(hull),
        A=hull[0][0],
        B=hull[-1][1],
    )


def lower_hull(points) -> list[tuple[int, int]]:
    """Vertices of the hull of points + positive quadrant, left to right.

    points are lattice points (int, int), so all arithmetic is exact.
    """
    # strict descents only: a point no lower than the last one kept is dominated
    pareto: list[tuple[int, int]] = []
    for x, y in sorted(points):
        if not pareto or y < pareto[-1][1]:
            pareto.append((x, y))
    return lower_chain(pareto)


def lower_chain(points) -> list:
    """Vertices of the lower convex chain of points with strictly increasing x.

    Andrew's monotone chain; a point on a segment is no vertex.
    """
    chain: list = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def hull_edges(hull) -> tuple[EdgeData, ...]:
    """The compact edges between consecutive vertices of lower_hull."""
    return tuple(EdgeData(upper, lower) for upper, lower in zip(hull, hull[1:]))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def decay_rate(polygon: NewtonPolygon) -> tuple[Fraction, Fraction, str]:
    """Where the diagonal exits the polygon, and the exponent 1/(1 + t0).

    Returns (t0, delta, crossing) with crossing one of "vertex", "edge",
    "infinite_edge"; the last means the diagonal meets one of the two
    axis-parallel rays, at t0 = A or t0 = B.
    """
    for v, w in polygon.vertices:
        if v == w:
            return Fraction(v), Fraction(1, 1 + v), "vertex"
    for edge in polygon.edges:
        x0, y0 = edge.upper
        x1, y1 = edge.lower
        # runs below the diagonal iff the crossing parameter is interior
        s = Fraction(y0 - x0, (x1 - x0) + (y0 - y1))
        if 0 < s < 1:
            t0 = x0 + s * (x1 - x0)
            return t0, 1 / (1 + t0), "edge"
    first_x, first_y = polygon.vertices[0]
    last_x, last_y = polygon.vertices[-1]
    if polygon.A > first_y:
        t0 = Fraction(polygon.A)
    elif polygon.B > last_x:
        t0 = Fraction(polygon.B)
    else:  # unreachable for a boundary that is monotone between its rays
        raise AssertionError("diagonal crossing not found")
    return t0, 1 / (1 + t0), "infinite_edge"


class DegeneracyKind(str, Enum):
    NON_DEGENERATE = "NonDegenerate"
    COMPLETELY_DEGENERATE = "CompletelyDegenerate"


@dataclass(frozen=True)
class Degeneracy:
    """N and c = f'(0), exact, when F = U * (y - f(x))^N with U a unit; kind reads N."""

    N: Optional[int] = None
    c: Optional[Fraction] = None

    @property
    def kind(self) -> DegeneracyKind:
        if self.N is None:
            return DegeneracyKind.NON_DEGENERATE
        return DegeneracyKind.COMPLETELY_DEGENERATE


def _degeneracy(F: BivarPoly, polygon: NewtonPolygon) -> Degeneracy:
    """Classify F, given its polygon, as completely degenerate or not.

    That is F = U * (y - f(x))^N with U a unit, f(0) = 0, f'(0) = c != 0
    and N >= 2.  Its polygon has A = B = 0 and one edge of slope 1 and
    height N, whose polynomial U(0,0)*(z - c)^N fixes N and c exactly.
    Then h = d^(N-1)F/dy^(N-1) has dh/dy(0,0) = N! [y^N]F != 0, so one
    irreducible factor q of h passes through the origin, along y = f(x).
    By Taylor's formula in y about f, F has the shape iff q divides every
    d^kF/dy^k with k < N, iff their primitive gcd vanishes at the origin.
    """
    if polygon.A != 0 or polygon.B != 0 or len(polygon.edges) != 1:
        return Degeneracy()
    edge = polygon.edges[0]
    N = edge.n
    if edge.gamma != 1 or N < 2:
        return Degeneracy()
    coeff = F.terms
    lead = coeff[(0, N)]
    c = -coeff.get((1, N - 1), 0) / (N * lead)
    for i in range(N + 1):
        if coeff.get((i, N - i), 0) != lead * math.comb(N, i) * (-c) ** i:
            return Degeneracy()
    # F over Q[x] as used below: rows[b][a] is [x^a y^b]F, and no list ends in 0
    rows = [[] for _ in range(1 + max(b for _, b in coeff))]
    for (a, b), value in sorted(coeff.items()):
        rows[b] += [Fraction(0)] * (a - len(rows[b])) + [value]
    derivatives = [[[math.perm(b, k) * v for v in r] for b, r in enumerate(rows) if b >= k]
                   for k in range(N)]  # d^kF/dy^k
    G = _primitive(derivatives.pop())
    while derivatives and (G[0] or [0])[0] == 0:
        G = _gcd_in_y(derivatives.pop(), G)
    return Degeneracy(N, c) if (G[0] or [0])[0] == 0 else Degeneracy()


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for (i, u), (j, v) in product(enumerate(p), enumerate(q)):
        out[i + j] += u * v
    return out


def _divmod(p: list, q: list) -> tuple[list, list]:
    quotient, rem = [Fraction(0)] * max(len(p) - len(q) + 1, 0), list(p)
    while len(rem) >= len(q):
        shift, t = len(rem) - len(q), rem[-1] / q[-1]
        quotient[shift] = t
        for i, v in enumerate(q):
            rem[shift + i] -= t * v
        _trim(rem)
    return quotient, rem


def _primitive(P: list) -> list:
    """P over its content, the gcd of its coefficients, with the top term of P[-1] 1."""
    content = min(filter(None, P), key=len)
    for p in P:  # Euclid with monic remainders
        while p and len(content) > 1:
            content, p = [v / p[-1] for v in p], _divmod(content, p)[1]
    scale = P[-1][-1] / content[-1]
    return [_divmod(p, [v * scale for v in content])[0] for p in P]


def _gcd_in_y(P: list, Q: list) -> list:
    """The primitive gcd in Q[x][y] of P and a primitive Q, by a primitive PRS."""
    while Q:
        while len(P) >= len(Q):  # P <- lc(Q) P - lc(P) y^shift Q
            shift, top = len(P) - len(Q), P[-1]
            # Q is primitive, so lc(Q) is often the constant 1, which scales nothing
            low = P[:-1] if Q[-1] == [1] else [_mul(Q[-1], p) for p in P[:-1]]
            P = _trim(low[:shift] + [
                _trim([u - v for u, v in zip_longest(p, _mul(top, q), fillvalue=0)])
                for p, q in zip(low[shift:], Q)
            ])
        P, Q = Q, P and _primitive(P)
    return P


@dataclass(frozen=True)
class DecayReport:
    """Everything the polygon says about the decay of the operator norm.

    Stores the degeneracy and the polygon.  to_dict reads the diagonal
    crossing t0, its kind and delta = 1/(1 + t0) from decay_rate(polygon),
    and the offsets A, B and the edges, each with its own exponent
    delta_nu, from the polygon; delta is the one rate read by name.
    """

    degeneracy: Degeneracy
    polygon: NewtonPolygon

    @property
    def delta(self) -> Fraction:
        return decay_rate(self.polygon)[1]

    def to_dict(self) -> dict:
        deg: dict = {"kind": self.degeneracy.kind.value}
        if self.degeneracy.N is not None:
            deg["N"] = self.degeneracy.N
            deg["c"] = float(self.degeneracy.c)
        t0, delta, crossing = decay_rate(self.polygon)
        return {
            "t0": str(t0),
            "delta": str(delta),
            "boundary_crossing": crossing,
            "A": self.polygon.A,
            "B": self.polygon.B,
            "edges": [
                {
                    "gamma": str(e.gamma),
                    "n": e.n,
                    "A_nu": e.lower[0],
                    "B_nu": e.lower[1],
                    "delta_nu": str(e.delta),
                }
                for e in self.polygon.edges
            ],
            "degeneracy": deg,
        }


def analyze_decay(F: BivarPoly) -> DecayReport:
    """Polygon, crossing, per-edge rates, and degeneracy in one report.

    The polygon is built once; the report stores it with the degeneracy,
    and the crossing is read from it.
    """
    polygon = build_polygon(F)
    return DecayReport(degeneracy=_degeneracy(F, polygon), polygon=polygon)
