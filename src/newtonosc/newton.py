"""Newton polygon of the mixed derivative and the decay rates it predicts.

All polygon combinatorics are exact: vertices are lattice points, slopes
and rates are Fractions, and so are the degeneracy test's N and c.  The
numeric branch expansion says only whether the sheets are one real sheet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import EmptyPolygonError
from .polycore import BivarPoly, Reality


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
    columns: dict[int, int] = {}
    for a, b in points:
        if a not in columns or b < columns[a]:
            columns[a] = b
    # keep only strict descents: later columns at the same height are
    # dominated and can never be hull vertices
    pareto: list[tuple[int, int]] = []
    for x, y in sorted(columns.items()):
        if not pareto or y < pareto[-1][1]:
            pareto.append((x, y))

    hull: list[tuple[int, int]] = []
    for p in pareto:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


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
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Degeneracy:
    """Whether F is a unit times an N-th power of (y - smooth curve).

    Stores N and the curve's exact slope c = f'(0) when F passes the
    N-th-power test, and checked_order when its one sheet was not seen
    to terminate up to that order; kind is read from which are set.
    """

    N: Optional[int] = None
    c: Optional[Fraction] = None
    checked_order: Optional[Fraction] = None

    @property
    def kind(self) -> DegeneracyKind:
        if self.N is None:
            return DegeneracyKind.NON_DEGENERATE
        if self.checked_order is not None:
            return DegeneracyKind.UNDETERMINED
        return DegeneracyKind.COMPLETELY_DEGENERATE


def _degeneracy(F: BivarPoly, polygon: NewtonPolygon, branches) -> Degeneracy:
    """Classify F, given its polygon, as completely degenerate, not, or undetermined.

    Complete degeneracy is the shape U * (y - f(x))^N with U a unit,
    f(0) = 0, f'(0) = c != 0 and N >= 2.  Its polygon has A = B = 0 and
    one edge of slope 1 and height N, whose polynomial is U(0,0)*(z - c)^N:
    F's exact coefficients fix N and c.  Only an F that passes asks the
    branch expansion whether its N sheets are one real sheet.  A sheet
    whose series terminates makes the verdict definite; otherwise it is
    Undetermined at the order checked.
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

    if branches is None:
        from .puiseux import expand_branches

        branches = expand_branches(F)
    if len(branches.branches) != 1 or branches.branches[0].reality is not Reality.REAL:
        return Degeneracy()
    return Degeneracy(N, c, None if branches.branches[0].exact else branches.order)


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
        if self.degeneracy.c is not None:
            deg["c"] = float(self.degeneracy.c)
        if self.degeneracy.checked_order is not None:
            deg["checked_order"] = str(self.degeneracy.checked_order)
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


def analyze_decay(F: BivarPoly, branches=None) -> DecayReport:
    """Polygon, crossing, per-edge rates, and degeneracy in one report.

    The polygon is built once; the report stores it with the degeneracy,
    and the crossing is read from it.  branches may be passed in to reuse
    an existing expansion of F; otherwise one is computed at the default
    order (4 * total_degree + 8), and only when F's coefficients pass the
    N-th-power test.  checked_order is the order of the expansion used.
    """
    polygon = build_polygon(F)
    return DecayReport(degeneracy=_degeneracy(F, polygon, branches), polygon=polygon)
