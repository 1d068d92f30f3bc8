"""Newton polygon of the mixed derivative and the decay rates it predicts.

All polygon combinatorics are exact: vertices are lattice points, slopes
and rates are Fractions.  Floats appear only inside degeneracy detection,
which leans on the numeric branch expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import EmptyPolygonError
from .polycore import BivarPoly, Reality


@dataclass(frozen=True)
class EdgeData:
    """One compact edge of the boundary.

    upper is the endpoint with the larger y (smaller x), lower the other.
    gamma = horizontal run over vertical drop, n = the vertical drop, so
    the segment spans n rows and gamma*n columns.  Both are lattice points.
    """

    gamma: Fraction
    n: int
    upper: tuple[int, int]
    lower: tuple[int, int]

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
    return tuple(
        EdgeData(
            gamma=Fraction(x1 - x0, y0 - y1),
            n=y0 - y1,
            upper=(x0, y0),
            lower=(x1, y1),
        )
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])
    )


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

    CompletelyDegenerate carries N and the curve's linear coefficient c.
    Undetermined means the single multiplicity-N cluster could not be
    separated (nor certified equal) up to checked_order.
    """

    kind: DegeneracyKind
    N: Optional[int] = None
    c: Optional[float] = None
    checked_order: Optional[Fraction] = None


def _degeneracy(F: BivarPoly, polygon: NewtonPolygon, branches) -> Degeneracy:
    """Classify F, given its polygon, as completely degenerate, not, or undetermined.

    Complete degeneracy requires the exact shape U * (y - f(x))^N with U a
    unit, f(0) = 0, f'(0) = c != 0 and N >= 2; on the polygon side that
    forces A = B = 0 and a single edge of slope parameter 1, and on the
    branch side a single real sheet of multiplicity N through the origin
    with leading term c*x.  When the sheet's series terminates the
    factorization is exact and the verdict is definite; otherwise the
    cluster is reported Undetermined at the order it was checked.
    """
    if polygon.A != 0 or polygon.B != 0:
        return Degeneracy(DegeneracyKind.NON_DEGENERATE)
    if len(polygon.edges) != 1:
        return Degeneracy(DegeneracyKind.NON_DEGENERATE)
    edge = polygon.edges[0]
    if edge.gamma != 1 or edge.n < 2:
        return Degeneracy(DegeneracyKind.NON_DEGENERATE)
    N = edge.n

    if branches is None:
        from .puiseux import expand_branches

        branches = expand_branches(F)

    if branches.axis_roots != (0, 0) or len(branches.branches) != 1:
        return Degeneracy(DegeneracyKind.NON_DEGENERATE)
    sheet = branches.branches[0]
    if (
        sheet.multiplicity != N
        or sheet.leading_exponent != 1
        or sheet.reality is not Reality.REAL
    ):
        return Degeneracy(DegeneracyKind.NON_DEGENERATE)
    c = sheet.leading_coefficient
    if c == 0 or c.imag != 0:
        return Degeneracy(DegeneracyKind.NON_DEGENERATE)
    if sheet.exact:
        return Degeneracy(DegeneracyKind.COMPLETELY_DEGENERATE, N=N, c=c.real)
    return Degeneracy(
        DegeneracyKind.UNDETERMINED, N=N, c=c.real, checked_order=branches.order
    )


@dataclass(frozen=True)
class DecayReport:
    """Everything the polygon says about the decay of the operator norm.

    Stores the diagonal crossing t0 and its kind, the degeneracy, and the
    polygon; delta = 1/(1 + t0), and the offsets A, B and the edges, each
    with its own exponent delta_nu, are the polygon's.
    """

    t0: Fraction
    boundary_crossing: str
    degeneracy: Degeneracy
    polygon: NewtonPolygon

    @property
    def delta(self) -> Fraction:
        return 1 / (1 + self.t0)

    @property
    def A(self) -> int:
        return self.polygon.A

    @property
    def B(self) -> int:
        return self.polygon.B

    @property
    def edges(self) -> tuple[EdgeData, ...]:
        return self.polygon.edges

    def to_dict(self) -> dict:
        deg: dict = {"kind": self.degeneracy.kind.value}
        if self.degeneracy.N is not None:
            deg["N"] = self.degeneracy.N
        if self.degeneracy.c is not None:
            deg["c"] = self.degeneracy.c
        if self.degeneracy.checked_order is not None:
            deg["checked_order"] = str(self.degeneracy.checked_order)
        return {
            "t0": str(self.t0),
            "delta": str(self.delta),
            "boundary_crossing": self.boundary_crossing,
            "A": self.A,
            "B": self.B,
            "edges": [
                {
                    "gamma": str(e.gamma),
                    "n": e.n,
                    "A_nu": e.lower[0],
                    "B_nu": e.lower[1],
                    "delta_nu": str(e.delta),
                }
                for e in self.edges
            ],
            "degeneracy": deg,
        }


def analyze_decay(F: BivarPoly, branches=None) -> DecayReport:
    """Polygon, crossing, per-edge rates, and degeneracy in one report.

    The polygon is built once; the crossing and the degeneracy test both
    read it.  branches may be passed in to reuse an existing expansion;
    otherwise one is computed at the default order (4 * total_degree + 8)
    when the polygon admits complete degeneracy.  checked_order is the
    order of the expansion actually used.
    """
    polygon = build_polygon(F)
    t0, _, crossing = decay_rate(polygon)
    return DecayReport(
        t0=t0,
        boundary_crossing=crossing,
        degeneracy=_degeneracy(F, polygon, branches),
        polygon=polygon,
    )
