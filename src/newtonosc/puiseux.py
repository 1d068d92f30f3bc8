"""Numeric Newton-Puiseux expansion of a polynomial's zero set near 0+.

Exponents are exact, coefficients complex doubles.  Along a branch every
exponent is a multiple of 1/D, D the lcm of the slope denominators so far,
so a polynomial is keyed by (E, k) for x^(E/D) y^k with E an int.  Each
level reads the power y^v dividing it, its Newton polygon and the edge
polynomials from the lowest key of each row, found in one pass; those row
minima have the same Pareto points as the full support, and
newton.lower_hull and newton.hull_edges build the polygon exactly as for F.
It picks a slope, rescales the keys if the slope needs a larger D, solves
the edge polynomial for leading coefficients (a linear one by its quotient,
without an eigensolve), substitutes, and recurses.  Ramification is tracked
per branch; there is never a global x -> x^(1/r) substitution.

The sheets that stop at one prefix (an exact root, sheets stuck at the
cluster scale, continuations beyond the order) form one branch: terms,
multiplicity and the order resolved, None when every sheet is exact.
Sheets with different prefixes are never merged.

Truncation is reported in band: a cluster of sheets that agree to the
computed order comes back as one branch with the combined multiplicity
and split_undetermined set, never as an exception and never silently
merged as proven equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DomainError, EmptyPolygonError
from .newton import EdgeData, hull_edges, lower_hull
from .polycore import BivarPoly

# An exact m-fold root of an edge polynomial scatters by about eps^(1/m)
# relative in double precision (measured: ~8e-8 for doubles, ~1e-5 for
# triples), so _cluster_roots merges a candidate cluster of s >= 2 roots
# at _CLUSTER_LADDER * eps^(1/s) relative, at least 1.49e-6.  A set of
# fewer than two sheets is never clustered; CLUSTER_REL_TOL is the
# cluster_tolerance it reports.
CLUSTER_REL_TOL = 1e-6
_CLUSTER_LADDER = 100.0
# Coefficients below this fraction of their accumulated absolute mass are
# cancellation residue and are dropped after substitution.
PRUNE_REL_TOL = 1e-10
REAL_SNAP_TOL = 1e-10

_MAX_DEPTH = 512
# Sheets are expanded one by one; time grows as their count squared (x + y^1000: 35 s).
_MAX_SHEETS = 1024


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

    order is the exponent the series is resolved up to, None when it
    terminates (the sum is the whole solution: the branch is exact).
    ramification, the lcm of the exponent denominators, is this sheet's
    alone, never shared across branches.  split_undetermined marks a
    non-exact cluster of several sheets not told apart at this order.
    """

    terms: tuple[PuiseuxTerm, ...]
    multiplicity: int = 1
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
    def exact(self) -> bool:
        return self.order is None

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


@dataclass(frozen=True)
class BranchSet:
    """All solution sheets of F = 0 through the origin, plus axis factors.

    axis_roots counts the plain x and y powers dividing F; they are kept
    as counts, not branches.  total_multiplicity is the number of sheets
    (with multiplicity) tending to 0 along x -> 0+, the sum of branch
    multiplicities.  cluster_tolerance is the relative tolerance that
    merges root clusters of that many sheets at the top level.
    """

    branches: tuple[PuiseuxBranch, ...]
    axis_roots: tuple[int, int]
    order: Fraction

    @property
    def total_multiplicity(self) -> int:
        return sum(b.multiplicity for b in self.branches)

    @property
    def cluster_tolerance(self) -> float:
        m = self.total_multiplicity
        return _cluster_tol(m) if m >= 2 else CLUSTER_REL_TOL

    def to_dict(self) -> dict:
        return {
            "axis_roots": {"x": self.axis_roots[0], "y": self.axis_roots[1]},
            "total_multiplicity": self.total_multiplicity,
            "cluster_tolerance": self.cluster_tolerance,
            "order": str(self.order),
            "branches": [
                {
                    "leading_exp": str(b.leading_exponent),
                    "ramification": b.ramification,
                    "terms": [
                        {
                            "exp": str(t.exponent),
                            "re": t.coefficient.real,
                            "im": t.coefficient.imag,
                        }
                        for t in b.terms
                    ],
                    "multiplicity": b.multiplicity,
                    "reality": b.reality.value,
                    "exact": b.exact,
                    "split_undetermined": b.split_undetermined,
                }
                for b in self.branches
            ],
        }


# --- edge polynomials -------------------------------------------------------


def _edge_poly(poly, low, edge: EdgeData):
    """Coefficients (highest power first) of the edge polynomial psi.

    psi(z) collects the support points on the edge, each the lowest of its
    row, so only the row minima low (row k -> least E) are read.  Its
    nonzero roots are the admissible leading coefficients at the edge's
    slope.  The constant term sits at the lower vertex, so zero is never a root.
    """
    (e_up, k_up), (e_lo, k_lo) = edge.upper, edge.lower
    run, n = e_lo - e_up, edge.n
    coeffs = np.zeros(n + 1, dtype=complex)
    for k in range(k_lo, k_up + 1):
        e = low.get(k)
        if e is not None and (e - e_up) * n == run * (k_up - k):
            coeffs[k_up - k] = poly[(e, k)]
    return coeffs


# --- roots of the edge polynomial ------------------------------------------


def _cluster_tol(size: int) -> float:
    eps = float(np.finfo(float).eps)
    return _CLUSTER_LADDER * eps ** (1.0 / size)


def _linkage(roots, tol):
    """Single-linkage groups at an absolute threshold, by flood fill.

    Each root merges every group with a member within tol.  Groups and
    their members keep input order, so a mean sums its roots in order.
    """
    groups: list[list[int]] = []
    for k, z in enumerate(roots):
        near = [g for g in groups if any(abs(z - roots[i]) <= tol for i in g)]
        groups = [g for g in groups if g not in near] + [sorted(sum(near, [])) + [k]]
    return [[roots[i] for i in g] for g in sorted(groups)]


def _resolve_clusters(roots, scale):
    """Split a candidate cluster at the tolerance its own size justifies.

    A set of s roots is accepted as one s-fold root only if they all sit
    within the s-fold scatter radius; otherwise the subgroups are resolved
    recursively at their own, tighter, radii.  Distinct roots closer than
    the scatter radius of the enclosing group are therefore still told
    apart whenever double precision can tell them apart.
    """
    s = len(roots)
    if s == 1:
        return [(roots[0], 1)]
    groups = _linkage(roots, _cluster_tol(s) * scale)
    if len(groups) == 1:
        return [(sum(roots) / s, s)]
    out = []
    for g in groups:
        out.extend(_resolve_clusters(g, scale))
    return out


def _cluster_roots(roots, psi):
    """Cluster scattered copies of multiple roots; returns (mean, size) pairs.

    A two-term psi, a*z^n + b, is never clustered: its roots are simple,
    since its derivative vanishes only at 0, which is not a root.
    """
    if np.count_nonzero(psi) == 2:
        out = [(r, 1) for r in roots]
    else:
        scale = max(1.0, max(abs(r) for r in roots))
        out = _resolve_clusters(list(roots), scale)
    out.sort(key=lambda rc: (rc[0].real, rc[0].imag))
    return out


def _polish_root(psi, root, multiplicity):
    """Refine a cluster mean; an m-fold root is simple for the (m-1)th derivative."""
    p = np.asarray(psi, dtype=complex)
    for _ in range(multiplicity - 1):
        p = np.polyder(p)
    dp = np.polyder(p)
    z = complex(root)
    for _ in range(8):
        dv = np.polyval(dp, z)
        if dv == 0:
            break
        step = np.polyval(p, z) / dv
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    if abs(z - root) > 1e-4 * max(1.0, abs(root)):
        return complex(root)  # the polish ran away; trust the cluster
    return z


def _snap(z: complex) -> complex:
    scale = max(1.0, abs(z))
    re, im = z.real, z.imag
    if im != 0 and abs(im) <= REAL_SNAP_TOL * scale:
        im = 0.0
    if re != 0 and abs(re) <= REAL_SNAP_TOL * scale:
        re = 0.0
    return complex(re, im)


# --- substitution -----------------------------------------------------------


def _substitute(poly, G, c):
    """Apply y -> c*x^(G/D) + y on keys over D, pruning cancellation residue.

    Each key accumulates one [value, mass] cell, the mass summing absolute
    contributions; entries whose final value is below PRUNE_REL_TOL of that
    mass are treated as exact cancellations.  A cell starts at 0j + coeff*w,
    so a zero part is +0.0 whatever the sign of the product's.
    """
    cells: dict[tuple[int, int], list] = {}
    # y^k -> sum_j comb(k, j) c^(k-j) x^(G(k-j)/D) y^j: one row per degree k
    rows: dict[int, list[tuple[int, int, complex, float]]] = {}
    for (e, k), coeff in poly.items():
        if k not in rows:
            weights = [math.comb(k, j) * c ** (k - j) for j in range(k + 1)]
            rows[k] = [(j, G * (k - j), w, abs(w)) for j, w in enumerate(weights)]
        mass = abs(coeff)
        for j, shift, w, w_abs in rows[k]:
            key = (e + shift, j)
            cell = cells.get(key)
            if cell is None:
                cells[key] = [0j + coeff * w, mass * w_abs]
            else:
                cell[0] += coeff * w
                cell[1] += mass * w_abs
    return {key: val for key, (val, acc) in cells.items() if abs(val) > PRUNE_REL_TOL * acc}


# --- the expansion ----------------------------------------------------------


def _expand(poly, D, m, prefix, gamma_prev, order, out):
    """Expand the m sheets of poly, whose key (E, k) is x^(E/D) y^k."""
    # prefix holds nonzero terms only; a zero root leaves the keys as they
    # are, and the levels below it take strictly steeper edges
    if len(prefix) > _MAX_DEPTH:
        raise DomainError(
            f"a sheet needs more than {_MAX_DEPTH} terms below order {order}; "
            "ask for a lower order"
        )
    low: dict[int, int] = {}  # row k -> its least E
    for e, k in poly:
        if k not in low or e < low[k]:
            low[k] = e
    # y^v divides exactly: the prefix is a terminating solution of v sheets
    v = min(low)
    if v > 0:
        poly = {(e, k - v): c for (e, k), c in poly.items()}
        low = {k - v: e for k, e in low.items()}

    hull = lower_hull((E, k) for k, E in low.items())
    edges = [(e, e.gamma / D) for e in hull_edges(hull)]
    target = [(e, gamma) for e, gamma in edges if gamma > gamma_prev]
    k_top = target[0][0].upper[1] if target else 0
    # sheets stuck at the cluster scale: conflated roots that did not
    # separate; report them on the prefix, never drop them
    stuck = m - v - k_top
    if stuck < 0:
        raise RuntimeError("sheet accounting failed during expansion")

    slot = len(out)
    beyond = 0
    for edge, gamma in target:
        # gamma_prev is 0 only at the top level: every hull edge has gamma > 0
        if gamma > order and gamma_prev:
            # continuations live entirely beyond the horizon: they stop
            # on the prefix with its exact and stuck sheets
            beyond += edge.n
            continue
        psi = _edge_poly(poly, low, edge)
        # a linear psi's root is the quotient np.roots would hand its 1x1 eigensolve
        roots = list(-psi[1:] / psi[0] if edge.n == 1 else np.roots(psi))
        # put the slope on the lattice: one rescale of the keys, shared by
        # every root of this edge, when its denominator does not divide D
        D2 = math.lcm(D, gamma.denominator)
        s = D2 // D
        scaled = poly if s == 1 else {(e * s, k): c for (e, k), c in poly.items()}
        G = gamma.numerator * (D2 // gamma.denominator)
        for mean, size in _cluster_roots(roots, psi):
            c = _snap(_polish_root(psi, mean, size))
            terms = prefix + [PuiseuxTerm(gamma, c)] if c else prefix
            if gamma > order:
                # top level: a branch needs its leading term even when that
                # term already sits beyond the requested order
                out.append(PuiseuxBranch(terms, size, order))
                continue
            sub = _substitute(scaled, G, c)
            _expand(sub, D2, size, terms, gamma, order, out)

    # the sheets that stop at this prefix form one branch, exact only
    # when all of them are; it precedes the continuations unless it holds
    # nothing but sheets beyond the order
    mult = v + stuck + beyond
    if mult:
        resolved = None if mult == v else gamma_prev if stuck else order
        out.insert(slot if v or stuck else len(out), PuiseuxBranch(prefix, mult, resolved))


def expand_branches(F: BivarPoly, order=None) -> BranchSet:
    """Expand every solution sheet of F = 0 through the origin.

    order (default 4*total_degree + 8) bounds the largest exponent computed
    and must be positive.  DomainError refuses F with over _MAX_SHEETS
    sheets, a sheet needing over _MAX_DEPTH terms, a coefficient of F
    beyond the double range or rounding to 0.0, and a coefficient of a
    sheet that overflows a double.  Pure x and y factors are split off
    into axis_roots first, so a monomial comes back with no branches.
    """
    if not F:
        raise EmptyPolygonError("the zero polynomial has no branch structure")
    if order is None:
        order = Fraction(4 * F.total_degree() + 8)
    order = Fraction(order)
    if order <= 0:
        raise ValueError(f"branch order must be positive, got {order}")

    A = min(a for a, _ in F.support())
    B = min(b for _, b in F.support())
    work = {}
    for (a, b), c in F.terms.items():
        try:
            work[(a - A, b - B)] = z = complex(c)
        except OverflowError:
            z = None
        if not z:
            # a coefficient that rounds to 0j would act as support
            where = "beyond" if z is None else "below"
            raise DomainError(
                f"the coefficient of {BivarPoly({(a, b): 1}).render()} in F "
                f"is {where} the double range"
            )
    m = min(k for (e, k) in work if e == 0)
    if m > _MAX_SHEETS:
        raise DomainError(
            f"F has {m} sheets through the origin; at most {_MAX_SHEETS} are expanded"
        )

    branches: list[PuiseuxBranch] = []
    if m > 0:
        try:
            _expand(work, 1, m, [], Fraction(0), order, branches)
        except OverflowError as exc:
            raise DomainError(
                f"a Puiseux coefficient overflowed a double below order {order}"
            ) from exc
    branches.sort(
        key=lambda b: (
            b.leading_exponent,
            b.leading_coefficient.real,
            b.leading_coefficient.imag,
        ),
    )
    out = BranchSet(branches=tuple(branches), axis_roots=(A, B), order=order)
    if out.total_multiplicity != m:
        raise RuntimeError(
            f"expansion lost sheets: expected {m}, accounted {out.total_multiplicity}"
        )
    return out

