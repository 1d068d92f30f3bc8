"""Smooth dyadic block decomposition of the operator's ++ quadrant.

Each block T_jk lives on x ~ 2^-j, y ~ 2^-k.  Its position relative to
the polygon edge slopes decides which elementary bound applies: in the
gaps between edge directions the mixed derivative is comparable to a
single vertex monomial, so the oscillation bound (lam*mu)^(-1/2) kicks
in with mu = 2^(-j*A - k*B) read off that vertex; near an edge or near
an axis only the support size bound is claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResolutionError, WrongRegionError
from .newton import NewtonPolygon, build_polygon
from .opnorm import (
    GRID_CAP,
    GridSpec,
    PhaseSpec,
    discretize,
    gradient_bound,
    grid_points,
    op_vdc_bound,
    operator_norm,
    size_bound,
)
from .polycore import BivarPoly, eval_grid, mixed_derivative

_SAMPLE = 16
# a block counts as a violation when it measures above this many times its bound
_RATIO_CAP = 10.0


def _w(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.exp(-1.0 / np.where(s > 0, s, np.nan))
    return np.where(s > 0, raw, 0.0)


def theta(t) -> np.ndarray:
    """Smooth step: 1 on t <= 1, 0 on t >= 2."""
    t = np.asarray(t, dtype=float)
    lo = _w(2.0 - t)
    hi = _w(t - 1.0)
    return lo / (lo + hi)


def chi(j: int, t) -> np.ndarray:
    """Dyadic ring cutoff supported in [2^(-j-1), 2^(-j+1)]."""
    t = np.asarray(t, dtype=float)
    return theta(2.0**j * t) - theta(2.0 ** (j + 1) * t)


@dataclass(frozen=True)
class Region:
    kind: str
    nu: int | None = None

    def __post_init__(self):
        if self.kind not in ("Gap", "NearEdge", "AxisX", "AxisY"):
            raise ValueError(f"unknown region kind {self.kind!r}")

    def __str__(self):
        if self.kind == "Gap":
            return "Gap(vertex)" if self.nu is None else f"Gap({self.nu})"
        if self.kind == "NearEdge":
            return f"NearEdge({self.nu})"
        return self.kind


def classify_block(j: int, k: int, polygon: NewtonPolygon, D: float = 3.0) -> Region:
    """Place block (j, k) relative to the edge directions of the polygon.

    Near-edge bands win ties (lowest edge index first); with no compact
    edges every block is a vertex gap.
    """
    edges = polygon.edges
    if not edges:
        return Region("Gap", None)
    for nu, e in enumerate(edges, start=1):
        if abs(Fraction(k) - j * e.gamma) < D:
            return Region("NearEdge", nu)
    gamma1 = edges[0].gamma
    gamma_m = edges[-1].gamma
    gamma_prime = gamma1 / 2 if polygon.A > 0 else Fraction(0)
    if Fraction(k) <= j * gamma_prime - D:
        return Region("AxisY")
    if polygon.B > 0 and Fraction(k) >= 2 * j * gamma_m + D:
        return Region("AxisX")
    nu = sum(1 for e in edges if j * e.gamma < k)
    return Region("Gap", nu)


def mu_for_block(j: int, k: int, region: Region, polygon: NewtonPolygon) -> float:
    """Dominant-vertex size 2^(-j*A - k*B) on a gap block."""
    if region.kind != "Gap":
        raise WrongRegionError(f"mu is defined on gap blocks, not {region}")
    if region.nu is None:
        a, b = polygon.vertices[0]
    else:
        a, b = polygon.vertices[region.nu]
    return 2.0 ** -(j * a + k * b)


def block_rect(j: int, k: int) -> tuple[float, float, float, float]:
    return (
        2.0 ** (-j - 1),
        2.0 ** (-j + 1),
        2.0 ** (-k - 1),
        2.0 ** (-k + 1),
    )


def empirical_range(F: BivarPoly, j: int, k: int):
    """(min, max) of |F| over a _SAMPLE x _SAMPLE sample of the block rectangle."""
    x0, x1, y0, y1 = block_rect(j, k)
    xs = np.linspace(x0, x1, _SAMPLE)
    ys = np.linspace(y0, y1, _SAMPLE)
    vals = np.abs(eval_grid(F, xs, ys))
    return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class BlockEstimate:
    j: int
    k: int
    mu: float
    measured: float
    osc: float
    region: Region

    @property
    def size(self) -> float:
        """Support-size bound of the block: the ring [2^(-j-1), 2^(-j+1)] is 3 * 2^(-j-1) long."""
        return size_bound(3.0 * 2.0 ** (-self.j - 1), 3.0 * 2.0 ** (-self.k - 1))

    @property
    def bound(self) -> float:
        return min(self.size, self.osc)

    @property
    def ratio(self) -> float:
        return self.measured / self.bound

    def to_row(self) -> dict:
        return {
            "j": self.j,
            "k": self.k,
            "region": str(self.region),
            "mu": self.mu,
            "measured": self.measured,
            "size_bound": self.size,
            "osc_bound": self.osc if math.isfinite(self.osc) else "",
            "ratio": self.ratio,
        }


def first_block_scale(rho: float) -> int:
    """Smallest j whose ring [2^(-j-1), 2^(-j+1)] meets (0, rho)."""
    j = 0
    while 2.0 ** (-j - 1) >= rho:
        j += 1
    return j


def _block_operator(p: PhaseSpec, lam: float, j: int, k: int):
    rect = block_rect(j, k)
    n, _ = grid_points(lam, gradient_bound(p.S, rect), rect)
    if n > GRID_CAP:
        raise ResolutionError(f"block ({j},{k}) needs n={n} at lambda={lam}")
    g = GridSpec(n=n, domain=rect)
    return discretize(
        p,
        lam,
        g,
        x_window=lambda x: chi(j, x),
        y_window=lambda y: chi(k, y),
    )


def measure_block(p: PhaseSpec, lam: float, j: int, k: int, seed: int = 0) -> float:
    """Spectral norm of one block, by the Lanczos solver at every size."""
    return operator_norm(_block_operator(p, lam, j, k), seed=seed)[0]


def verify_blocks(p: PhaseSpec, lam: float, D: float = 3.0, j_max: int = 6, seed: int = 0):
    """Measure every block with j, k <= j_max against its claimed bounds.

    Regions and gap sizes mu are read off the Newton polygon of
    F = S''_xy, both derived from p (EmptyPolygonError when F = 0).
    Returns (estimates, summary); summary carries the worst measured/bound
    ratio per region kind, the blocks exceeding _RATIO_CAP * bound, and any
    per-block resolution failures.  T at -lam is the conjugate kernel,
    so a gap block at any lam != 0 is bounded by op_vdc_bound(|lam|, mu).
    """
    F = mixed_derivative(p.S)
    polygon = build_polygon(F)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if not D > 0:  # refuses NaN too
        raise ValueError(f"band width D must be positive, got {D}")
    j_min = first_block_scale(p.rho)
    if j_max < j_min:
        raise ValueError(f"j_max={j_max} is below the first block scale {j_min}")
    estimates: list[BlockEstimate] = []
    failures: list[tuple[int, int, str]] = []
    for j in range(j_min, j_max + 1):
        for k in range(j_min, j_max + 1):
            region = classify_block(j, k, polygon, D)
            if region.kind == "Gap":
                mu = mu_for_block(j, k, region, polygon)
            else:
                mu, _ = empirical_range(F, j, k)
            try:
                measured = measure_block(p, lam, j, k, seed=seed)
            except ResolutionError as exc:
                failures.append((j, k, str(exc)))
                continue
            if region.kind == "Gap" and lam != 0:
                osc = op_vdc_bound(abs(lam), mu)
            else:
                osc = math.inf
            estimates.append(
                BlockEstimate(j=j, k=k, mu=mu, measured=measured, osc=osc, region=region)
            )
    worst: dict[str, float] = {}
    for e in estimates:
        worst[e.region.kind] = max(worst.get(e.region.kind, 0.0), e.ratio)
    violations = [e for e in estimates if e.measured > _RATIO_CAP * e.bound]
    summary = {
        "lambda": lam,
        "D": D,
        "j_range": [j_min, j_max],
        "worst_ratio": worst,
        "violations": [(e.j, e.k) for e in violations],
        "resolution_failures": failures,
    }
    return estimates, summary
