"""Lambda sweeps, decay-exponent fits, and the decay-law verdict.

The norm of the oscillatory operator is measured across a geometric
lambda grid, a power law is fitted in log-log coordinates, and the
fitted slope is compared against the exponent the Newton polygon
predicts: -delta/2 when the mixed derivative is not completely
degenerate, -1/(N+2) with a logarithmic correction when it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, InsufficientSamplesError
from .newton import DecayReport, DegeneracyKind, analyze_decay
from .opnorm import (
    GRID_CAP,
    GRID_MIN,
    GridSpec,
    PhaseSpec,
    auto_grid,
    discretize,
    operator_norm,
    parity_sectors,
)
from .polycore import mixed_derivative

__all__ = [
    "NormSample",
    "SweepConfig",
    "ScalingReport",
    "norm_at",
    "sweep",
    "fit_decay",
    "log_exponent_fit",
    "verify_theorem",
    "CONV_TOL",
]

# a sample is valid when its grid check agrees to this relative gap
CONV_TOL = 0.02
FLAT_SPREAD = 1e-6

VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class NormSample:
    """One norm estimate with its quadrature-error estimate.

    conv_err is the relative gap to the check grid (n/2, or 2n where
    n/2 is below GRID_MIN).  iterations counts Lanczos steps summed
    over every parity sector of every grid solved for the sample, base
    and check grids alike; each step is one product with a sector
    matrix (the full kernel when the phase has no parity) and one with
    its adjoint.
    """

    lam: float
    n: int
    value: float
    conv_err: float
    iterations: int

    @property
    def valid(self) -> bool:
        return self.conv_err < CONV_TOL

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "n": self.n,
            "norm": self.value,
            "conv_err": self.conv_err,
            "iterations": self.iterations,
            "valid": self.valid,
        }


def _default_lambdas() -> tuple[float, ...]:
    return tuple(2.0**m for m in range(4, 12))


@dataclass(frozen=True)
class SweepConfig:
    """Lambda grid and fit settings for a decay measurement."""

    lambdas: tuple[float, ...] = ()
    tol_slope: float = 0.1
    fit_window: Optional[tuple[float, float]] = None
    seed: int = 0

    def __post_init__(self):
        if not self.lambdas:
            object.__setattr__(self, "lambdas", _default_lambdas())
        lams = tuple(float(l) for l in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) < 4:
            raise ValueError("need at least 4 lambda values to fit a slope")
        if not all(math.isfinite(l) for l in lams):
            raise ValueError("lambda values must be finite")
        if any(l <= 0 for l in lams):
            raise ValueError("lambda values must be positive")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda values must be strictly increasing")
        if not self.tol_slope > 0:  # refuses NaN too
            raise ValueError("tol_slope must be positive")
        if self.fit_window is not None:
            lo, hi = self.fit_window
            if not lo < hi:
                raise ValueError("fit_window must be an increasing pair")


def _interp_start(vec: np.ndarray, ys_source, ys_target) -> Optional[np.ndarray]:
    """vec on the nodes ys_source, interpolated onto ys_target, unit norm.

    A real vec gives a real start, so a real sector stays real.
    """
    v = np.interp(ys_target, ys_source, vec.real)
    if np.iscomplexobj(vec):
        v = v + 1j * np.interp(ys_target, ys_source, vec.imag)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return None  # degenerate; let the caller's seed take over
    return v / norm


def _solve(p: PhaseSpec, lam: float, n: int, seed: int, start=None):
    """Build and solve the n-point square grid, one parity sector at a time.

    Returns (value, steps, starts): the largest sector norm, the Lanczos
    steps summed over sectors, and starts = {sector: (ys, vec)}.  A phase
    without parity has the single sector None, the full kernel.  The
    starts of the other grid of the pair warm-start each sector from its
    own.  Only nodes and vectors leave, so each kernel is freed before
    the next one is built.
    """
    g = GridSpec.square(n, p.rho)
    value, steps, starts = 0.0, 0, {}
    for sector in parity_sectors(p.S):
        op = discretize(p, lam, g, sector=sector)
        v0 = None if start is None else _interp_start(start[sector][1], start[sector][0], op.ys)
        s, k, vec = operator_norm(op, seed=seed, v0=v0)
        value, steps = max(value, s), steps + k
        starts[sector] = (op.ys, vec)
        del op
    if not value > 0:
        # the kernel is unimodular times a cutoff that is 1 at the origin
        raise DomainError(
            f"grid n={n} gives norm {value} at lambda={lam}, rho={p.rho}: "
            "the kernel is too small for double precision (underflow)"
        )
    return value, steps, starts


def norm_at(p: PhaseSpec, lam: float, seed: int = 0) -> NormSample:
    """Norm estimate at one lambda with grid-check error control.

    The base grid n is solved first, from the caller's seed.  Its
    estimate is checked against the grid n/2 when n > GRID_MIN, and
    against 2n otherwise; conv_err is the relative gap
    |v(n) - v(check)| / v(n).  auto_grid keeps |lam| * G * h <= pi/4
    at n, so n/2 always passes discretize's pi/2 resolution guard.  The
    midpoint rule on the bump-windowed kernel converges spectrally, so
    the gap to n/2 is a conservative estimate of the error at n.  If the
    gap reaches 2 percent the base doubles and is compared with the grid
    already solved, while 2n fits under GRID_CAP.  Each grid is solved
    one parity sector at a time (_solve), and its value is the largest
    sector norm.  Each solve
    after the first is warm-started from the singular vector of the
    same sector of the other grid of the pair.  auto_grid returns a
    power of two >= GRID_MIN, so n, its check grid and every doubling
    are even and share the phase's sector list.  A grid whose value is
    not positive raises DomainError: T is never zero, so such a value
    means the kernel underflowed in double precision.
    """
    n = auto_grid(p, lam).n
    runs = {n: _solve(p, lam, n, seed)}
    m = n // 2 if n > GRID_MIN else 2 * n
    while True:
        # one grid of the pair is solved; the other warm-starts from it
        for k, other in ((m, n), (n, m)):
            if k not in runs:
                runs[k] = _solve(p, lam, k, seed, start=runs[other][2])
        value, value_m = runs[n][0], runs[m][0]
        conv = abs(value - value_m) / value
        if conv < CONV_TOL or 2 * n > GRID_CAP:
            steps = sum(r[1] for r in runs.values())
            return NormSample(lam=lam, n=n, value=value, conv_err=conv, iterations=steps)
        n, m = 2 * n, n


def sweep(p: PhaseSpec, cfg: SweepConfig | None = None) -> list[NormSample]:
    """One checked NormSample per configured lambda.

    Samples are independent of each other; assembly order follows the
    (increasing) lambda grid, so the output is deterministic for a
    fixed seed.
    """
    cfg = cfg if cfg is not None else SweepConfig()
    return [norm_at(p, lam, seed=cfg.seed) for lam in cfg.lambdas]


def _in_window(s: NormSample, window: Optional[tuple[float, float]]) -> bool:
    return window is None or window[0] <= s.lam <= window[1]


def _fit_points(
    samples: Sequence[NormSample], window: Optional[tuple[float, float]]
) -> list[NormSample]:
    pts = [s for s in samples if s.valid and _in_window(s, window)]
    if len(pts) < 4:
        raise InsufficientSamplesError(
            f"need at least 4 valid samples to fit, have {len(pts)}"
        )
    return pts


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    resid = y - (y.mean() + slope * xc)
    dof = x.size - 2
    var = float(resid @ resid) / dof if dof > 0 else 0.0
    return slope, math.sqrt(var / sxx)


def fit_decay(
    samples: Sequence[NormSample],
    fit_window: Optional[tuple[float, float]] = None,
) -> tuple[float, float]:
    """Least-squares slope of log2(norm) on log2(lambda), with stderr.

    Only valid samples (conv_err < 2 percent) inside the window enter
    the fit.  A flat sequence of norms carries no decay information and
    is refused rather than fitted.
    """
    pts = _fit_points(samples, fit_window)
    vals = np.array([s.value for s in pts], dtype=float)
    if np.any(vals <= 0):
        raise DomainError("norm estimates must be positive to fit a power law")
    if vals.max() / vals.min() - 1.0 < FLAT_SPREAD:
        raise DomainError("norms do not vary across the sweep; nothing to fit")
    x = np.log2([s.lam for s in pts])
    y = np.log2(vals)
    return _ols(np.asarray(x), y)


def log_exponent_fit(samples: Sequence[NormSample], N: int) -> float:
    """Measured exponent of the log factor in the degenerate bound.

    Fits log2(norm * lambda^(1/(N+2))) against log2(log2 lambda); the
    upper bound predicts an exponent of at most 2N/(N+2), and exponent 0
    means the log factor is absent.
    """
    pts = [s for s in samples if s.valid and s.lam > 2.0]
    if len(pts) < 4:
        raise InsufficientSamplesError(
            f"need at least 4 valid samples with lambda > 2, have {len(pts)}"
        )
    lam = np.array([s.lam for s in pts], dtype=float)
    vals = np.array([s.value for s in pts], dtype=float)
    y = np.log2(vals * lam ** (1.0 / (N + 2)))
    x = np.log2(np.log2(lam))
    slope, _ = _ols(x, y)
    return slope


@dataclass(frozen=True)
class ScalingReport:
    """Sweep, fit, prediction, and verdict in one record.

    predicted, read from decay, is -delta/2 from the polygon, or
    -1/(N+2) when the mixed derivative is an exact N-th power of a
    curve; log_exponent is the measured exponent of the log correction
    in that degenerate case (informational: for N = 2 the correction is
    known to be removable).
    retry holds a second report at half the cutoff radius, attached
    when the first verdict is Fail so a too-large neighborhood can be
    told apart from a genuine failure.
    """

    samples: tuple[NormSample, ...]
    slope: float
    stderr: float
    tol_slope: float
    verdict: str
    decay: DecayReport
    log_exponent: Optional[float] = None
    retry: Optional["ScalingReport"] = None

    @property
    def predicted(self) -> Fraction:
        return predicted_exponent(self.decay)

    def to_dict(self) -> dict:
        out = {
            "samples": [s.to_dict() for s in self.samples],
            "slope": self.slope,
            "stderr": self.stderr,
            "predicted": str(self.predicted),
            "tol_slope": self.tol_slope,
            "verdict": self.verdict,
            "decay": self.decay.to_dict(),
        }
        if self.log_exponent is not None:
            out["log_exponent"] = self.log_exponent
        if self.retry is not None:
            out["retry"] = self.retry.to_dict()
        return out


def predicted_exponent(decay: DecayReport) -> Fraction:
    """The decay exponent the analysis predicts for log2-norm slopes."""
    deg = decay.degeneracy
    if deg.kind is DegeneracyKind.COMPLETELY_DEGENERATE:
        return Fraction(-1, deg.N + 2)
    return -decay.delta / 2


def verify_theorem(
    p: PhaseSpec, cfg: SweepConfig | None = None, _allow_retry: bool = True
) -> ScalingReport:
    """Measure the norm decay of the phase and judge it against the prediction.

    Pipeline: mixed derivative, polygon, decay rate, branch expansion,
    degeneracy test, sweep, fit.  Pass means every sample converged and
    the fitted slope sits within tol_slope of the predicted exponent.
    """
    cfg = cfg if cfg is not None else SweepConfig()
    F = mixed_derivative(p.S)
    decay = analyze_decay(F)
    predicted = predicted_exponent(decay)
    deg = decay.degeneracy

    samples = tuple(sweep(p, cfg))
    try:
        slope, stderr = fit_decay(samples, cfg.fit_window)
    except DomainError:
        # flat norms: no oscillatory decay to measure
        return ScalingReport(
            samples=samples,
            slope=math.nan,
            stderr=math.nan,
            tol_slope=cfg.tol_slope,
            verdict=VERDICT_INCONCLUSIVE,
            decay=decay,
        )

    log_exp = None
    if deg.kind is DegeneracyKind.COMPLETELY_DEGENERATE:
        log_exp = log_exponent_fit(samples, deg.N)

    all_valid = all(s.valid for s in samples)
    passed = all_valid and abs(slope - float(predicted)) <= cfg.tol_slope
    verdict = VERDICT_PASS if passed else VERDICT_FAIL

    retry = None
    if verdict == VERDICT_FAIL and _allow_retry:
        half = PhaseSpec(S=p.S, rho=p.rho / 2)
        retry = verify_theorem(half, cfg, _allow_retry=False)

    return ScalingReport(
        samples=samples,
        slope=slope,
        stderr=stderr,
        tol_slope=cfg.tol_slope,
        verdict=verdict,
        decay=decay,
        log_exponent=log_exp,
        retry=retry,
    )
