"""Lower-bound sets for polynomials with dyadically pinned coefficients.

A profile fixes sizes 2^r_i (up to a factor C) for the coefficients of
1 + sum a_i h^i.  On [0, 1] minus small dyadic neighborhoods of the
switch points of the envelope max_i (r_i + i*x), one coefficient's term
dominates the whole sum, forcing |P(h)| >= 1/B with B depending only on
the profile.  This module builds that exceptional set exactly and checks
the bound on randomized samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ExponentProfile:
    """Coefficient size pattern: |a_i| within factor C of 2^r[i-1], i = 1..N."""

    r: tuple[int, ...]
    C: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        if len(self.r) < 1:
            raise ValueError("profile needs at least one coefficient size")
        if any(v < 0 for v in self.r):
            raise ValueError("size exponents must be nonnegative")
        if not self.C >= 1:
            raise ValueError("the size slack C must be at least 1")

    @property
    def N(self) -> int:
        return len(self.r)


def envelope_corners(profile: ExponentProfile) -> tuple[Fraction, ...]:
    """Switch points of x -> max_i (r_i + i*x), exactly, left to right.

    Slopes are the distinct integers 0..N (r_0 = 0), so every point where
    two lines tie on the envelope is a genuine switch; there are at most N.
    """
    lines = [(0, Fraction(0))] + [
        (i, Fraction(r)) for i, r in enumerate(profile.r, start=1)
    ]
    # sweep by increasing slope; stack holds (slope, intercept, start_x)
    stack: list[tuple[int, Fraction, Fraction | None]] = []
    for slope, intercept in lines:
        start = None
        while stack:
            s0, b0, x0 = stack[-1]
            # slopes arrive strictly increasing, so the new line overtakes
            # the current top exactly once
            cross = Fraction(b0 - intercept, slope - s0)
            if x0 is not None and cross <= x0:
                stack.pop()
                continue
            start = cross
            break
        stack.append((slope, intercept, start))
    corners = sorted({x for _, _, x in stack if x is not None})
    return tuple(corners)


@dataclass(frozen=True)
class LowerBoundSet:
    """The set E = [0, 2^leading_beta] + closed dyadic intervals, with 1/B.

    Interval endpoints are integer powers of two; the chain
    leading_beta < alpha_1 < beta_1 < ... <= 0 is strict, so degenerate
    pieces are dropped during construction.
    """

    leading_beta: int
    intervals: tuple[tuple[int, int], ...]
    corners: tuple[Fraction, ...]
    B_prime: int
    B: int

    def __post_init__(self):
        if self.leading_beta > 0:
            raise ValueError("E lives inside [0, 1]")
        prev = self.leading_beta
        for a, b in self.intervals:
            if not (prev < a < b <= 0):
                raise ValueError("interval exponents must increase strictly")
            prev = b

    @property
    def bound(self) -> float:
        return 1.0 / self.B

    def to_dict(self) -> dict:
        return {
            "leading_beta": self.leading_beta,
            "intervals": [{"alpha": a, "beta": b} for a, b in self.intervals],
            "corners": [str(x) for x in self.corners],
            "B_prime": self.B_prime,
            "B": self.B,
        }


def lower_bound_set(profile: ExponentProfile) -> LowerBoundSet:
    """Excise rounded B'-neighborhoods of every envelope corner from [0, 1].

    ValueError when B = 2^(N B') reaches 2^1024, where 1/B is no double.
    """
    N = profile.N
    C = profile.C
    log2_slack = math.log2(4 * C * C * (N + 1))  # inf once C * C overflows
    B_prime = math.ceil(log2_slack) if math.isfinite(log2_slack) else math.inf
    if N * B_prime >= 1024:
        raise ValueError(
            f"profile constants overflow a double: C={C}, N={N}, "
            f"log2 B={N * B_prime} (needs < 1024)"
        )
    B = max(2 ** (N * B_prime), math.ceil(2 * C * C * (N + 1)))

    corners = envelope_corners(profile)
    # outward integer rounding keeps endpoints at integer exponents
    raw = [(math.floor(x) - B_prime, math.ceil(x) + B_prime) for x in corners]
    raw.sort()
    merged: list[list[int]] = []
    for lo, hi in raw:
        if merged and lo < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    leading_beta = 0
    intervals: list[tuple[int, int]] = []
    prev_hi: int | None = None
    for lo, hi in merged:
        if lo >= 0:
            break
        if prev_hi is None:
            leading_beta = lo
        elif prev_hi < min(lo, 0):
            intervals.append((prev_hi, min(lo, 0)))
        prev_hi = hi
    if prev_hi is not None and prev_hi < 0:
        intervals.append((prev_hi, 0))

    return LowerBoundSet(
        leading_beta=leading_beta,
        intervals=tuple(intervals),
        corners=corners,
        B_prime=B_prime,
        B=B,
    )


@dataclass(frozen=True)
class LowerBoundReport:
    min_observed: float
    bound: float
    trials: int
    h_density: int
    worst_trial: int
    worst_h: float

    @property
    def passed(self) -> bool:
        return self.min_observed >= self.bound

    def to_dict(self) -> dict:
        return {
            "min_observed": self.min_observed,
            "bound": self.bound,
            "pass": self.passed,
            "trials": self.trials,
            "h_density": self.h_density,
            "worst_trial": self.worst_trial,
            "worst_h": self.worst_h,
        }


# the leading interval reaches h = 0; sample it over this many octaves
# below its right end, which is deep inside the P ~ 1 regime
_LEADING_OCTAVES = 40


def sample_points(lbset: LowerBoundSet, h_density: int, rng) -> np.ndarray:
    """Log-uniform draws per interval of E, plus every interval endpoint."""
    spans = [(lbset.leading_beta - _LEADING_OCTAVES, lbset.leading_beta)]
    spans.extend(lbset.intervals)
    values = [2.0 ** float(b) for _, b in spans]
    values.extend(2.0 ** float(a) for a, _ in lbset.intervals)
    for lo, hi in spans:
        if h_density > 0 and hi > lo:
            exps = rng.uniform(float(lo), float(hi), size=h_density)
            values.extend(2.0**e for e in exps)
    return np.array(sorted(values))


def sample_coefficients(profile: ExponentProfile, rng) -> np.ndarray:
    """One admissible coefficient vector: random signs, log-uniform sizes."""
    N = profile.N
    signs = rng.integers(0, 2, size=N) * 2 - 1
    if profile.C > 1:
        mags = 2.0 ** np.array(profile.r, dtype=float) * profile.C ** rng.uniform(
            -1.0, 1.0, size=N
        )
    else:
        mags = 2.0 ** np.array(profile.r, dtype=float)
    return signs * mags


def verify_lower_bound(
    profile: ExponentProfile,
    lbset: LowerBoundSet,
    trials: int = 200,
    h_density: int = 12,
    master_seed: int = 0,
) -> LowerBoundReport:
    """Randomized check of min |P| >= 1/B over E.

    Each trial draws its own generator from (master_seed, trial index), so
    any single trial can be replayed in isolation.  h_density draws per
    interval come on top of the interval endpoints; 0 samples the
    endpoints alone.  ValueError, before any sampling, when a coefficient
    or 1 + sum |a_i| can overflow a double.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if h_density < 0:
        raise ValueError(f"h_density must be at least 0, got {h_density}")
    # |P| <= 1 + sum C 2^r_i on [0, 1]; past the double range the samples
    # are inf or NaN, and a NaN sample checks nothing
    try:
        top = math.fsum([1.0, *(math.ldexp(profile.C, r) for r in profile.r)])
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(
            f"profile coefficients overflow a double: C={profile.C}, max r={max(profile.r)} "
            "(1 + C * sum 2^r_i needs < 2^1024)"
        )
    powers = np.arange(1, profile.N + 1)
    min_observed = math.inf
    worst_trial = -1
    worst_h = math.nan
    for t in range(trials):
        rng = np.random.default_rng([master_seed, t])
        coeffs = sample_coefficients(profile, rng)
        hs = sample_points(lbset, h_density, rng)
        # P(h) = 1 + sum a_i h^i evaluated across the whole grid at once
        values = 1.0 + (hs[:, None] ** powers[None, :]) @ coeffs
        idx = int(np.argmin(np.abs(values)))
        trial_min = float(abs(values[idx]))
        if trial_min < min_observed:
            min_observed = trial_min
            worst_trial = t
            worst_h = float(hs[idx])
    return LowerBoundReport(
        min_observed=min_observed,
        bound=lbset.bound,
        trials=trials,
        h_density=h_density,
        worst_trial=worst_trial,
        worst_h=worst_h,
    )
