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

from .newton import lower_chain


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

    Lines i and j tie at the slope of the segment from (i, -r_i) to
    (j, -r_j), so the switch points are the edge slopes of the lower
    convex chain of those points (r_0 = 0); there are at most N.
    """
    chain = lower_chain([(0, 0)] + [(i, -r) for i, r in enumerate(profile.r, start=1)])
    return tuple(Fraction(b1 - b0, a1 - a0) for (a0, b0), (a1, b1) in zip(chain, chain[1:]))


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
    B = 2 ** (N * B_prime)

    corners = envelope_corners(profile)
    # outward integer rounding keeps endpoints at integer exponents; both
    # ends only grow along the ascending corners, so hi is the reach so far
    leading_beta = 0
    intervals: list[tuple[int, int]] = []
    reach: int | None = None
    for x in corners:
        lo, hi = math.floor(x) - B_prime, math.ceil(x) + B_prime
        if lo >= 0:
            break
        if reach is None:
            leading_beta = lo
        elif reach < lo:
            intervals.append((reach, lo))
        reach = hi
    if reach is not None and reach < 0:
        intervals.append((reach, 0))

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
# trials go through the arithmetic in blocks whose h^i table holds at most
# about this many doubles, so memory does not grow with the trial count;
# an h_density whose one-trial table is larger is refused
_BLOCK_ELEMENTS = 1 << 16


def verify_lower_bound(
    profile: ExponentProfile,
    lbset: LowerBoundSet,
    trials: int = 200,
    h_density: int = 12,
    master_seed: int = 0,
) -> LowerBoundReport:
    """Randomized check of min |P| >= 1/B over E.

    Trial t reads draws [t*d, (t+1)*d) of the random() stream of
    default_rng(master_seed), d = N + n_mags + h_density * len(spans), so
    it replays alone after rng.bit_generator.advance(t * d).  In order: N
    signs (+ when >= 1/2); when C > 1, n_mags = N magnitudes 2^r_i *
    C^uniform(-1, 1); then h_density points 2^uniform(lo, hi) per span
    [lo, hi] of E, leading span [leading_beta - 40, leading_beta] first.
    The points come on top of the interval endpoints; h_density 0 samples
    the endpoints alone.  The earliest trial attaining the minimum is the
    worst.  ValueError, before any sampling, when a coefficient or 1 + sum
    |a_i| can overflow a double, or when one trial's table of h^i exceeds
    _BLOCK_ELEMENTS doubles.
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
    N = profile.N
    spans = [(lbset.leading_beta - _LEADING_OCTAVES, lbset.leading_beta), *lbset.intervals]
    ends = [2.0 ** float(b) for _, b in spans] + [2.0 ** float(a) for a, _ in lbset.intervals]
    # one trial's h^i table holds (len(ends) + h_density * len(spans)) * N
    # doubles; refuse before any array is built
    most = max(0, (_BLOCK_ELEMENTS // N - len(ends)) // len(spans))
    if h_density > most:
        raise ValueError(
            f"h_density {h_density} needs more than {_BLOCK_ELEMENTS} doubles per trial "
            f"for this profile; the largest accepted is {most}"
        )
    # columns of one trial's draws: N signs, N magnitudes when C > 1, then
    # h_density per span; uniform(lo, hi) is lo + (hi - lo) * random()
    n_mags = N if profile.C > 1 else 0
    lo = np.repeat([float(a) for a, _ in spans], h_density)
    width = np.repeat([float(b) - float(a) for a, b in spans], h_density)
    pow2r = 2.0 ** np.array(profile.r, dtype=float)
    block = max(1, _BLOCK_ELEMENTS // ((len(ends) + lo.size) * N))
    rng = np.random.default_rng(master_seed)
    min_observed, worst_trial, worst_h = math.inf, -1, math.nan
    for first in range(0, trials, block):
        count = min(block, trials - first)
        draws = rng.random((count, N + n_mags + lo.size))
        mags = pow2r * profile.C ** (-1.0 + 2.0 * draws[:, N : N + n_mags]) if n_mags else pow2r
        coeffs = np.where(draws[:, :N] >= 0.5, mags, -mags)
        # 2^e by the scalar libm pow: numpy's vectorized power differs from
        # it in the last bit for about 5% of exponents on an AVX-512 host
        exps = (lo + width * draws[:, N + n_mags :]).ravel().tolist()
        points = np.fromiter(map((2.0).__pow__, exps), float, len(exps)).reshape(count, -1)
        hs = np.sort(np.hstack([np.broadcast_to(ends, (count, len(ends))), points]), axis=1)
        # P(h) = 1 + sum a_i h^i over every trial's grid, one matmul per trial
        table = hs[:, :, None] ** np.arange(1, N + 1)
        abs_p = np.abs(1.0 + table @ coeffs[:, :, None])[:, :, 0]
        # the first minimum in row order: the earliest trial, its first h
        t, i = divmod(int(np.argmin(abs_p)), abs_p.shape[1])
        if abs_p[t, i] < min_observed:
            min_observed, worst_trial, worst_h = float(abs_p[t, i]), first + t, float(hs[t, i])
    return LowerBoundReport(
        min_observed=min_observed,
        bound=lbset.bound,
        trials=trials,
        h_density=h_density,
        worst_trial=worst_trial,
        worst_h=worst_h,
    )
