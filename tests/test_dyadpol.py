"""Tests for the dyadic coefficient lower-bound sets."""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from newtonosc import dyadpol
from newtonosc.dyadpol import (
    ExponentProfile,
    LowerBoundSet,
    envelope_corners,
    lower_bound_set,
    verify_lower_bound,
)


def contains(e: LowerBoundSet, h: float) -> bool:
    """h lies in E = [0, 2^leading_beta] + the dyadic intervals."""
    if not 0 <= h <= 1:
        return False
    if h <= 2.0**e.leading_beta:
        return True
    return any(2.0**a <= h <= 2.0**b for a, b in e.intervals)


def oracle_corners(profile):
    """Envelope switch points by brute force over pairwise ties.

    Distinct integer slopes mean a tie on the envelope is always a switch,
    so it suffices to test every pairwise crossing against the max.
    """
    lines = [(0, Fraction(0))] + [
        (i, Fraction(r)) for i, r in enumerate(profile.r, start=1)
    ]
    xs = set()
    for (i, bi), (k, bk) in itertools.combinations(lines, 2):
        x = Fraction(bi - bk, k - i)
        top = max(b + s * x for s, b in lines)
        if bi + i * x == top:
            xs.add(x)
    return tuple(sorted(xs))


def sample_points(lbset: LowerBoundSet, h_density: int, rng) -> np.ndarray:
    """Log-uniform draws per interval of E, plus every interval endpoint."""
    spans = [(lbset.leading_beta - dyadpol._LEADING_OCTAVES, lbset.leading_beta)]
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


def replay_trial(profile, lbset, h_density, master_seed, t):
    """Trial t on its own: (min |P| over its grid, the h attaining it first)."""
    rng = np.random.default_rng([master_seed, t])
    coeffs = sample_coefficients(profile, rng)
    hs = sample_points(lbset, h_density, rng)
    powers = np.arange(1, profile.N + 1)
    values = 1.0 + (hs[:, None] ** powers[None, :]) @ coeffs
    idx = int(np.argmin(np.abs(values)))
    return float(abs(values[idx])), float(hs[idx])


def replay_verify(profile, lbset, trials, h_density, master_seed):
    """The per-trial loop: (min_observed, worst_trial, worst_h), earliest trial on ties."""
    min_observed, worst_trial, worst_h = math.inf, -1, math.nan
    for t in range(trials):
        trial_min, h = replay_trial(profile, lbset, h_density, master_seed, t)
        if trial_min < min_observed:
            min_observed, worst_trial, worst_h = trial_min, t, h
    return min_observed, worst_trial, worst_h


def worst(rep):
    return rep.min_observed, rep.worst_trial, rep.worst_h


def criterion6_profiles(count):
    """The first profiles of criterion 6's generator."""
    rng = np.random.default_rng(6)
    out = []
    for _ in range(count):
        N = int(rng.integers(1, 5))
        out.append(tuple(int(v) for v in rng.integers(0, 13, size=N)))
    return out


def random_profile(rng, max_n=4, max_r=10):
    n = int(rng.integers(1, max_n + 1))
    r = tuple(int(v) for v in rng.integers(0, max_r + 1, size=n))
    c = float(rng.choice([1.0, 2.0, 4.0]))
    return ExponentProfile(r=r, C=c)


class TestProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentProfile(r=())
        with pytest.raises(ValueError):
            ExponentProfile(r=(0, -1))
        with pytest.raises(ValueError):
            ExponentProfile(r=(3,), C=0.5)
        assert ExponentProfile(r=(0, 6)).N == 2


class TestCorners:
    def test_middle_line_shadowed(self):
        # lines 0, x, 6+2x: the slope-1 line never reaches the top
        assert envelope_corners(ExponentProfile(r=(0, 6), C=1)) == (Fraction(-3),)

    def test_single_line_cases(self):
        assert envelope_corners(ExponentProfile(r=(0,), C=2)) == (Fraction(0),)
        assert envelope_corners(ExponentProfile(r=(5,), C=2)) == (Fraction(-5),)

    def test_coincident_crossings_collapse(self):
        # all of 0, x, 2x meet at the origin: one corner
        assert envelope_corners(ExponentProfile(r=(0, 0), C=1)) == (Fraction(0),)

    def test_fractional_corner(self):
        # 5+2x overtakes the constant line at -5/2; 2+x stays underneath
        assert envelope_corners(ExponentProfile(r=(2, 5), C=1)) == (Fraction(-5, 2),)

    def test_two_corners(self):
        assert envelope_corners(ExponentProfile(r=(8, 10), C=1)) == (
            Fraction(-8),
            Fraction(-2),
        )

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(20210)
        for _ in range(200):
            p = random_profile(rng, max_n=6, max_r=12)
            assert envelope_corners(p) == oracle_corners(p)


class TestLowerBoundSet:
    def test_constants(self):
        table = [
            ((0,), 1.0, 3, 8),
            ((0,), 2.0, 5, 32),
            ((0, 6), 1.0, 4, 256),
            ((0, 0, 0, 0), 4.0, 9, 2**36),
        ]
        for r, c, bp, b in table:
            e = lower_bound_set(ExponentProfile(r=r, C=c))
            assert (e.B_prime, e.B) == (bp, b)

    def test_b_is_a_power_of_two_above_the_slack(self):
        # B' = ceil(log2 4C^2(N+1)) makes 2^(N B') >= 2 * 2C^2(N+1), so the
        # bound never needs B = ceil(2C^2(N+1)) in its place
        profiles = [ExponentProfile(r=r, C=2.0) for r in criterion6_profiles(200)]
        rng = np.random.default_rng(38)
        for C in (1.0, 2.0, 3.7, 1e10):
            profiles += [ExponentProfile(r=random_profile(rng, max_n=8, max_r=40).r, C=C) for _ in range(50)]
        for p in profiles:
            e = lower_bound_set(p)
            assert e.B == 2 ** (p.N * e.B_prime)
            assert e.B >= math.ceil(2 * p.C * p.C * (p.N + 1))

    @pytest.mark.parametrize(
        "r, C, log2_B",
        [
            ((0, 6), math.inf, "inf"),
            ((0, 6), 1e154, "inf"),  # 4 C^2 overflows
            ((0,) * 200, 2.0, "2400"),
            ((0, 6, 3, 2), 1e40, "1084"),
        ],
    )
    def test_bound_below_the_double_range_is_refused(self, r, C, log2_B):
        with pytest.raises(ValueError, match=re.escape(f"C={C}, N={len(r)}, log2 B={log2_B} ")):
            lower_bound_set(ExponentProfile(r=r, C=C))

    def test_smallest_double_bound_is_accepted(self):
        # 4 C^2 (N + 1) = 2^1023 gives B' = 1023 and B = 2^1023; 1% more
        # C needs B = 2^1024, whose 1/B is no double
        e = lower_bound_set(ExponentProfile(r=(0,), C=2.0**510))
        assert (e.B_prime, e.B, e.bound) == (1023, 2**1023, 2.0**-1023)
        with pytest.raises(ValueError, match="log2 B=1024 "):
            lower_bound_set(ExponentProfile(r=(0,), C=1.01 * 2.0**510))

    def test_single_corner_excision(self):
        e = lower_bound_set(ExponentProfile(r=(0, 6), C=1))
        assert e.corners == (Fraction(-3),)
        assert e.leading_beta == -7
        assert e.intervals == ()

    def test_corner_at_origin(self):
        e = lower_bound_set(ExponentProfile(r=(0,), C=2))
        assert e.leading_beta == -5
        assert e.intervals == ()

    def test_degenerate_piece_dropped(self):
        # excision (2^-10, 2^0) leaves only the point h = 1, which is
        # dropped to keep the exponent chain strict
        e = lower_bound_set(ExponentProfile(r=(5,), C=2))
        assert e.leading_beta == -10
        assert e.intervals == ()

    def test_separated_intervals(self):
        e = lower_bound_set(ExponentProfile(r=(20, 22), C=1))
        assert e.corners == (Fraction(-20), Fraction(-2))
        assert e.leading_beta == -24
        assert e.intervals == ((-16, -6),)

    def test_fractional_corner_rounds_outward(self):
        e = lower_bound_set(ExponentProfile(r=(2, 5), C=1))
        # corner -5/2 widens to the integer range (-3-4, -2+4)
        assert e.leading_beta == -7
        assert e.intervals == ()

    def test_contains(self):
        e = lower_bound_set(ExponentProfile(r=(0, 6), C=1))
        assert contains(e, 0.0)
        assert contains(e, 2.0**-7)
        assert contains(e, 2.0**-9)
        assert not contains(e, 2.0**-6)
        assert not contains(e, 1.0)
        assert not contains(e, -0.1)
        assert not contains(e, 1.5)
        two = lower_bound_set(ExponentProfile(r=(20, 22), C=1))
        assert contains(two, 2.0**-10)
        assert not contains(two, 2.0**-18)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            LowerBoundSet(
                leading_beta=-4,
                intervals=((-4, -2),),
                corners=(),
                B_prime=3,
                B=8,
            )
        with pytest.raises(ValueError):
            LowerBoundSet(
                leading_beta=1, intervals=(), corners=(), B_prime=3, B=8
            )

    def test_structural_invariants(self):
        rng = np.random.default_rng(77821)
        for _ in range(150):
            p = random_profile(rng, max_n=4, max_r=12)
            e = lower_bound_set(p)
            rmax = max(1, max(p.r))
            assert e.leading_beta >= -e.B * rmax
            # excluded log-length: gaps between pieces plus the tail to 0
            prev = e.leading_beta
            excluded = 0
            for a, b in e.intervals:
                excluded += a - prev
                prev = b
            excluded += 0 - prev
            assert excluded <= e.B
            for x in e.corners:
                if x <= 0:
                    assert not contains(e, 2.0 ** float(x))
            assert contains(e, 2.0**e.leading_beta)
            for a, b in e.intervals:
                assert contains(e, 2.0**a) and contains(e, 2.0**b)

    def test_matches_the_excised_neighborhoods(self):
        # E is [0, 1] minus the open rounded B'-neighborhoods of the
        # corners, read in exponents; the corners come from the pairwise
        # oracle, and the exponents checked are the half-integers below 0,
        # so none is an endpoint of E or of a neighborhood
        rng = random.Random(11)
        points = 0
        for _ in range(300):
            r = [rng.randint(0, 40) for _ in range(rng.randint(1, 6))]
            for C in (1, 2, 3.7):
                p = ExponentProfile(r=r, C=C)
                e = lower_bound_set(p)
                hoods = [(math.floor(x) - e.B_prime, math.ceil(x) + e.B_prime) for x in oracle_corners(p)]
                for j in range(e.leading_beta - 3, 0):
                    t = j + 0.5
                    inside = t <= e.leading_beta or any(a < t < b for a, b in e.intervals)
                    assert inside == (not any(lo < t < hi for lo, hi in hoods)), (r, C, t)
                    points += 1
        assert points > 25_000  # 28,218

    def test_to_dict(self):
        d = lower_bound_set(ExponentProfile(r=(20, 22), C=1)).to_dict()
        assert d["intervals"] == [{"alpha": -16, "beta": -6}]
        assert d["corners"] == ["-20", "-2"]
        assert d["B"] == 256


class TestVerify:
    def test_soundness_random_profiles(self):
        rng = np.random.default_rng(50411)
        for _ in range(60):
            p = random_profile(rng, max_n=4, max_r=10)
            e = lower_bound_set(p)
            rep = verify_lower_bound(p, e, trials=40, h_density=8, master_seed=7)
            assert rep.passed
            assert rep.min_observed >= e.bound

    def test_adversarial_root_is_excised(self):
        # a_1 = -32 is admissible for r=(5,), C=2 and kills P at h = 2^-5
        p = ExponentProfile(r=(5,), C=2)
        e = lower_bound_set(p)
        h = 2.0**-5
        assert 1.0 + (-32.0) * h == 0.0
        assert not contains(e, h)
        # on E the same polynomial stays far from zero
        assert abs(1.0 + (-32.0) * 2.0**-10) >= e.bound
        rep = verify_lower_bound(p, e, trials=100, h_density=16, master_seed=3)
        assert rep.passed

    def test_determinism_and_replay(self):
        p = ExponentProfile(r=(0, 6), C=2)
        e = lower_bound_set(p)
        a = verify_lower_bound(p, e, trials=50, h_density=10, master_seed=11)
        b = verify_lower_bound(p, e, trials=50, h_density=10, master_seed=11)
        assert worst(a) == worst(b)
        # a single trial replays in isolation from (seed, index)
        assert replay_trial(p, e, 10, 11, a.worst_trial) == (a.min_observed, a.worst_h)

    # float == float is bitwise here: no NaN reaches a report
    @pytest.mark.parametrize("C", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("h_density", [0, 1, 12])
    def test_matches_per_trial_replay(self, C, h_density):
        for i, r in enumerate(criterion6_profiles(50)):
            p = ExponentProfile(r=r, C=C)
            e = lower_bound_set(p)
            rep = verify_lower_bound(p, e, trials=50, h_density=h_density, master_seed=i)
            assert worst(rep) == replay_verify(p, e, 50, h_density, i), r

    def test_sampled_worst_points_match_replay(self):
        # a lone trial whose P grows from 1 on the leading span has its
        # minimum at a sampled point, not at a power-of-two endpoint, so
        # the bits of the drawn points 2^uniform(lo, hi) are compared
        sampled = 0
        for i, r in enumerate(criterion6_profiles(200)):
            p = ExponentProfile(r=r, C=2.0)
            e = lower_bound_set(p)
            rep = verify_lower_bound(p, e, trials=1, master_seed=i)
            assert worst(rep) == replay_verify(p, e, 1, 12, i), r
            sampled += math.frexp(rep.worst_h)[0] != 0.5
        assert sampled >= 50

    def test_stacked_power_and_matmul_are_per_trial(self):
        # the worst points sit where P is near 1 or its terms are exact, so
        # the reports above barely see the bits of h^i and of the matmul;
        # the stacked forms must equal each trial's own bit for bit
        rng = np.random.default_rng(5)
        for N in range(1, 5):
            powers = np.arange(1, N + 1)
            hs = np.sort(rng.random((30, 41)), axis=1)
            coeffs = rng.choice([-1.0, 1.0], (30, N)) * 2.0 ** rng.uniform(0, 13, (30, N))
            table = hs[:, :, None] ** powers
            stacked = (table @ coeffs[:, :, None])[:, :, 0]
            for t in range(30):
                own = hs[t][:, None] ** powers[None, :]
                assert np.array_equal(table[t], own)
                assert np.array_equal(stacked[t], own @ coeffs[t])

    def test_sum_order_reaches_the_report(self):
        # a rare call whose min_observed changes when the dot products of
        # P sum in another order (einsum instead of matmul, say)
        p = ExponentProfile(r=(4, 0, 10, 1), C=3.0)
        e = lower_bound_set(p)
        rep = verify_lower_bound(p, e, trials=3, h_density=0, master_seed=756)
        assert worst(rep) == replay_verify(p, e, 3, 0, 756)

    def test_earliest_tie_wins_across_blocks(self, monkeypatch):
        # C = 1 and endpoints only: the trial minimum depends on the signs
        # alone, so many trials tie; three trials per block
        p = ExponentProfile(r=(0, 6), C=1)
        e = lower_bound_set(p)
        monkeypatch.setattr(dyadpol, "_BLOCK_ELEMENTS", 6)
        rep = verify_lower_bound(p, e, trials=40, h_density=0, master_seed=3)
        assert worst(rep) == replay_verify(p, e, 40, 0, 3)
        tied = [t for t in range(40) if replay_trial(p, e, 0, 3, t)[0] == rep.min_observed]
        assert len({t // 3 for t in tied}) > 1 and tied[0] >= 3
        assert rep.worst_trial == tied[0]

    def test_seed_changes_samples(self):
        p = ExponentProfile(r=(3, 7), C=2)
        e = lower_bound_set(p)
        a = verify_lower_bound(p, e, trials=20, h_density=6, master_seed=1)
        b = verify_lower_bound(p, e, trials=20, h_density=6, master_seed=2)
        assert a.min_observed != b.min_observed

    @pytest.mark.parametrize(
        "r, C",
        [((1100,), 2.0), ((5000,), 2.0), ((1023,), 2.0), ((1022, 1022), 2.0), ((0, 10**9), 1.0)],
    )
    def test_overflowing_coefficients_refused_before_sampling(self, monkeypatch, r, C):
        def sampled(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(dyadpol.np.random, "default_rng", sampled)
        p = ExponentProfile(r=r, C=C)
        with pytest.raises(ValueError, match=f"overflow a double: C={C}, max r={max(r)} "):
            verify_lower_bound(p, lower_bound_set(p), trials=3)

    @pytest.mark.parametrize("r", [(0, 6), (0, 1, 3, 7), (3, 0, 5)])
    def test_h_density_past_one_block_refused_before_sampling(self, monkeypatch, r):
        # one trial's h^i table, (len(ends) + h_density * len(spans)) * N
        # doubles, fits in one block up to the largest accepted h_density
        p = ExponentProfile(r=r, C=2.0)
        e = lower_bound_set(p)
        spans, ends = 1 + len(e.intervals), 1 + 2 * len(e.intervals)
        most = (dyadpol._BLOCK_ELEMENTS // p.N - ends) // spans
        assert (ends + most * spans) * p.N <= dyadpol._BLOCK_ELEMENTS < (ends + (most + 1) * spans) * p.N
        rep = verify_lower_bound(p, e, trials=1, h_density=most)
        assert rep.h_density == most and rep.passed

        def built(*args, **kwargs):
            raise AssertionError("built")

        monkeypatch.setattr(dyadpol.np, "repeat", built)
        for h_density in (most + 1, 10**8):
            message = f"h_density {h_density} needs more than 65536 doubles per trial for this profile; "
            with pytest.raises(ValueError, match=re.escape(message + f"the largest accepted is {most}")):
                verify_lower_bound(p, e, trials=1, h_density=h_density)

    # 1 + C * sum 2^r_i just below 2^1024: 1 + 1.5 * 2^1023, and 1 + 2^1023
    @pytest.mark.parametrize("r, C", [((1023,), 1.5), ((1021, 1021), 2.0)])
    def test_largest_double_coefficients_are_checked(self, r, C):
        p = ExponentProfile(r=r, C=C)
        rep = verify_lower_bound(p, lower_bound_set(p), trials=3)
        assert math.isfinite(rep.min_observed) and rep.worst_trial >= 0
        assert rep.passed

    def test_report_dict(self):
        p = ExponentProfile(r=(0,), C=1)
        e = lower_bound_set(p)
        d = verify_lower_bound(p, e, trials=5, h_density=4, master_seed=0).to_dict()
        assert set(d) == {
            "min_observed",
            "bound",
            "pass",
            "trials",
            "h_density",
            "worst_trial",
            "worst_h",
        }
        assert d["pass"] is True
