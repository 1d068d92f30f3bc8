"""Tests for the dyadic coefficient lower-bound sets."""

import itertools
import math
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
    sample_coefficients,
    sample_points,
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
        assert (a.min_observed, a.worst_trial, a.worst_h) == (
            b.min_observed,
            b.worst_trial,
            b.worst_h,
        )
        # a single trial replays in isolation from (seed, index)
        rng = np.random.default_rng([11, a.worst_trial])
        coeffs = sample_coefficients(p, rng)
        hs = sample_points(e, 10, rng)
        powers = np.arange(1, p.N + 1)
        vals = 1.0 + (hs[:, None] ** powers[None, :]) @ coeffs
        assert math.isclose(float(np.min(np.abs(vals))), a.min_observed, rel_tol=1e-12)

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

        monkeypatch.setattr(dyadpol, "sample_coefficients", sampled)
        p = ExponentProfile(r=r, C=C)
        with pytest.raises(ValueError, match=f"overflow a double: C={C}, max r={max(r)} "):
            verify_lower_bound(p, lower_bound_set(p), trials=3)

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
