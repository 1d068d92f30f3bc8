"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Run with -s to see the verdict lines on success; pytest prints them
anyway for any failing criterion.  Budgets are wall-clock seconds on a
single core.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from newtonosc.blocks import verify_blocks
from newtonosc.dyadpol import ExponentProfile, lower_bound_set, verify_lower_bound
from newtonosc.newton import build_polygon
from newtonosc.opnorm import DiscreteOperator, PhaseSpec, operator_norm
from newtonosc.polycore import parse_poly
from newtonosc.puiseux import expand_branches
from newtonosc.scaling import CONV_TOL, SweepConfig, norm_at, sweep, verify_theorem
from sheet_oracle import ORACLE_XS, branch_failures, sheet_failures


def report(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {label}: {verdict} ({detail})")


class TestCriterion1:
    # f -> int e^(i lam x y) f(y) dy is sqrt(2 pi / lam) times a unitary
    # (Plancherel), and the cutoff multiplies on both sides by functions
    # between 0 and 1, so lam^(1/2) * ||T_lam|| <= L = sqrt(2 pi) at every
    # lam, with equality approached as lam * rho^2 -> infinity.  Across
    # this window the deficit halves every octave.
    LIMIT = math.sqrt(2 * math.pi)

    def test_hyperbolic_reference(self):
        start = time.monotonic()
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.85)
        cfg = SweepConfig(lambdas=tuple(2.0**k for k in range(4, 11)))
        rep = verify_theorem(p, cfg)
        comp = [s.value * s.lam**0.5 for s in rep.samples if s.valid]
        band = max(comp) / min(comp)
        ratios = [s.value * s.lam**0.5 / self.LIMIT for s in rep.samples]
        elapsed = time.monotonic() - start
        slope_ok = abs(rep.slope - (-0.5)) <= 0.05
        band_ok = band <= 3.0
        bound_ok = max(ratios) <= 1.0 + CONV_TOL
        limit_ok = abs(ratios[-1] - 1.0) <= 0.01
        ok = slope_ok and band_ok and bound_ok and limit_ok and elapsed < 120.0
        report(
            1,
            "hyperbolic reference x*y",
            ok,
            f"slope={rep.slope:.4f} vs -0.5+-0.05, band={band:.3f} vs 3, "
            f"lam^(1/2)*norm/L={min(ratios):.4f}..{max(ratios):.4f} "
            f"vs {1.0 + CONV_TOL:g}, top={ratios[-1]:.4f} vs 1+-0.01, {elapsed:.1f}s",
        )
        assert slope_ok, f"slope {rep.slope:.4f} outside -0.5 +- 0.05"
        assert band_ok, f"compensated band {band:.3f} exceeds 3"
        assert bound_ok, (
            f"lam^(1/2)*norm reaches {max(ratios):.4f} L, above the sharp "
            f"bound L = sqrt(2 pi)"
        )
        assert limit_ok, f"top sample at {ratios[-1]:.4f} L, not within 1% of L"
        assert elapsed < 120.0


class TestCriterion2:
    # S = x^2*y^2/4 has F = xy: the diagonal crosses the Newton polygon at
    # the vertex (1, 1), delta = 1/2, and the theorem gives
    # ||T_lam|| ~ lam^(-1/4) as lam -> infinity.  It says nothing about the
    # least-squares slope over a fixed finite window.
    #
    # The limit constant.  The kernel and the cutoff are even in y, so T
    # annihilates odd functions.  On even f the map
    # f -> f(sqrt(w)) * w^(-1/4) is unitary from L2(R) onto L2(0, inf), and
    # with u = x^2, w = y^2 the uncut operator gets the kernel
    # e^(i lam u w/4) * (u w)^(-1/4).  The unitary dilation by sqrt(lam)
    # turns it into exactly lam^(-1/4) times the operator with kernel
    # psi(U W), psi(t) = e^(i t/4) * t^(-1/4), on (0, inf)^2.  After the
    # unitary f(W) -> f(1/W)/W this is a Mellin convolution, whose norm is
    # the supremum of its multiplier on Re s = 1/2:
    #     |M psi(1/2 + i tau)| = 4^(1/4) * |Gamma(1/4 + i tau)| * e^(-pi tau/2),
    # so L = sqrt(2) * max_tau |Gamma(1/4 + i tau)| * e^(-pi tau/2) = 5.5385,
    # reached at tau = -0.1066.  The cutoff multiplies on both sides by
    # functions between 0 and 1, hence ||T_lam|| <= L * lam^(-1/4) at every
    # lam, and lam^(1/4) * ||T_lam|| -> L as lam * rho^4 -> infinity.
    #
    # Why the full-window fit is informational.  S is homogeneous of degree
    # 4, so the norm depends only on lam * rho^4: at radius rho/2 and
    # frequency 16 lam it is half the norm at rho and lam.  With rho <= 1
    # and grids capped at GRID_CAP, lam = 2^4..2^11 at rho = 0.9 is the
    # reachable window, lam * rho^4 = 10.5..1344.  At its low end
    # lam * max|S| is 2.6 rad and the kernel barely oscillates; across it
    # lam^(1/4) * ||T_lam|| climbs from 0.32 L to 0.71 L and the octave
    # slopes run from -0.004 to -0.174, still moving towards -1/4.  The OLS
    # slope over the whole window (-0.084) measures that approach, not the
    # rate.  So the rate is checked on the top octave, where the window is
    # nearest the asymptotic regime, and the constant against the sharp
    # bound L at every sample.
    LIMIT = 5.538526181198040

    def test_vertex_crossing_rate(self):
        start = time.monotonic()
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.9)
        cfg = SweepConfig(lambdas=tuple(2.0**k for k in range(4, 12)))
        rep = verify_theorem(p, cfg)
        samples = rep.samples
        pred_ok = rep.predicted == Fraction(-1, 4)
        all_valid = all(s.valid for s in samples)

        lo, hi = samples[-2], samples[-1]
        top_slope = np.log(hi.value / lo.value) / np.log(hi.lam / lo.lam)
        rate_ok = abs(top_slope - float(rep.predicted)) <= cfg.tol_slope

        ratios = [s.value * s.lam**0.25 / self.LIMIT for s in samples]
        bound_ok = max(ratios) <= 1.0 + CONV_TOL

        half = PhaseSpec(S=p.S, rho=p.rho / 2)
        dilation_err = max(
            abs(norm_at(half, 16 * s.lam, seed=cfg.seed).value - s.value / 2)
            / (s.value / 2)
            for s in samples[:4]
        )
        dilation_ok = dilation_err <= 1e-9

        elapsed = time.monotonic() - start
        ok = (
            pred_ok and all_valid and rate_ok and bound_ok and dilation_ok
            and elapsed < 300.0
        )
        report(
            2,
            "vertex crossing x^2*y^2/4",
            ok,
            f"top-octave slope={top_slope:.4f} vs -0.25+-{cfg.tol_slope:g}, "
            f"lam^(1/4)*norm/L={min(ratios):.3f}..{max(ratios):.3f} "
            f"vs {1.0 + CONV_TOL:g}, dilation err={dilation_err:.1e} vs 1e-9, "
            f"informational slope={rep.slope:.4f}, {elapsed:.1f}s",
        )
        assert pred_ok, f"predicted exponent {rep.predicted}, not -1/4"
        assert all_valid, "a sample failed its grid check"
        assert rate_ok, (
            f"top-octave slope {top_slope:.4f} outside "
            f"-0.25 +- {cfg.tol_slope:g}"
        )
        assert bound_ok, (
            f"lam^(1/4)*norm reaches {max(ratios):.3f} L, above the sharp "
            f"bound L = {self.LIMIT:.4f}"
        )
        assert dilation_ok, f"dilation identity off by {dilation_err:.1e}"
        assert elapsed < 300.0

    def test_limit_constant(self):
        mpmath = pytest.importorskip("mpmath")

        def multiplier(tau):
            return (
                mpmath.sqrt(2)
                * abs(mpmath.gamma(0.25 + 1j * tau))
                * mpmath.exp(-mpmath.pi * tau / 2)
            )

        # d/dtau log|Gamma(1/4 + i tau)| = -Im digamma(1/4 + i tau)
        tau = mpmath.findroot(
            lambda t: -mpmath.im(mpmath.digamma(0.25 + 1j * t)) - mpmath.pi / 2,
            -0.1,
        )
        peak = float(multiplier(tau))
        # the multiplier decays like 3.545 |tau|^(-1/4) as tau -> -inf and
        # like e^(-pi tau) as tau -> +inf, so [-20, 20] holds the maximum
        scan = max(float(multiplier(t / 20)) for t in range(-400, 401))
        assert scan <= peak * (1 + 1e-12)
        assert abs(peak - self.LIMIT) <= 1e-6 * self.LIMIT


class TestCriterion3:
    # T_lam is a convolution cut off on both sides.  Its multiplier is
    # int e^(-i lam t^4/12 - i xi t) dt = lam^(-1/4) * m(xi * lam^(-1/4)),
    # and sup |m| = |m(0)| = 2 Gamma(5/4) 12^(1/4) (test_limit_constant),
    # so lam^(1/4) * ||T_lam|| <= L at every lam.  The phase is homogeneous
    # of degree 4, so as in criterion 2 the norm at (rho/2, 16 lam) is half
    # the norm at (rho, lam).
    LIMIT = 2 * math.gamma(1.25) * 12**0.25

    def test_completely_degenerate_log_band(self):
        start = time.monotonic()
        p = PhaseSpec(S=parse_poly("-(y-x)^4/12"), rho=0.5)
        rep = verify_theorem(p, SweepConfig())
        valid = [s for s in rep.samples if s.valid]
        ratios = [
            s.value * s.lam**0.25 / np.log2(s.lam) for s in valid if s.lam > 2
        ]
        band = max(ratios) / min(ratios)
        limit_ratios = [s.value * s.lam**0.25 / self.LIMIT for s in rep.samples]
        bound_ok = max(limit_ratios) <= 1.0 + CONV_TOL
        half = PhaseSpec(S=p.S, rho=p.rho / 2)
        dilation_err = max(
            abs(norm_at(half, 16 * s.lam).value - s.value / 2) / (s.value / 2)
            for s in rep.samples[:4]
        )
        dilation_ok = dilation_err <= 1e-9
        elapsed = time.monotonic() - start
        band_ok = band < 10.0
        pred_ok = rep.predicted == Fraction(-1, 4)
        ok = band_ok and pred_ok and bound_ok and dilation_ok and elapsed < 300.0
        report(
            3,
            "completely degenerate -(y-x)^4/12",
            ok,
            f"log-compensated band={band:.3f} vs 10, "
            f"lam^(1/4)*norm/L={min(limit_ratios):.3f}..{max(limit_ratios):.3f} "
            f"vs {1.0 + CONV_TOL:g}, dilation err={dilation_err:.1e} vs 1e-9, "
            f"informational slope={rep.slope:.4f} (target -0.25), {elapsed:.1f}s",
        )
        assert pred_ok
        assert band_ok, f"norm*lam^(1/4)/log(lam) spread {band:.3f} not bounded"
        assert bound_ok, (
            f"lam^(1/4)*norm reaches {max(limit_ratios):.3f} L, above the sharp "
            f"bound L = {self.LIMIT:.4f}"
        )
        assert dilation_ok, f"dilation identity off by {dilation_err:.1e}"
        assert elapsed < 300.0

    def test_limit_constant(self):
        mpmath = pytest.importorskip("mpmath")
        # on t = e^(-i pi/8) s the factor e^(-i t^4/12) is e^(-s^4/12), and
        # the two half-lines pair up into a cosine: m is even in xi
        rot = mpmath.exp(-1j * mpmath.pi / 8)

        def multiplier(xi):
            def f(s):
                return mpmath.exp(-s**4 / 12) * mpmath.cos(xi * rot * s)

            return float(abs(2 * rot * mpmath.quad(f, [0, 3, 6, 9])))

        peak = multiplier(0)
        # by stationary phase |m| falls off like sqrt(2 pi) (3 xi)^(-1/3),
        # already 0.23 L at xi = 12
        xis = [k / 20 for k in range(1, 5)] + [k / 2 for k in range(1, 25)]
        scan = max(multiplier(xi) for xi in xis)
        assert abs(peak - self.LIMIT) <= 1e-12 * self.LIMIT
        assert scan < peak


class TestCriterion4:
    def test_polygon_oracle_500_supports(self):
        rng = np.random.default_rng(2024)
        # directions (i, j) with i, j <= 13 hit the interior of every
        # normal cone when exponents stay in [0, 6]: adjacent edge slopes
        # are fractions with numerator and denominator <= 6, and their
        # mediant has height <= 12
        directions = [(i, j) for i in range(1, 14) for j in range(1, 14)]
        agree = 0
        for _ in range(500):
            k = int(rng.integers(1, 8))
            pts = {
                (int(a), int(b))
                for a, b in rng.integers(0, 7, size=(k, 2))
            }
            F = parse_poly(" + ".join(f"x^{a}*y^{b}" for a, b in sorted(pts)))
            got = build_polygon(F).vertices
            found = set()
            for w1, w2 in directions:
                vals = {p: w1 * p[0] + w2 * p[1] for p in pts}
                best = min(vals.values())
                argmin = [p for p, v in vals.items() if v == best]
                if len(argmin) == 1:
                    found.add(argmin[0])
            oracle = tuple(sorted(found))
            agree += oracle == got
        ok = agree == 500
        report(4, "polygon vs half-plane oracle", ok, f"{agree}/500 agree")
        assert agree == 500


class TestCriterion5:
    CORPUS = [
        "y^2 - x^3",
        "(y-x)^2 - x^5",
        "y^2 - x^2*(1 + x)",
        "x*(y-x)^2",
        "x^2 + y^2",
    ]

    def test_corpus_residuals_and_control(self):
        # each printed sheet must lie within its truncation error of a root
        # of F(x0, .) at x0 = 10^-2, 10^-3, 10^-4; skipped without mpmath
        checked = 0
        failures = []
        for text in self.CORPUS:
            checked += len(expand_branches(parse_poly(text)).branches)
            failures += [(text, *f[:4]) for f in sheet_failures(text)]
        # control: a sheet of the wrong curve must miss at every x0
        wrong = expand_branches(parse_poly("y^2 - x^3")).branches[0]
        control = branch_failures("(y-x)^2 - x^5", [wrong])
        flagged = control[0][3] if control else []
        control_ok = flagged == [float(x0) for x0 in ORACLE_XS]
        ok = not failures and control_ok and checked >= 5
        report(
            5,
            "branch sheets vs roots of F",
            ok,
            f"{checked} branches, {len(failures)} off their roots, "
            f"control flagged at {len(flagged)}/{len(ORACLE_XS)} x0",
        )
        assert not failures, failures
        assert control_ok, f"wrong-branch control flagged only at {flagged}"


class TestCriterion6:
    def test_lower_bound_soundness(self):
        start = time.monotonic()
        rng = np.random.default_rng(6)
        violations = 0
        for i in range(200):
            N = int(rng.integers(1, 5))
            r = tuple(int(v) for v in rng.integers(0, 13, size=N))
            profile = ExponentProfile(r=r, C=2.0)
            rep = verify_lower_bound(
                profile, lower_bound_set(profile), trials=1000, master_seed=i
            )
            violations += not rep.passed
        elapsed = time.monotonic() - start
        ok = violations == 0 and elapsed < 180.0
        report(
            6,
            "dyadic lower bound, 200 profiles x 1000 polys",
            ok,
            f"{violations} violations, {elapsed:.1f}s",
        )
        assert violations == 0
        assert elapsed < 180.0


class TestCriterion7:
    def test_gap_blocks_within_factor_10(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        worst_by_D = {}
        bad = 0
        for D in (3.0, 4.0, 5.0):
            ests, summary = verify_blocks(p, 2.0**8, D=D, j_max=6)
            gaps = [e for e in ests if e.region.kind == "Gap"]
            bad += sum(e.measured > 10.0 * e.bound for e in gaps)
            worst_by_D[D] = max(e.ratio for e in gaps)
        w = list(worst_by_D.values())
        stable = max(w) / min(w) <= 1.2
        ok = bad == 0 and stable
        report(
            7,
            "gap block estimates x^2*y^2/4",
            ok,
            f"0 exceedances expected, got {bad}; worst ratio "
            + ", ".join(f"D={d:g}: {v:.3f}" for d, v in worst_by_D.items()),
        )
        assert bad == 0
        assert stable, f"worst ratio varies more than 20%: {worst_by_D}"


class TestCriterion8:
    def test_numerical_hygiene(self):
        rng = np.random.default_rng(8)
        worst_rel = 0.0
        worst_adj = 0.0
        for _ in range(50):
            n = int(rng.integers(16, 129))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            op = DiscreteOperator(matrix=m)
            val, _, _ = operator_norm(op, tol=1e-13, max_iter=5000)
            ref = float(np.linalg.norm(m, 2))
            worst_rel = max(worst_rel, abs(val - ref) / ref)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.vdot(w, op.apply(v))
            rhs = np.vdot(op.apply_adjoint(w), v)
            worst_adj = max(worst_adj, abs(lhs - rhs) / abs(lhs))
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        cfg = SweepConfig(lambdas=tuple(2.0**k for k in range(4, 9)))
        samples = sweep(p, cfg)
        conv_ok = all(s.conv_err < 0.02 for s in samples if s.valid)
        all_valid = all(s.valid for s in samples)
        svd_ok = worst_rel < 1e-8
        adj_ok = worst_adj < 1e-12
        ok = svd_ok and adj_ok and conv_ok and all_valid
        report(
            8,
            "numerical hygiene",
            ok,
            f"Lanczos-vs-SVD worst={worst_rel:.2e} vs 1e-8, "
            f"adjoint worst={worst_adj:.2e} vs 1e-12, "
            f"conv_err<0.02 on {sum(s.valid for s in samples)}/{len(samples)} samples",
        )
        assert svd_ok, f"Lanczos norm off dense SVD by {worst_rel:.2e}"
        assert adj_ok, f"adjoint identity violated at {worst_adj:.2e}"
        assert all_valid and conv_ok
