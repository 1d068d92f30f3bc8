"""Sweep, power-law fitting, and decay-verdict behavior."""

import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from newtonosc.errors import (
    DomainError,
    EmptyPolygonError,
    InsufficientSamplesError,
    ResolutionError,
)
from newtonosc.newton import analyze_decay
from newtonosc import scaling
from newtonosc.blocks import block_rect, first_block_scale
from newtonosc.opnorm import (
    GRID_MIN,
    SAFETY,
    GridSpec,
    PhaseSpec,
    auto_grid,
    bump,
    discretize,
    gradient_bound,
    operator_norm,
    parity_sectors,
)
from newtonosc.polycore import (
    BivarPoly,
    eval_grid,
    integrate_xy,
    mixed_derivative,
    parse_poly,
)
from newtonosc.scaling import (
    NormSample,
    ScalingReport,
    SweepConfig,
    fit_decay,
    log_exponent_fit,
    norm_at,
    predicted_exponent,
    sweep,
    verify_theorem,
)


def compensated(samples: Sequence[NormSample], exponent: float) -> np.ndarray:
    """norm * lambda^exponent over the valid samples, sweep order."""
    pts = [s for s in samples if s.valid]
    lam = np.array([s.lam for s in pts], dtype=float)
    vals = np.array([s.value for s in pts], dtype=float)
    return vals * lam ** float(exponent)


def mk_samples(lams, values, conv=0.0):
    return [
        NormSample(lam=l, n=256, value=v, conv_err=conv, iterations=10)
        for l, v in zip(lams, values)
    ]


def seeded_phases():
    """Up to 40 seeded random phases, some with cancelling terms, and 4 uniforms each.

    Yields (p, uniforms); the uniforms in [0.5, 1) are drawn after p, one
    per grid size of test_half_grid_always_resolves.
    """
    rng = np.random.default_rng(7)
    for _ in range(40):
        pts = {(int(a), int(b)) for a, b in rng.integers(0, 4, size=(rng.integers(1, 5), 2))}
        F = BivarPoly({pt: int(c) for pt, c in zip(sorted(pts), rng.integers(-4, 5, size=len(pts))) if c})
        if not F:
            continue
        p = PhaseSpec(S=integrate_xy(F), rho=float(rng.uniform(0.1, 1.0)))
        yield p, [rng.uniform(0.5, 1.0) for _ in range(4)]


def gradient_max(S: BivarPoly, domain, points: int = 513) -> float:
    """max |S_x| + |S_y| over a closed grid that includes the edges and corners."""
    x0, x1, y0, y1 = domain
    xs, ys = np.linspace(x0, x1, points), np.linspace(y0, y1, points)
    return float(np.max(np.abs(eval_grid(S.diff("x"), xs, ys)) + np.abs(eval_grid(S.diff("y"), xs, ys))))


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.lambdas == tuple(2.0**m for m in range(4, 12))
        assert cfg.tol_slope == 0.1
        assert cfg.fit_window is None

    def test_too_few_lambdas(self):
        with pytest.raises(ValueError):
            SweepConfig(lambdas=(16.0, 32.0, 64.0))

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            SweepConfig(lambdas=(16.0, 32.0, 32.0, 64.0))

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            SweepConfig(lambdas=(-1.0, 2.0, 4.0, 8.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_lambda(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(lambdas=(16.0, 32.0, 64.0, bad))

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SweepConfig(tol_slope=0.0)

    def test_infinite_tolerance(self):
        # any slope would pass
        with pytest.raises(ValueError, match="finite"):
            SweepConfig(tol_slope=math.inf)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            SweepConfig(fit_window=(64.0, 16.0))

    def test_window_below_four_lambdas(self):
        # the default grid has 1024 and 2048 inside [1000, 3000]
        with pytest.raises(InsufficientSamplesError, match="have 2"):
            SweepConfig(fit_window=(1000.0, 3000.0))
        assert SweepConfig(fit_window=(256.0, 2048.0)).fit_window == (256.0, 2048.0)


class TestNormAt:
    def test_frozen_value(self):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        s = norm_at(p, 64.0, seed=0)
        assert s.n == 128
        assert s.value == pytest.approx(0.29245937256238, rel=1e-8)
        op = discretize(p, 64.0, GridSpec.square(s.n, p.rho))
        dense = float(np.linalg.norm(op.matrix, 2))
        assert s.value == pytest.approx(dense, rel=1e-10)
        assert s.conv_err < 1e-5
        assert s.valid

    def test_grid_override_agrees(self, monkeypatch):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        a = norm_at(p, 64.0, seed=0)
        # auto_grid picks 128; a forced grid must keep n/2 resolved
        force_grid(monkeypatch, 256)
        b = norm_at(p, 64.0, seed=0)
        assert (a.n, b.n) == (128, 256)
        assert b.value == pytest.approx(a.value, rel=1e-5)

    def test_deterministic(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        a = norm_at(p, 256.0, seed=3)
        b = norm_at(p, 256.0, seed=3)
        assert a.value == b.value and a.n == b.n

    def test_resolution_error_carries_lambda(self):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.85)
        with pytest.raises(ResolutionError, match="2048"):
            norm_at(p, 2.0**11)

    def test_negative_lambda_is_the_conjugate_kernel(self):
        # T at -lambda is the entrywise conjugate of T at lambda: same grid,
        # same norm, and the grid must be sized from |lambda|
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.85)
        a = norm_at(p, 256.0)
        b = norm_at(p, -256.0)
        assert a.n == b.n == 1024
        assert b.value == pytest.approx(a.value, rel=1e-10)
        assert b.valid

    def test_nan_lambda_is_refused(self):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        with pytest.raises(ResolutionError):
            norm_at(p, math.nan)

    def test_underflowed_norm_is_refused(self):
        # T is never zero: the dense SVD of the n = 16 sector is 9.8e-201,
        # but the squared Lanczos vector norms underflow to 0
        p = PhaseSpec(S=parse_poly("x*y"), rho=1e-200)
        with pytest.raises(DomainError, match="underflow"):
            norm_at(p, 64.0)

    def test_validity_reads_conv_tol(self, monkeypatch):
        s = NormSample(lam=16.0, n=64, value=0.3, conv_err=1e-10, iterations=20)
        assert s.valid
        monkeypatch.setattr(scaling, "CONV_TOL", 1e-20)
        assert not s.valid


def dense_norm(p: PhaseSpec, lam: float, n: int) -> float:
    return float(np.linalg.norm(discretize(p, lam, GridSpec.square(n, p.rho)).matrix, 2))


def force_grid(monkeypatch, n: int) -> None:
    """Make norm_at start from the n-point grid instead of auto_grid's."""
    monkeypatch.setattr(scaling, "auto_grid", lambda p, lam: GridSpec.square(n, p.rho))


def built_grids(monkeypatch) -> list[tuple]:
    """Record the (n, sector) of every kernel norm_at builds."""
    grids = []
    real = scaling.discretize

    def recording(p, lam, g, *args, **kwargs):
        grids.append((g.n, kwargs.get("sector")))
        return real(p, lam, g, *args, **kwargs)

    monkeypatch.setattr(scaling, "discretize", recording)
    return grids


def recorded_solves(monkeypatch) -> list[dict]:
    """Record n, sector, seed, start, Lanczos steps and vector of every solve norm_at makes."""
    solves = []
    real_discretize, real_operator_norm = scaling.discretize, scaling.operator_norm

    def building(p, lam, g, *args, **kwargs):
        solves.append({"n": g.n, "sector": kwargs.get("sector")})
        return real_discretize(p, lam, g, *args, **kwargs)

    def solving(op, *args, **kwargs):
        out = real_operator_norm(op, *args, **kwargs)
        solves[-1].update(seed=kwargs.get("seed"), v0=kwargs.get("v0"), steps=out[1], vec=out[2])
        return out

    monkeypatch.setattr(scaling, "discretize", building)
    monkeypatch.setattr(scaling, "operator_norm", solving)
    return solves


def dense_sector_norm(p: PhaseSpec, lam: float, n: int) -> float:
    """The largest dense-SVD norm over the parity sectors of the n-point grid."""
    g = GridSpec.square(n, p.rho)
    return max(
        float(np.linalg.norm(discretize(p, lam, g, sector=k).matrix, 2))
        for k in parity_sectors(p.S)
    )


class TestGridCheck:
    # conv_err compares the base grid n with the check grid n/2, or
    # with 2n where n/2 is below GRID_MIN

    @pytest.mark.parametrize(
        "text, rho, lam, seed", [("x*y", 0.5, 64.0, 0), ("x^2*y^2/4", 0.9, 32.0, 3)]
    )
    def test_value_is_the_base_solve_and_conv_err_the_half_grid_gap(
        self, monkeypatch, text, rho, lam, seed
    ):
        # the check grid is solved cold from the caller's seed, and each
        # sector of the reported grid warm-starts from it
        p = PhaseSpec(S=parse_poly(text), rho=rho)
        solves = recorded_solves(monkeypatch)
        s = norm_at(p, lam, seed=seed)
        check = [c for c in solves if c["n"] == s.n // 2]
        assert check and all(c["v0"] is None and c["seed"] == seed for c in check)
        assert all(c["v0"] is not None for c in solves if c["n"] == s.n)
        assert s.value == pytest.approx(dense_sector_norm(p, lam, s.n), rel=1e-10)
        v, v_half = dense_norm(p, lam, s.n), dense_norm(p, lam, s.n // 2)
        assert s.conv_err == pytest.approx(abs(v - v_half) / v, abs=1e-9)

    def test_half_grid_is_the_only_check(self, monkeypatch):
        grids = built_grids(monkeypatch)
        s = norm_at(PhaseSpec(S=parse_poly("x*y"), rho=0.5), 64.0)
        assert grids == [(64, 1), (64, -1), (128, 1), (128, -1)] and s.n == 128

    def test_fallback_to_double_at_grid_min(self, monkeypatch):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        grids = built_grids(monkeypatch)
        s = norm_at(p, 8.0)
        assert s.n == GRID_MIN
        assert grids == [(GRID_MIN, 1), (GRID_MIN, -1), (2 * GRID_MIN, 1), (2 * GRID_MIN, -1)]
        v, v_double = dense_norm(p, 8.0, GRID_MIN), dense_norm(p, 8.0, 2 * GRID_MIN)
        assert s.conv_err == pytest.approx(abs(v - v_double) / v, abs=1e-9)

    def test_half_grid_always_resolves(self):
        # auto_grid keeps |lam| G h <= pi/4 at n, so the check grid n/2
        # passes the pi/2 guard; the lambdas that size n exactly to a
        # power of two are the tightest case
        checked = set()
        for p, uniforms in seeded_phases():
            G = gradient_bound(p.S, (-p.rho, p.rho, -p.rho, p.rho))
            unit = 2 * p.rho * G * (2.0 / math.pi) * SAFETY
            for n, u in zip((32, 64, 128, 256), uniforms):
                for lam in (n / unit, -n / unit, n * u / unit):
                    g = auto_grid(p, lam)
                    if GRID_MIN < g.n <= 256:
                        discretize(p, lam, GridSpec.square(g.n // 2, p.rho))
                        checked.add(g.n)
        assert checked == {32, 64, 128, 256}

    @pytest.mark.parametrize(
        "text, rho, exact",
        [
            ("x*y", 0.85, lambda r: 2 * r),
            ("x^2*y^2/4", 0.9, lambda r: r**3),
            ("-(y-x)^4/12", 0.5, lambda r: Fraction(14, 3) * r**3),
            ("x^3*y/3 + x*y^2", 0.5, lambda r: 3 * r**2 + Fraction(4, 3) * r**3),
        ],
    )
    def test_gradient_bound_is_the_reference_maximum(self, text, rho, exact):
        # 1.7, 0.729, 7/12 and 11/12: each reference phase peaks at a
        # corner, where the bound is exact; G is the float just above it
        p = PhaseSpec(S=parse_poly(text), rho=rho)
        square = (-rho, rho, -rho, rho)
        G, peak = gradient_bound(p.S, square), exact(Fraction(rho))
        assert Fraction(G) >= peak > Fraction(math.nextafter(G, 0))
        assert gradient_max(p.S, square) == pytest.approx(G, rel=1e-12)

    def test_gradient_bound_is_a_bound(self):
        # a closed grid reaches the edges and corners, where these phases
        # peak; the float evaluation of its max may round a few ulps
        # above the exact one
        cases = [(p.S, (-p.rho, p.rho, -p.rho, p.rho)) for p, _ in seeded_phases()]
        for text, rho in [("x*y", 0.85), ("x^2*y^2/4", 0.9), ("-(y-x)^4/12", 0.5), ("x^3*y/3 + x*y^2", 0.5)]:
            S = PhaseSpec(S=parse_poly(text), rho=rho).S
            cases += [(S, (-rho, rho, -rho, rho)), (S, (0.0, 0.5, -0.5, 0.5))]
        S = PhaseSpec(S=parse_poly("x^2*y^2/4")).S
        scales = range(first_block_scale(0.5), 9)
        cases += [(S, block_rect(j, k)) for j in scales for k in scales]
        for S, domain in cases:
            assert gradient_bound(S, domain) >= gradient_max(S, domain) * (1 - 1e-12), (S, domain)

    def test_failed_check_doubles_the_base(self, monkeypatch):
        # n = 16 checks against 32 and fails; 32 is compared with the
        # 16 already solved and fails; 64 against 32 passes
        monkeypatch.setattr(scaling, "CONV_TOL", 1e-6)
        p = PhaseSpec(S=parse_poly("-(y-x)^4/12"), rho=0.5)
        grids = built_grids(monkeypatch)
        s = norm_at(p, 16.0)
        assert grids == [(16, 1), (16, -1), (32, 1), (32, -1), (64, 1), (64, -1)]
        assert s.n == 64
        assert s.conv_err < 1e-6
        v, v_half = dense_norm(p, 16.0, 64), dense_norm(p, 16.0, 32)
        assert s.conv_err == pytest.approx(abs(v - v_half) / v, abs=1e-9)

    @pytest.mark.parametrize(
        "text, rho, lam",
        [
            ("x^2*y^2/4", 0.9, 16.0),
            ("x^2*y^2/4", 0.9, 32.0),
            ("-(y-x)^4/12", 0.5, 32.0),
            ("-(y-x)^4/12", 0.5, 64.0),
            # n = GRID_MIN, checked against 2n
            ("-(y-x)^4/12", 0.5, 16.0),
            ("x*y", 0.5, 8.0),
        ],
    )
    def test_conv_err_bounds_the_true_error(self, text, rho, lam):
        p = PhaseSpec(S=parse_poly(text), rho=rho)
        s = norm_at(p, lam)
        reference = dense_norm(p, lam, 512)
        true_err = abs(s.value - reference) / reference
        assert true_err > 1e-10
        assert s.conv_err >= true_err


class TestWarmStartedValue:
    # the reported grid is solved from the check grid's singular vectors,
    # so its value must still be the top singular value of its own grid

    def test_seeded_phases_match_dense(self):
        checked = 0
        for p, _ in seeded_phases():
            G = gradient_bound(p.S, (-p.rho, p.rho, -p.rho, p.rho))
            unit = 2 * p.rho * G * (2.0 / math.pi) * SAFETY
            for n in (64, 512):
                s = norm_at(p, n / unit)
                if s.n <= 512:
                    dense = dense_sector_norm(p, s.lam, s.n)
                    assert abs(s.value - dense) / dense <= 1e-10, (p, s)
                    checked += 1
        assert checked >= 60

    @pytest.mark.parametrize(
        "text, rho",
        [("x*y", 0.85), ("x^2*y^2/4", 0.9), ("-(y-x)^4/12", 0.5), ("x^3*y/3 + x*y^2", 0.5)],
    )
    def test_reference_phases_match_dense(self, text, rho):
        p = PhaseSpec(S=parse_poly(text), rho=rho)
        for lam in (2.0**k for k in range(4, 12)):
            if auto_grid(p, lam).n > 2048:
                break
            s = norm_at(p, lam)
            if s.n <= 2048:
                dense = dense_sector_norm(p, lam, s.n)
                assert abs(s.value - dense) / dense <= 1e-10, s

    def test_reported_grid_takes_fewer_steps_than_cold(self, monkeypatch):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.85)
        solves = recorded_solves(monkeypatch)
        s = norm_at(p, 512.0, seed=0)
        warm = sum(c["steps"] for c in solves if c["n"] == s.n)
        g = GridSpec.square(s.n, p.rho)
        cold = sum(
            operator_norm(discretize(p, 512.0, g, sector=k), seed=0)[1]
            for k in parity_sectors(p.S)
        )
        assert warm < cold


class TestRepeatedStart:
    # each warm solve doubles the grid and starts every sector from that
    # sector's vector on the grid before it, each entry repeated twice

    @pytest.mark.parametrize(
        "text, rho, lam, forced_n",
        [
            ("x*y", 0.85, 64.0, None),  # two real sectors
            ("x^2*y^2/4", 0.9, 64.0, None),  # one complex sector
            ("x^3*y/3 + x*y^2", 0.5, 64.0, None),  # no parity: the full kernel
            ("-(y-x)^4/12", 0.5, 16.0, None),  # n = GRID_MIN, checked against 2n
            # n = 32 checked against 16 fails a tightened CONV_TOL and doubles
            ("-(y-x)^4/12", 0.5, 16.0, 32),
        ],
    )
    def test_warm_start_is_the_coarse_vector_repeated(self, monkeypatch, text, rho, lam, forced_n):
        p = PhaseSpec(S=parse_poly(text), rho=rho)
        if forced_n is not None:
            force_grid(monkeypatch, forced_n)
            monkeypatch.setattr(scaling, "CONV_TOL", 1e-6)
        solves = recorded_solves(monkeypatch)
        s = norm_at(p, lam)
        if forced_n is not None:
            assert s.n == 2 * forced_n
        first = solves[0]["n"]
        assert any(c["n"] != first for c in solves)
        for i, c in enumerate(solves):
            if c["n"] == first:
                assert c["v0"] is None
                continue
            (coarse,) = [
                d for d in solves[:i] if d["n"] == c["n"] // 2 and d["sector"] == c["sector"]
            ]
            expected = np.repeat(coarse["vec"], 2)
            assert c["v0"].dtype == expected.dtype
            assert c["v0"].tobytes() == expected.tobytes()


class TestParityDispatch:
    # norm_at solves one kernel per parity sector of each grid

    @pytest.mark.parametrize(
        "text, rho, lam, sectors",
        [
            ("x^2*y^2/4", 0.9, 32.0, (1,)),
            ("x*y", 0.5, 64.0, (1, -1)),
            ("x^3*y/3 + x*y^2", 0.5, 64.0, (None,)),
        ],
    )
    def test_kernels_per_grid(self, monkeypatch, text, rho, lam, sectors):
        built = []
        real = scaling.discretize

        def recording(p, lam, g, **kwargs):
            op = real(p, lam, g, **kwargs)
            built.append((g.n, kwargs.get("sector"), op.shape))
            return op

        monkeypatch.setattr(scaling, "discretize", recording)
        s = norm_at(PhaseSpec(S=parse_poly(text), rho=rho), lam)
        expected = []
        for n in (s.n // 2, s.n):
            m = n if sectors == (None,) else n // 2
            expected += [(n, k, (m, m)) for k in sectors]
        assert built == expected


def swap_xy(S: BivarPoly) -> BivarPoly:
    return BivarPoly({(b, a): c for (a, b), c in S.terms.items()})


class TestInvariance:
    # The norm depends on S only through F = S''_xy, is unchanged by
    # S -> -S (the kernel is conjugated), and by swapping x and y (the
    # kernel is transposed on the symmetric square grid).

    MIXED = "x*y + x^2*y"
    PURE = " + 3*x^4 - 2*y^3 + x - 7"

    def test_canonical_phase(self):
        for text in (self.MIXED, self.MIXED + self.PURE, "x + y^2", "-(y - x)^4/12"):
            S = parse_poly(text)
            assert PhaseSpec(S).S == integrate_xy(mixed_derivative(S))

    def test_pure_terms_keep_grid_and_norm(self):
        lam, rho = 128.0, 0.5
        full = parse_poly(self.MIXED + self.PURE)
        p0 = PhaseSpec(S=parse_poly(self.MIXED), rho=rho)
        p = PhaseSpec(S=full, rho=rho)
        g = auto_grid(p, lam)
        assert g.n == auto_grid(p0, lam).n
        value, _, _ = operator_norm(discretize(p, lam, g))
        # the test's own kernel of the full phase, pure terms included
        h = 2 * rho / g.n
        xs = -rho + h * (np.arange(g.n) + 0.5)
        w = bump(xs / rho) * np.sqrt(h)
        kernel = np.exp(1j * lam * eval_grid(full, xs, xs)) * np.outer(w, w)
        dense = float(np.linalg.norm(kernel, 2))
        assert value == pytest.approx(dense, rel=1e-10)

    def test_pure_terms_do_not_inflate_the_grid(self):
        # |grad| of the full phase would ask for n = 5616 > GRID_CAP
        p = PhaseSpec(S=parse_poly("x*y + 8*x^4 + 8*y^4"), rho=0.5)
        s = norm_at(p, 512.0)
        assert s.n == 1024
        assert s.value == pytest.approx(0.10990609607770738, rel=1e-8)

    @pytest.mark.parametrize("lam", [64.0, 256.0])
    def test_sign_and_swap_complex128(self, lam):
        S = parse_poly(self.MIXED)
        base = norm_at(PhaseSpec(S=S, rho=0.5), lam)
        assert base.n <= 2048
        for other in (-S, swap_xy(S)):
            s = norm_at(PhaseSpec(S=other, rho=0.5), lam)
            assert s.n == base.n
            assert s.value == pytest.approx(base.value, rel=1e-10)

    def test_sign_and_swap_above_2048(self, monkeypatch):
        # n = 2304 puts the full kernel above 2048 per side at a third of
        # the cost of the auto-sized n = 4096
        S = parse_poly(self.MIXED)
        force_grid(monkeypatch, 2304)
        base = norm_at(PhaseSpec(S=S, rho=0.5), 1024.0)
        for other in (-S, swap_xy(S)):
            s = norm_at(PhaseSpec(S=other, rho=0.5), 1024.0)
            assert s.value == pytest.approx(base.value, rel=1e-10)

    def test_n4096_full_kernel_error_is_quadrature_only(self):
        # the largest full kernel under GRID_CAP: conv_err measures the
        # quadrature, not the rounding of the stored entries
        s = norm_at(PhaseSpec(S=parse_poly("x^3*y/3 + x*y^2"), rho=0.5), 2048.0)
        assert s.n == 4096
        assert s.conv_err <= 1e-10


class TestSweep:
    def test_one_sample_per_lambda(self):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        cfg = SweepConfig(lambdas=(16.0, 32.0, 64.0, 128.0))
        ss = sweep(p, cfg)
        assert [s.lam for s in ss] == [16.0, 32.0, 64.0, 128.0]
        assert all(s.valid for s in ss)

    def test_nondegenerate_compensated_band(self):
        # lambda^(1/2) * norm hugs a single constant across the sweep
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
        ss = sweep(p, SweepConfig(lambdas=tuple(2.0**m for m in range(4, 9))))
        comp = compensated(ss, 0.5)
        assert comp.max() / comp.min() < 4.0

    def test_monomial_norms_strictly_decreasing(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        ss = sweep(p, SweepConfig())
        vals = [s.value for s in ss]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_static_phase_is_flat_and_fit_refuses(self):
        p = PhaseSpec(S=parse_poly("0"), rho=0.5)
        ss = sweep(p, SweepConfig(lambdas=(16.0, 32.0, 64.0, 128.0)))
        vals = np.array([s.value for s in ss])
        assert vals.max() / vals.min() - 1.0 < 1e-6
        with pytest.raises(DomainError):
            fit_decay(ss)


class TestFitDecay:
    def test_exact_power_law(self):
        lams = [2.0**m for m in range(4, 10)]
        slope, stderr = fit_decay(mk_samples(lams, [l**-0.5 for l in lams]))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr < 1e-10

    def test_wobbly_quarter_law(self):
        lams = [2.0**m for m in range(4, 12)]
        vals = [3.0 * l**-0.25 * (1 + 0.01 * math.sin(math.log(l))) for l in lams]
        slope, _ = fit_decay(mk_samples(lams, vals))
        assert slope == pytest.approx(-0.25, abs=0.01)

    def test_recovers_planted_exponents(self):
        rng = np.random.default_rng(12)
        lams = [2.0**m for m in range(4, 12)]
        for _ in range(30):
            beta = float(rng.uniform(-1.0, 0.0))
            c = float(rng.uniform(0.5, 4.0))
            wob = rng.uniform(-0.003, 0.003, size=len(lams))
            vals = [c * l**beta * (1 + w) for l, w in zip(lams, wob)]
            slope, _ = fit_decay(mk_samples(lams, vals))
            assert abs(slope - beta) <= 0.01

    def test_invalid_samples_excluded(self):
        lams = [2.0**m for m in range(4, 10)]
        ss = mk_samples(lams, [l**-0.5 for l in lams])
        # corrupt two samples but mark them unconverged; fit ignores them
        ss[1] = NormSample(lam=ss[1].lam, n=256, value=7.0, conv_err=0.5, iterations=9)
        ss[3] = NormSample(lam=ss[3].lam, n=256, value=9.0, conv_err=0.5, iterations=9)
        slope, _ = fit_decay(ss)
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_valid(self):
        lams = [16.0, 32.0, 64.0, 128.0]
        ss = mk_samples(lams, [1.0, 0.9, 0.8, 0.7], conv=0.5)
        with pytest.raises(InsufficientSamplesError):
            fit_decay(ss)

    def test_fit_window_subsets(self):
        lams = [2.0**m for m in range(4, 12)]
        # exact -1/2 law inside the window, junk outside it
        vals = [l**-0.5 if l >= 2.0**8 else 5.0 for l in lams]
        slope, _ = fit_decay(mk_samples(lams, vals), fit_window=(2.0**8, 2.0**11))
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_window_starves_fit(self):
        lams = [2.0**m for m in range(4, 12)]
        ss = mk_samples(lams, [l**-0.5 for l in lams])
        with pytest.raises(InsufficientSamplesError):
            fit_decay(ss, fit_window=(2.0**9, 2.0**11))

    def test_flat_refused(self):
        with pytest.raises(DomainError):
            fit_decay(mk_samples([16.0, 32.0, 64.0, 128.0], [2.0, 2.0, 2.0, 2.0]))

    def test_nonpositive_refused(self):
        with pytest.raises(DomainError):
            fit_decay(mk_samples([16.0, 32.0, 64.0, 128.0], [1.0, 0.5, 0.0, 0.1]))

    def test_noisy_fit_reports_stderr(self):
        rng = np.random.default_rng(5)
        lams = [2.0**m for m in range(4, 12)]
        vals = [l**-0.5 * (1 + 0.05 * rng.standard_normal()) for l in lams]
        slope, stderr = fit_decay(mk_samples(lams, vals))
        assert stderr > 1e-4


class TestLogExponentFit:
    def test_recovers_planted_log_power(self):
        lams = [2.0**m for m in range(4, 12)]
        for target in (0.0, 0.5, 1.0):
            vals = [l**-0.25 * math.log2(l) ** target for l in lams]
            fitted = log_exponent_fit(mk_samples(lams, vals), N=2)
            assert fitted == pytest.approx(target, abs=1e-9)

    def test_needs_four_samples(self):
        with pytest.raises(InsufficientSamplesError):
            log_exponent_fit(mk_samples([16.0, 32.0, 64.0], [1, 1, 1]), N=2)


class TestPredictedExponent:
    def test_hyperbolic_reference(self):
        assert predicted_exponent(analyze_decay(parse_poly("1"))) == Fraction(-1, 2)

    def test_vertex_case(self):
        assert predicted_exponent(analyze_decay(parse_poly("x*y"))) == Fraction(-1, 4)

    def test_degenerate_square(self):
        d = analyze_decay(parse_poly("(y - x)^2"))
        assert predicted_exponent(d) == Fraction(-1, 4)
        assert d.degeneracy.N == 2

    def test_degenerate_cube(self):
        assert predicted_exponent(analyze_decay(parse_poly("(y - 2*x)^3"))) == Fraction(-1, 5)

    def test_edge_case(self):
        # delta = 2/5 crossing an edge; exponent -1/5
        assert predicted_exponent(
            analyze_decay(parse_poly("y^3 + x^2*y"))
        ) == Fraction(-1, 5)


class TestScalingReportVerdict:
    # the slope and the verdict are derived from the samples, so neither
    # can contradict them; five lambdas leave four valid samples to fit
    # when one is invalid
    @pytest.mark.parametrize(
        "slope, conv, verdict",
        [
            (math.nan, (0.0, 0.0, 0.0, 0.0, 0.0), "Inconclusive"),
            (math.nan, (0.0, 0.5, 0.0, 0.0, 0.0), "Inconclusive"),
            (-0.5, (0.0, 0.0, 0.0, 0.0, 0.0), "Pass"),
            (-0.45, (0.0, 0.0, 0.01, 0.0, 0.0), "Pass"),
            (-0.5, (0.0, 0.0, 0.5, 0.0, 0.0), "Fail"),
            (-0.7, (0.0, 0.0, 0.0, 0.0, 0.0), "Fail"),
        ],
    )
    def test_verdict_reads_slope_and_samples(self, slope, conv, verdict):
        lams = (16.0, 32.0, 64.0, 128.0, 256.0)
        # norms lambda^slope, or equal norms for a NaN (flat) slope
        values = [1.0 if math.isnan(slope) else l**slope for l in lams]
        samples = tuple(
            NormSample(lam=l, n=256, value=v, conv_err=c, iterations=10)
            for l, v, c in zip(lams, values, conv)
        )
        decay = analyze_decay(parse_poly("1"))  # predicts -1/2
        rep = ScalingReport(samples, SweepConfig(lambdas=lams, tol_slope=0.1), decay)
        if math.isnan(slope):
            assert math.isnan(rep.slope) and math.isnan(rep.stderr)
        else:
            assert rep.slope == pytest.approx(slope, abs=1e-12)
        assert rep.verdict == verdict
        assert rep.to_dict()["verdict"] == verdict


class TestScalingReportFit:
    def test_fit_runs_once_per_report(self, monkeypatch):
        calls = []

        def counted(samples, fit_window=None):
            calls.append(fit_window)
            return fit_decay(samples, fit_window)

        monkeypatch.setattr(scaling, "fit_decay", counted)
        lams = (16.0, 32.0, 64.0, 128.0, 256.0)
        cfg = SweepConfig(lambdas=lams, fit_window=(32.0, 256.0))
        samples = tuple(mk_samples(lams, [l**-0.5 for l in lams]))
        rep = ScalingReport(samples, cfg, analyze_decay(parse_poly("1")))
        assert rep.verdict == "Pass" and rep.slope == pytest.approx(-0.5)
        assert rep.to_dict()["stderr"] == rep.stderr
        assert calls == [(32.0, 256.0)]

    def test_too_few_samples_raise_when_the_fit_is_read(self):
        lams = (16.0, 32.0, 64.0, 128.0)
        samples = tuple(mk_samples(lams, [1.0, 0.9, 0.8, 0.7], conv=0.5))
        rep = ScalingReport(samples, SweepConfig(lambdas=lams), analyze_decay(parse_poly("1")))
        with pytest.raises(InsufficientSamplesError):
            rep.verdict


class TestVerifyTheorem:
    def test_hyperbolic_short_window_passes(self):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.85)
        rep = verify_theorem(p, SweepConfig(lambdas=(16.0, 32.0, 64.0, 128.0)))
        assert rep.predicted == Fraction(-1, 2)
        assert rep.verdict == "Pass"
        assert rep.slope == pytest.approx(-0.46, abs=0.04)
        assert rep.retry is None
        assert rep.log_exponent is None

    def test_degenerate_quartic_short_window(self):
        # the plain slope is still far from -1/4 at these scales, so the
        # verdict is Fail and a half-radius retry is attached; the log
        # exponent lands near the predicted correction power 1
        p = PhaseSpec(S=parse_poly("-(y - x)^4/12"), rho=0.5)
        rep = verify_theorem(p, SweepConfig(lambdas=(16.0, 32.0, 64.0, 128.0)))
        assert rep.predicted == Fraction(-1, 4)
        assert rep.decay.degeneracy.N == 2
        assert rep.log_exponent == pytest.approx(0.90, abs=0.1)
        assert rep.verdict == "Fail"
        assert isinstance(rep.retry, ScalingReport)
        assert rep.retry.retry is None

    def test_flat_sweep_is_inconclusive(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.3)
        rep = verify_theorem(p, SweepConfig(lambdas=(1.0, 1.0001, 1.0002, 1.0003)))
        assert rep.verdict == "Inconclusive"
        assert math.isnan(rep.slope)
        assert rep.retry is None

    def test_zero_mixed_derivative_rejected(self):
        # S = x + y has S''_xy = 0: no polygon, no prediction
        p = PhaseSpec(S=parse_poly("x + y"), rho=0.5)
        with pytest.raises(EmptyPolygonError):
            verify_theorem(p)

    def test_report_round_trips_json(self):
        p = PhaseSpec(S=parse_poly("x*y"), rho=0.85)
        rep = verify_theorem(p, SweepConfig(lambdas=(16.0, 32.0, 64.0, 128.0)))
        d = rep.to_dict()
        blob = json.loads(json.dumps(d))
        assert blob["predicted"] == "-1/2"
        assert blob["verdict"] == "Pass"
        assert len(blob["samples"]) == 4
        assert blob["samples"][0]["lambda"] == 16.0
        assert blob["decay"]["delta"] == "1"

    def test_failed_verdict_serializes_retry(self):
        p = PhaseSpec(S=parse_poly("-(y - x)^4/12"), rho=0.5)
        rep = verify_theorem(p, SweepConfig(lambdas=(16.0, 32.0, 64.0, 128.0)))
        d = rep.to_dict()
        assert d["verdict"] == "Fail"
        assert d["retry"]["verdict"] in ("Pass", "Fail", "Inconclusive")
        assert "retry" not in d["retry"]
