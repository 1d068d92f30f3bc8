"""Tests for the discretized operator and its bound calculators."""

import math

import numpy as np
import pytest

from newtonosc import opnorm
from newtonosc.blocks import _block_operator
from newtonosc.errors import DomainError, NoConvergenceError, ResolutionError
from newtonosc.opnorm import (
    DiscreteOperator,
    GridSpec,
    PhaseSpec,
    _midpoints,
    _next_pow2,
    auto_grid,
    bump,
    discretize,
    gradient_bound,
    grid_points,
    operator_norm,
    parity_sectors,
)
from newtonosc.polycore import BivarPoly, parse_poly
from newtonosc.scaling import NormSample

XY = parse_poly("x*y")


# --- reference bounds the discretized operator is checked against ----------


def schur_bound(op: DiscreteOperator) -> float:
    """sqrt(max row mass * max column mass); ignores oscillation entirely.

    With the sqrt(h) weighting this equals the continuum
    (sup_y int |K| dx * sup_x int |K| dy)^(1/2) up to quadrature.
    """
    A = np.abs(op.matrix)
    return math.sqrt(float(A.sum(axis=1).max()) * float(A.sum(axis=0).max()))


# 1-D quadrature sizing for the scalar checks: the grid_points rule, but a
# far higher cap since the cost is linear
_SCALAR_CAP = 2**20


def _scalar_grid(phi, a: float, b: float, lam: float) -> tuple[np.ndarray, float]:
    probe = np.linspace(a, b, 4097)
    dphi = np.gradient(phi(probe), probe)
    G = float(np.max(np.abs(dphi)))
    n, required = grid_points(lam, G, (a, b, a, b))
    if required > _SCALAR_CAP:
        raise ResolutionError(
            f"scalar quadrature needs n>{_SCALAR_CAP} (required {required:.0f})"
        )
    ts, h = _midpoints(a, b, max(4096, n))
    return ts, h


def scalar_vdc_check(
    phi, psi, psi_prime, k: int, mu: float, interval, lam: float
) -> tuple[float, float]:
    """Oscillatory decay check: |int e^{i lam phi} psi| vs the k-th order bound.

    rhs = (lam*mu)^(-1/k) * (|psi(a)| + |psi(b)| + int |psi'|); the caller
    asserts |phi^(k)| >= mu (and monotone phi' when k = 1); we spot-check
    the k = 1 monotonicity on a sample grid.
    """
    if k < 1:
        raise ValueError("derivative order k must be at least 1")
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be positive")
    a, b = interval
    if not a < b:
        raise ValueError("empty interval")
    if k == 1:
        probe = np.linspace(a, b, 2049)
        dphi = np.diff(phi(probe))
        if np.any(dphi > 0) and np.any(dphi < 0):
            raise ValueError("k=1 requires monotone phi'")
    ts, h = _scalar_grid(phi, a, b, lam)
    lhs = float(np.abs(np.sum(np.exp(1j * lam * phi(ts)) * psi(ts)) * h))
    total_var = float(np.sum(np.abs(psi_prime(ts))) * h)
    amp = abs(float(psi(a))) + abs(float(psi(b))) + total_var
    rhs = (lam * mu) ** (-1.0 / k) * amp
    return lhs, rhs


def sublevel_check(
    f, gamma: float, k: int, mu: float, interval, n: int = 200001
) -> tuple[float, float]:
    """Measure of {|f| <= gamma} by fine-grid counting vs A_k (gamma/mu)^(1/k).

    A_k = 2k * 2^(1/k), an admissible constant when |f^(k)| >= mu holds on
    the interval (caller-asserted).
    """
    if k < 1:
        raise ValueError("derivative order k must be at least 1")
    if gamma < 0 or mu <= 0:
        raise ValueError("gamma must be nonnegative and mu positive")
    a, b = interval
    ts, h = _midpoints(a, b, n)
    measure = float(np.count_nonzero(np.abs(f(ts)) <= gamma)) * h
    A_k = 2 * k * 2.0 ** (1.0 / k)
    return measure, A_k * (gamma / mu) ** (1.0 / k)


def stored_dtype(p: PhaseSpec, sector):
    """float64 when the even-in-y part E of S is empty, else complex128.

    Holds at every size.  The full kernel (sector None) takes all of S
    as its E.
    """
    even = [b for _, b in p.S.terms if sector is None or b % 2 == 0]
    return np.complex128 if even else np.float64


def random_op(rng, n, scale=1.0):
    M = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return DiscreteOperator(matrix=M)


class TestBump:
    def test_plateau_and_support(self):
        assert bump(0.0) == pytest.approx(1.0)
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(2.5) == 0.0
        vals = bump(np.linspace(-0.9, 0.9, 7))
        assert np.all(vals > 0)
        assert np.allclose(vals, vals[::-1])


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n=8, domain=(0, 1, 0, 1))
        with pytest.raises(ValueError):
            GridSpec(n=64, domain=(1, 0, 0, 1))
        with pytest.raises(ValueError):
            PhaseSpec(S=XY, rho=1.5)

    def test_auto_grid_sizes(self):
        p = PhaseSpec(S=XY, rho=0.5)
        assert auto_grid(p, 2.0**4).n == 32
        assert auto_grid(p, 2.0**8).n == 512
        assert auto_grid(p, 0.0).n == 16

    def test_auto_grid_cap(self):
        p = PhaseSpec(S=XY, rho=0.85)
        with pytest.raises(ResolutionError):
            auto_grid(p, 2.0**11)
        with pytest.raises(ResolutionError):
            auto_grid(p, math.inf)

    def test_next_pow2_matches_doubling_loop(self):
        def reference(x):
            n = 1
            while n < x:
                n *= 2
            return n

        rng = np.random.default_rng(5)
        xs = [-3.0, 0.0, 0.5, 1.0, math.nan]
        xs += [*rng.uniform(0, 5000, 200), *np.exp(rng.uniform(0, 60, 200))]
        for m in range(0, 70):
            xs += [2.0**m, math.nextafter(2.0**m, 0), math.nextafter(2.0**m, math.inf)]
        for x in xs:
            assert _next_pow2(float(x)) == reference(x), x
        assert _next_pow2(math.inf) == 1

    def test_non_finite_domain_rejected(self):
        for domain in [(0, math.inf, 0, 1), (-math.inf, 0, 0, 1), (0, 1, 0, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                GridSpec(n=16, domain=domain)

    def test_discretize_rejects_coarse_grid(self):
        p = PhaseSpec(S=XY, rho=0.5)
        with pytest.raises(ResolutionError):
            discretize(p, 2.0**8, GridSpec.square(16, 0.5))

    @pytest.mark.parametrize("lam", [78.145, 79.677])
    def test_guard_refuses_a_step_just_above_pi_over_2(self, lam):
        # x^2*y^2/4 on [-0.9, 0.9]^2 peaks at |S_x| + |S_y| = 0.9^3 at
        # the corners, so at n = 64 the true step is 1.02 and 1.04 times
        # pi/2, a few percent above the guard
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.9)
        g = GridSpec.square(64, 0.9)
        assert 1.0 < lam * 0.9**3 * (1.8 / 64) / (math.pi / 2) < 1.05
        with pytest.raises(ResolutionError, match=r"^grid n=64 does not resolve"):
            discretize(p, lam, g)

    @pytest.mark.parametrize("lam, builds", [(315.0, True), (330.0, False)])
    def test_guard_reads_the_longer_cell_side(self, lam, builds):
        # a block-shaped rectangle: x*y has G = 0.5 + 0.125 there, so at
        # n = 64 the long side steps 0.979 (315) or 1.026 (330) times
        # pi/2 per cell and the short side a quarter of that
        p = PhaseSpec(S=XY, rho=0.5)
        g = GridSpec(n=64, domain=(0, 0.5, 0, 0.125))
        assert gradient_bound(XY, g.domain) == 0.625
        step = lam * 0.625 * (0.5 / 64) / (math.pi / 2)
        assert (0.97 < step < 0.98) if builds else (1.02 < step < 1.03)
        if builds:
            assert discretize(p, lam, g).matrix.shape == (64, 64)
        else:
            with pytest.raises(ResolutionError, match=r"^grid n=64 does not resolve"):
                discretize(p, lam, g)

    def test_gradient_bound(self):
        # |y| + |x| peaks at the corners of the square
        g = gradient_bound(XY, (-0.5, 0.5, -0.5, 0.5))
        assert g == 1.0

    @pytest.mark.parametrize(
        "text, rho, G",
        [
            ("10^400*x*y", 0.5, math.inf),  # the coefficient is no double
            ("10^308*x*y", 1.0, math.inf),  # 2e308: finite terms, overflowing sum
            ("10^308*x*y", 0.5, 1e308),
        ],
    )
    def test_gradient_bound_beyond_the_double_range_is_inf(self, text, rho, G):
        S = parse_poly(text)  # c*x*y is its own canonical phase
        assert gradient_bound(S, (-rho, rho, -rho, rho)) == G
        if max(map(abs, S.terms.values())) > np.finfo(float).max:
            # no kernel can convert the coefficient, so the phase is refused
            with pytest.raises(DomainError, match=r"^the coefficient of x\*y in the phase"):
                PhaseSpec(S=S, rho=rho)
        elif math.isinf(G):
            with pytest.raises(ResolutionError, match=r"\(required inf\)$"):
                auto_grid(PhaseSpec(S=S, rho=rho), 16.0)

    def test_phase_coefficient_beyond_the_double_range_refused(self):
        # the canonical coefficients are what a kernel build converts, so
        # a pure term drops out before the check
        for text in ("10^400*x*y", "-x*y^2*10^400", "10^400*x^2*y^2"):
            with pytest.raises(DomainError, match=r"^the coefficient of x(\^2)?\*y(\^2)? in the phase is beyond the double range$"):
                PhaseSpec(S=parse_poly(text))
        assert PhaseSpec(S=parse_poly("10^400*x^2 + x*y")).S == XY
        assert PhaseSpec(S=parse_poly("10^308*x*y")).S.terms[(1, 1)] == 10**308

    def test_list_domain_discretizes(self):
        p = PhaseSpec(S=XY, rho=0.5)
        g = GridSpec(n=16, domain=[-0.5, 0.5, -0.5, 0.5])
        assert g.domain == (-0.5, 0.5, -0.5, 0.5)
        np.testing.assert_array_equal(
            discretize(p, 4.0, g).matrix, discretize(p, 4.0, GridSpec.square(16, 0.5)).matrix
        )


class TestKernelPrecision:
    def test_every_kernel_is_float64_or_complex128(self):
        # the reference phases at their top lambda, a phase without parity
        # on 2304- and 4096-point grids, and a 4096-point block grid
        mixed = PhaseSpec(S=parse_poly("x^3*y/3 + x*y^2"), rho=0.5)
        cases = [(mixed, 1024.0, GridSpec.square(2304, 0.5)), (mixed, 2048.0, GridSpec.square(4096, 0.5))]
        for text, rho, lam in [("x*y", 0.85, 1024.0), ("x^2*y^2/4", 0.9, 2048.0), ("-(y-x)^4/12", 0.5, 2048.0)]:
            p = PhaseSpec(S=parse_poly(text), rho=rho)
            cases.append((p, lam, auto_grid(p, lam)))
        for p, lam, g in cases:
            for k in parity_sectors(p.S):
                M = discretize(p, lam, g, sector=k).matrix
                assert M.dtype == stored_dtype(p, k), (p.S.render(), g.n, k)
        block = _block_operator(PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5), 2.0**16, 1, 1)
        assert block.shape == (4096, 4096) and block.matrix.dtype == np.complex128


class TestDiscretize:
    def test_rank_one_at_lambda_zero(self):
        p = PhaseSpec(S=XY, rho=0.5)
        op = discretize(p, 0.0, GridSpec.square(256, 0.5))
        val, it, _ = operator_norm(op, seed=2)
        ts = np.linspace(-0.5, 0.5, 20001)
        oracle = float(np.trapezoid(bump(ts / 0.5) ** 2, ts))
        assert val == pytest.approx(oracle, rel=1e-6)
        # the discrete matrix itself is exactly rank one
        discrete = float(np.linalg.norm(op.matrix[:, 0])) * float(
            np.linalg.norm(op.matrix[0, :])
        ) / abs(op.matrix[0, 0])
        assert val == pytest.approx(discrete, rel=1e-12)

    def test_apply_matches_dense(self):
        p = PhaseSpec(S=XY, rho=0.5)
        op = discretize(p, 16.0, GridSpec.square(64, 0.5))
        rng = np.random.default_rng(5)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        dense = op.matrix.conj().T @ (op.matrix @ v)
        ours = op.apply_adjoint(op.apply(v))
        assert np.linalg.norm(dense - ours) <= 1e-12 * np.linalg.norm(dense)

    def test_adjoint_identity(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        op = discretize(p, 32.0, GridSpec.square(64, 0.5))
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            lhs = np.vdot(g, op.apply(f))
            rhs = np.vdot(op.apply_adjoint(g), f)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_windows_mask_kernel(self):
        p = PhaseSpec(S=XY, rho=0.5)
        g = GridSpec.square(64, 0.5)
        full = discretize(p, 16.0, g)
        half = discretize(p, 16.0, g, x_window=lambda x: (x > 0).astype(float))
        zero = discretize(p, 16.0, g, y_window=lambda y: np.zeros_like(y))
        xs, _ = _midpoints(-0.5, 0.5, 64)
        assert np.all(half.matrix[xs <= 0] == 0)
        n_full, _, _ = operator_norm(full, seed=1)
        n_half, _, _ = operator_norm(half, seed=1)
        assert n_half <= n_full + 1e-12
        assert operator_norm(zero, seed=1)[0] == 0.0


class TestParitySectors:
    # pure terms drop out of the canonical phase, so x*y + x^3 has the
    # sectors of x*y
    CORPUS = [
        ("x*y", (1, -1)),
        ("-(y-x)^4/12", (1, -1)),
        ("x^2*y^2/4", (1,)),
        ("x^3*y/3 + x*y^2", (None,)),
        ("x*y + x^2*y", (None,)),
        ("x*y + x^3", (1, -1)),
    ]

    @pytest.mark.parametrize("text, sectors", CORPUS)
    def test_support_table_sign_and_swap(self, text, sectors):
        S = parse_poly(text)
        swapped = BivarPoly({(b, a): c for (a, b), c in S.terms.items()})
        for other in (S, -S, swapped):
            assert parity_sectors(other) == sectors
            assert parity_sectors(PhaseSpec(S=other).S) == sectors

    @pytest.mark.parametrize("lam", [16.0, 64.0, 256.0])
    @pytest.mark.parametrize("text, sectors", CORPUS)
    def test_largest_sector_is_the_full_norm(self, text, sectors, lam):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        g = auto_grid(p, lam)
        full = float(np.linalg.norm(discretize(p, lam, g).matrix, 2))
        ops = [discretize(p, lam, g, sector=k) for k in sectors]
        assert all(op.matrix.dtype == stored_dtype(p, k) for op, k in zip(ops, sectors))
        largest = max(float(np.linalg.norm(op.matrix, 2)) for op in ops)
        assert largest == pytest.approx(full, rel=1e-12)

    def test_n4096_sectors_are_float64_and_match_the_full_kernel(self):
        # x*y, rho 0.85, lambda 1024: the top sample of criterion 1
        p = PhaseSpec(S=XY, rho=0.85)
        g = GridSpec.square(4096, 0.85)
        K = discretize(p, 1024.0, g).matrix
        assert K.dtype == np.complex128
        plus, minus = K[2048:, 2048:], K[2048:, 2047::-1]
        del K
        for k, folded in ((1, plus + minus), (-1, (plus - minus) / 1j)):
            M = discretize(p, 1024.0, g, sector=k).matrix
            assert M.shape == (2048, 2048) and M.dtype == np.float64
            assert np.max(np.abs(M - folded)) <= 1e-12 * np.max(np.abs(M))

    @pytest.mark.parametrize(
        "text, grid, sector, window",
        [
            ("x^2*y^2/4", GridSpec.square(64, 0.5), -1, False),  # odd sector vanishes
            ("x^3*y/3 + x*y^2", GridSpec.square(64, 0.5), 1, False),  # no parity
            ("x*y", GridSpec.square(33, 0.5), 1, False),  # odd grid
            ("x*y", GridSpec(n=64, domain=(0.0, 0.5, -0.5, 0.5)), 1, False),  # off centre
            ("x*y", GridSpec.square(64, 0.5), 1, True),  # windowed
        ],
    )
    def test_sector_needs_parity_and_a_centred_even_grid(self, text, grid, sector, window):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        x_window = (lambda x: np.ones_like(x)) if window else None
        with pytest.raises(ValueError, match="sector"):
            discretize(p, 8.0, grid, x_window=x_window, sector=sector)


def direct_kernel(p: PhaseSpec, lam: float, g: GridSpec, sector=None, x_window=None, y_window=None):
    """The kernel entry by entry, from the formulas in discretize's docstring.

    Full kernel: w_i w_j e^{i lam S(x_i, y_j)}.  Sector k: 2 w_i w_j
    e^{i lam E} cos(lam O) for k = 1 and sin for k = -1 on the nodes
    x, y > 0, with E and O the even-in-y and odd-in-y terms of S.
    """
    x0, x1, y0, y1 = g.domain
    xs, hx = _midpoints(x0, x1, g.n)
    ys, hy = _midpoints(y0, y1, g.n)
    wx = bump(xs / p.rho) * math.sqrt(hx)
    wy = bump(ys / p.rho) * math.sqrt(hy)
    if x_window is not None:
        wx = wx * x_window(xs)
    if y_window is not None:
        wy = wy * y_window(ys)
    if sector is not None:
        half = g.n // 2
        xs, ys, wx, wy = xs[half:], ys[half:], 2.0 * wx[half:], wy[half:]
    X, Y = xs[:, None], ys[None, :]

    def value(parity):
        terms = (float(c) * X**a * Y**b for (a, b), c in p.S.terms.items() if b % 2 in parity)
        return sum(terms, np.zeros((xs.size, ys.size)))

    amp = wx[:, None] * wy[None, :]
    if sector is None:
        return amp * np.exp(1j * lam * value((0, 1)))
    fold = np.cos if sector == 1 else np.sin
    return amp * np.exp(1j * lam * value((0,))) * fold(lam * value((1,)))


# lam * |S| stays below about 30 on the grid, so the phase itself is exact
# to a few 1e-15 however its terms are summed
BUILD_CASES = [
    ("x*y", 0.5, 64.0, 128),
    ("x^2*y^2/4", 0.9, 128.0, 256),
    ("-(y-x)^4/12", 0.5, 256.0, 128),
    ("x^3*y/3 + x*y^2", 0.5, 64.0, 128),
    ("x^2*y + x*y^2", 0.5, 64.0, 100),
]
SYMMETRIC = ["x*y", "x^2*y^2/4", "-(y-x)^4/12", "x^2*y + x*y^2", "x^3*y + x*y^3"]


def kernel_evaluations(monkeypatch, p: PhaseSpec) -> dict:
    """Count the entries discretize evaluates of E and of O (see direct_kernel).

    Calls on other polynomials, such as gradient_bound's derivatives, are
    not counted.  The full kernel evaluates S as its E.
    """
    counts = {"E": 0, "O": 0, "S": 0}
    parts = {
        "E": BivarPoly({k: c for k, c in p.S.terms.items() if k[1] % 2 == 0}),
        "O": BivarPoly({k: c for k, c in p.S.terms.items() if k[1] % 2}),
        "S": p.S,
    }
    real = opnorm.eval_grid

    def counting(poly, xs, ys):
        out = real(poly, xs, ys)
        for name, part in parts.items():
            if poly == part:
                counts[name] += out.size
        return out

    monkeypatch.setattr(opnorm, "eval_grid", counting)
    return counts


class TestFusedBuild:
    @pytest.mark.parametrize("text, rho, lam, n", BUILD_CASES)
    def test_entrywise_agreement(self, text, rho, lam, n):
        p = PhaseSpec(S=parse_poly(text), rho=rho)
        g = GridSpec.square(n, rho)
        for k in parity_sectors(p.S):
            M = discretize(p, lam, g, sector=k).matrix
            ref = direct_kernel(p, lam, g, sector=k)
            assert M.dtype == stored_dtype(p, k)
            assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(M))

    def test_windowed_block_agreement(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        g = GridSpec(n=128, domain=(0.125, 0.5, 0.0625, 0.25))
        xw = lambda x: bump((x - 0.3) / 0.2)
        yw = lambda y: (y > 0.1).astype(float)
        M = discretize(p, 512.0, g, x_window=xw, y_window=yw).matrix
        ref = direct_kernel(p, 512.0, g, x_window=xw, y_window=yw)
        assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(M))

    def test_complex64_full_kernel_agreement(self):
        # 2304 per side, where complex64 storage once took over: complex128
        p = PhaseSpec(S=XY, rho=0.5)
        g = GridSpec.square(2304, 0.5)
        M = discretize(p, 256.0, g).matrix
        assert M.dtype == np.complex128
        ref = direct_kernel(p, 256.0, g)
        assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(M))

    @pytest.mark.parametrize("n", [32, 100, 2048])
    @pytest.mark.parametrize("text", SYMMETRIC)
    def test_swap_symmetric_kernels_are_exactly_symmetric(self, text, n):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        g = GridSpec.square(n, 0.5)
        lam = 16.0
        for k in parity_sectors(p.S):
            M = discretize(p, lam, g, sector=k).matrix
            assert np.array_equal(M, M.T), (text, n, k)

    @pytest.mark.parametrize("text", ["x^2*y^2/4", "-(y-x)^4/12"])
    def test_symmetric_sector_evaluates_under_two_thirds(self, monkeypatch, text):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        counts = kernel_evaluations(monkeypatch, p)
        M = discretize(p, 64.0, GridSpec.square(2048, 0.5), sector=1).matrix
        for part in ("E", "O"):
            if counts[part]:
                assert counts[part] < 2 / 3 * M.size, (part, counts[part], M.size)
        assert counts["E"] > 0

    def test_asymmetric_and_windowed_kernels_evaluate_every_entry(self, monkeypatch):
        p = PhaseSpec(S=parse_poly("x^3*y/3 + x*y^2"), rho=0.5)
        counts = kernel_evaluations(monkeypatch, p)
        M = discretize(p, 16.0, GridSpec.square(256, 0.5)).matrix
        assert counts["S"] == M.size
        p = PhaseSpec(S=XY, rho=0.5)
        counts = kernel_evaluations(monkeypatch, p)
        ones = lambda t: np.ones_like(t)
        M = discretize(p, 16.0, GridSpec.square(256, 0.5), x_window=ones, y_window=ones).matrix
        assert counts["S"] == M.size

    @pytest.mark.parametrize("text", ["x*y", "x^3*y + x*y^3"])
    def test_empty_even_part_is_never_evaluated(self, monkeypatch, text):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        counts = kernel_evaluations(monkeypatch, p)
        for k in parity_sectors(p.S):
            M = discretize(p, 16.0, GridSpec.square(128, 0.5), sector=k).matrix
            assert not M.imag.any()
        assert counts["E"] == 0
        assert counts["O"] > 0


class TestOperatorNorm:
    def test_constant_kernel_unit_norm(self):
        n = 100
        h = 1.0 / n
        op = DiscreteOperator(matrix=np.full((n, n), h, dtype=complex))
        val, _, _ = operator_norm(op, tol=1e-14, seed=0)
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": 0.0}, "tolerance must be positive"),
            ({"max_iter": 0}, "max_iter must be positive"),
            ({"tol": math.nan}, "tolerance must be positive"),
        ],
    )
    def test_nonpositive_stopping_rule_is_refused(self, kwargs, message):
        op = DiscreteOperator(matrix=np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match=message):
            operator_norm(op, **kwargs)

    def test_separable_kernel(self):
        n = 80
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(n)
        psi = rng.standard_normal(n)
        op = DiscreteOperator(matrix=np.outer(phi, psi).astype(complex))
        val, _, _ = operator_norm(op, tol=1e-14, seed=0)
        assert val == pytest.approx(
            np.linalg.norm(phi) * np.linalg.norm(psi), rel=1e-10
        )

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(32, 129))
            op = random_op(rng, n)
            dense = np.linalg.norm(op.matrix, 2)
            val, _, _ = operator_norm(op, tol=1e-13, max_iter=5000, seed=7)
            assert abs(val - dense) <= 1e-8 * dense

    def test_zero_operator(self):
        op = DiscreteOperator(matrix=np.zeros((16, 16), dtype=complex))
        assert operator_norm(op, seed=0)[0] == 0.0

    @pytest.mark.parametrize("real", [True, False])
    def test_entries_below_the_square_underflow(self, real):
        # entries near 1e-170 square to below the double range, where the
        # Lanczos norms read 0.0; the solve runs on the matrix lifted by an
        # exact power of two, so it is the solve of the lifted matrix
        # scaled back bit for bit, and matches its dense SVD
        rng = np.random.default_rng(170)
        M = random_op(rng, 40).matrix
        M = M.real if real else M
        lifted = M * 2.0 ** -math.frexp(np.abs(M).max())[1]
        tiny = DiscreteOperator(matrix=lifted * 2.0**-565)
        assert 1e-171 < np.abs(tiny.matrix).max() < 1e-169
        val, k, vec = operator_norm(tiny, tol=1e-13, seed=3)
        ref_val, ref_k, ref_vec = operator_norm(DiscreteOperator(matrix=lifted), tol=1e-13, seed=3)
        assert (val, k) == (math.ldexp(ref_val, -565), ref_k)
        assert np.array_equal(vec, ref_vec)
        assert val == pytest.approx(np.linalg.norm(lifted, 2) * 2.0**-565, rel=1e-10, abs=0)

    def test_subnormal_entries_are_lifted_by_2_to_the_1023(self):
        rng = np.random.default_rng(171)
        op = DiscreteOperator(matrix=rng.standard_normal((30, 30)) * 1e-310)
        dense = np.linalg.norm(op.matrix * 2.0**1023, 2) * 2.0**-1023
        assert operator_norm(op, tol=1e-13, seed=0)[0] == pytest.approx(dense, rel=1e-10, abs=0)

    def test_no_convergence_strict_mode(self):
        # 64 singular values clustered just below 1: three Krylov steps
        # cannot settle the top one to 1e-15
        op = DiscreteOperator(matrix=np.diag(np.linspace(1.0, 0.95, 64)).astype(complex))
        with pytest.raises(NoConvergenceError) as exc:
            operator_norm(op, tol=1e-15, max_iter=3, seed=0)
        assert len(exc.value.quotients) == 2

    def test_seeded_determinism(self):
        rng = np.random.default_rng(8)
        op = random_op(rng, 48)
        a = operator_norm(op, seed=5)
        b = operator_norm(op, seed=5)
        assert a[:2] == b[:2]
        assert np.array_equal(a[2], b[2])

    def test_warm_start(self):
        rng = np.random.default_rng(21)
        op = random_op(rng, 64)
        val, _, vec = operator_norm(op, tol=1e-12, max_iter=2000, seed=1)
        val2, it2, _ = operator_norm(op, tol=1e-12, v0=vec)
        assert val2 == pytest.approx(val, rel=1e-9)
        assert it2 <= 3


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def relative_residual(matrix, val, vec):
    """|T*T v - s^2 v| / s^2, computed in complex128 from the matrix itself."""
    M = matrix.astype(np.complex128)
    return float(np.linalg.norm(M.conj().T @ (M @ vec) - val**2 * vec)) / val**2


class TestLanczosMechanism:
    def test_clustered_top_pair(self):
        # s2/s1 = 0.995: power iteration's step count grows like
        # 1/(1 - s2^2/s1^2) (thousands here), a Krylov method's like its root
        rng = np.random.default_rng(11)
        n = 200
        s = np.concatenate([[1.0, 0.995], np.linspace(0.99, 0.0, n - 2)])
        M = unitary(rng, n) @ (s[:, None] * unitary(rng, n).conj().T)
        op = DiscreteOperator(matrix=M)
        val, steps, vec = operator_norm(op, seed=0)
        assert abs(val - np.linalg.norm(M, 2)) <= 1e-8
        assert steps <= 60
        assert relative_residual(M, val, vec) <= 10 * 1e-6

    def test_residual_random_operator(self):
        op = random_op(np.random.default_rng(4), 96)
        val, _, vec = operator_norm(op, seed=3)
        assert relative_residual(op.matrix, val, vec) <= 10 * 1e-6

    def test_residual_complex64_kernel(self):
        # 2304 per side, in complex128: a residual that single-precision
        # products could not reach
        op = discretize(PhaseSpec(S=XY, rho=0.5), 256.0, GridSpec.square(2304, 0.5))
        assert op.matrix.dtype == np.complex128
        val, _, vec = operator_norm(op, tol=1e-10, seed=0)
        assert relative_residual(op.matrix, val, vec) <= 10 * 1e-10

    @pytest.mark.parametrize("real", [True, False])
    def test_bases_stay_orthonormal_over_many_steps(self, monkeypatch, real):
        # 20 singular values within 1e-3 of the top one: about 200 steps
        # to a 1e-12 residual, each step writing one row of both bases
        bases = []
        orthogonalize = opnorm._orthogonalize

        def recorded(Q, w):
            if not any(Q.base is b for b in bases):
                bases.append(Q.base)
            orthogonalize(Q, w)

        monkeypatch.setattr(opnorm, "_orthogonalize", recorded)
        rng = np.random.default_rng(17)
        n = 300
        s = np.concatenate([1 - 1e-3 * np.arange(20) / 20, np.linspace(0.97, 0.0, n - 20)])
        if real:
            Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        else:
            Q1, Q2 = unitary(rng, n), unitary(rng, n)
        M = Q1 @ (s[:, None] * Q2.conj().T)
        val, steps, _ = operator_norm(DiscreteOperator(matrix=M), tol=1e-12)
        assert steps >= 100
        assert abs(val - 1.0) <= 1e-8
        assert len(bases) == 2
        for basis in bases:
            assert basis.dtype == (np.float64 if real else np.complex128)
            Q = basis[:steps]
            assert np.linalg.norm(Q.conj() @ Q.T - np.eye(steps), 2) <= 1e-12


class TestRealSectors:
    # sectors whose even-in-y part is empty are stored, and solved, real
    @pytest.mark.parametrize("lam", [16.0, 256.0, 1024.0])
    @pytest.mark.parametrize("text", ["x*y", "x*y^3 + x^3*y"])
    def test_matches_dense_svd(self, text, lam):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        g = auto_grid(p, lam)
        for k in parity_sectors(p.S):
            op = discretize(p, lam, g, sector=k)
            assert op.matrix.dtype == np.float64
            dense = np.linalg.norm(op.matrix, 2)
            val, _, _ = operator_norm(op, seed=0)
            assert abs(val - dense) <= 1e-8 * dense

    def test_ritz_vector_is_real_and_unit(self):
        p = PhaseSpec(S=XY, rho=0.85)
        op = discretize(p, 256.0, auto_grid(p, 256.0), sector=-1)
        val, _, vec = operator_norm(op, seed=0)
        assert vec.dtype == np.float64
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert relative_residual(op.matrix, val, vec) <= 10 * 1e-6

    def test_residual_float32_sector(self):
        # a 4608-point grid stores 2304-point sectors, in float64 too
        op = discretize(PhaseSpec(S=XY, rho=0.5), 256.0, GridSpec.square(4608, 0.5), sector=1)
        assert op.matrix.dtype == np.float64
        val, _, vec = operator_norm(op, tol=1e-10, seed=0)
        assert vec.dtype == np.float64
        assert relative_residual(op.matrix, val, vec) <= 10 * 1e-10

    @pytest.mark.parametrize("sector", [1, -1])
    def test_adjoint_identity_with_complex_vectors(self, sector):
        op = discretize(PhaseSpec(S=XY, rho=0.5), 64.0, GridSpec.square(128, 0.5), sector=sector)
        assert op.matrix.dtype == np.float64
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            Tf = op.apply(f)
            assert np.iscomplexobj(Tf)
            assert np.max(np.abs(Tf - op.matrix.astype(complex) @ f)) <= 1e-14
            lhs = np.vdot(g, Tf)
            rhs = np.vdot(op.apply_adjoint(g), f)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestBounds:
    def test_schur_constant_kernel(self):
        n = 50
        h = 1.0 / n
        op = DiscreteOperator(matrix=np.full((n, n), h, dtype=complex))
        assert schur_bound(op) == pytest.approx(1.0, abs=1e-12)

    def test_schur_blind_to_oscillation(self):
        n = 64
        h = 1.0 / n
        ts = (np.arange(n) + 0.5) * h
        for lam in (1.0, 256.0):
            M = np.exp(1j * lam * np.outer(ts, ts)) * h
            op = DiscreteOperator(matrix=M)
            assert schur_bound(op) == pytest.approx(1.0, abs=1e-12)

    def test_schur_dominates_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(16, 65))
            M = rng.random((n, n))
            op = DiscreteOperator(matrix=M.astype(complex))
            assert np.linalg.norm(M, 2) <= schur_bound(op) * (1 + 1e-12)

    def test_norm_below_schur_and_size(self):
        rng = np.random.default_rng(64)
        phases = ["x*y", "x^2*y^2/4", "x*y^2 + x^3*y", "x^2*y - y^3"]
        for text in phases:
            p = PhaseSpec(S=parse_poly(text), rho=0.5)
            lam = float(rng.integers(1, 33))
            op = discretize(p, lam, GridSpec.square(64, 0.5))
            val, _, _ = operator_norm(op, seed=3)
            assert val <= schur_bound(op) * 1.01
            assert val <= 1.0 * 1.01  # the size bound of the unit square

    def test_hoermander_constant_band(self):
        # lam^(1/2) * norm settles near a single constant for S = xy
        p = PhaseSpec(S=XY, rho=0.5)
        cs = []
        for m in (4, 6, 8):
            lam = 2.0**m
            op = discretize(p, lam, auto_grid(p, lam))
            val, _, _ = operator_norm(op, seed=1)
            cs.append(val * math.sqrt(lam))
        assert max(cs) / min(cs) < 3.0
        assert min(cs) > 0.5


class TestScalarVdc:
    def test_fresnel(self):
        lhs, rhs = scalar_vdc_check(
            lambda t: t * t / 2,
            lambda t: np.ones_like(t),
            lambda t: np.zeros_like(t),
            2,
            1.0,
            (-1, 1),
            2.0**14,
        )
        assert lhs == pytest.approx(math.sqrt(2 * math.pi / 2.0**14), rel=0.02)
        assert lhs / rhs == pytest.approx(math.sqrt(2 * math.pi) / 2, abs=0.02)

    def test_k1_exact_integral(self):
        lam = 300.0
        lhs, rhs = scalar_vdc_check(
            lambda t: t,
            lambda t: np.ones_like(t),
            lambda t: np.zeros_like(t),
            1,
            1.0,
            (0, 1),
            lam,
        )
        exact = abs((np.exp(1j * lam) - 1) / lam)
        assert lhs == pytest.approx(exact, rel=1e-2)
        assert rhs == pytest.approx(2.0 / lam)
        assert lhs <= rhs

    def test_k3_ratio_bounded(self):
        ratios = []
        for m in range(4, 15, 2):
            lhs, rhs = scalar_vdc_check(
                lambda t: t**3,
                lambda t: np.ones_like(t),
                lambda t: np.zeros_like(t),
                3,
                6.0,
                (0, 1),
                2.0**m,
            )
            ratios.append(lhs / rhs)
        assert max(ratios) < 1.0
        assert min(ratios) > 0.5

    def test_variation_term(self):
        # psi = t on [0,1]: amplitude factor 0 + 1 + 1 = 2
        lam = 2.0**6
        _, rhs = scalar_vdc_check(
            lambda t: t,
            lambda t: t,
            lambda t: np.ones_like(t),
            1,
            1.0,
            (0, 1),
            lam,
        )
        assert rhs == pytest.approx(2.0 / lam, rel=1e-6)

    def test_k1_requires_monotone_derivative(self):
        with pytest.raises(ValueError):
            scalar_vdc_check(
                lambda t: np.sin(3 * t),
                lambda t: np.ones_like(t),
                lambda t: np.zeros_like(t),
                1,
                0.1,
                (-1, 1),
                32.0,
            )

    def test_argument_validation(self):
        one = lambda t: np.ones_like(t)
        zero = lambda t: np.zeros_like(t)
        with pytest.raises(ValueError):
            scalar_vdc_check(lambda t: t, one, zero, 0, 1.0, (0, 1), 8.0)
        with pytest.raises(ValueError):
            scalar_vdc_check(lambda t: t, one, zero, 1, 1.0, (1, 0), 8.0)
        with pytest.raises(ValueError):
            scalar_vdc_check(lambda t: t, one, zero, 1, 1.0, (0, 1), -2.0)
        with pytest.raises(ResolutionError):
            scalar_vdc_check(lambda t: t, one, zero, 1, 1.0, (0, 1), 2.0**21)


class TestSublevel:
    def test_linear(self):
        measure, bound = sublevel_check(lambda t: t, 0.1, 1, 1.0, (0, 1))
        assert measure == pytest.approx(0.1, abs=1e-4)
        assert bound == pytest.approx(4 * 0.1)
        assert measure <= bound

    def test_square(self):
        measure, bound = sublevel_check(lambda t: t * t, 0.01, 2, 2.0, (-1, 1))
        assert measure == pytest.approx(0.2, abs=1e-4)
        assert bound == pytest.approx(4 * math.sqrt(2) * math.sqrt(0.005))
        assert measure <= bound

    def test_two_roots(self):
        gamma = 1e-4
        measure, bound = sublevel_check(
            lambda t: (t - 1 / 3) * (t - 2 / 3), gamma, 2, 2.0, (0, 1)
        )
        assert measure == pytest.approx(12 * gamma, rel=0.2)
        assert measure <= bound

    def test_validation(self):
        with pytest.raises(ValueError):
            sublevel_check(lambda t: t, -0.1, 1, 1.0, (0, 1))
        with pytest.raises(ValueError):
            sublevel_check(lambda t: t, 0.1, 1, 0.0, (0, 1))


class TestNormSample:
    def test_validity_flag(self):
        good = NormSample(lam=16.0, n=64, value=0.3, conv_err=0.005, iterations=20)
        bad = NormSample(lam=16.0, n=64, value=0.3, conv_err=0.05, iterations=20)
        assert good.valid and not bad.valid
        d = good.to_dict()
        assert d["lambda"] == 16.0 and d["valid"] is True
