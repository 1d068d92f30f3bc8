"""Discretized oscillatory operators and their elementary norm bounds.

The operator acts by integrating e^{i lam S(x,y)} against a fixed smooth
tensor-product cutoff.  Midpoint sampling with symmetric sqrt(h) weights
turns it into a matrix whose spectral norm tracks the L2 operator norm
once the grid resolves the oscillation; the sizing rule keeps
lam * |grad S| * h below pi/2 with a safety factor, where S is the
canonical phase integrate_xy(S''_xy) that PhaseSpec stores.

Alongside the discretization live the bound calculators used to control
individual pieces of the operator: Schur row/column masses, the support
size bound, the operator oscillation bound (lam*mu)^(-1/2), and the two
scalar checkers (oscillatory integral decay and sublevel measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, ResolutionError
from .polycore import BivarPoly, eval_grid, integrate_xy, mixed_derivative

# grid sizing: hard cap on the base grid, oversampling safety factor,
# and the dtype crossover that keeps large kernels affordable
GRID_CAP = 4096
GRID_MIN = 16
SAFETY = 2.0
COMPLEX64_ABOVE = 2048
_CHUNK_ROWS = 512
# the resolution guard: at most pi/2 of phase across one grid cell
_MAX_CELL_PHASE = math.pi / 2 + 1e-12
_PROBE = 64


def bump(t):
    """b(t) = exp(1 - 1/(1 - t^2)) inside |t| < 1, zero outside; b(0) = 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


@dataclass(frozen=True)
class PhaseSpec:
    """A phase S and the radius of its tensor-bump cutoff.

    The norm depends on S only through F = S''_xy: adding g(x) + h(y)
    multiplies the kernel on both sides by unimodular diagonals, on the
    continuum and on any midpoint grid alike.  S is stored in the
    canonical form integrate_xy(F), so pure terms cannot inflate the
    grid sizing and every input with the same F builds the same kernel.
    """

    S: BivarPoly
    rho: float = 0.5

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValueError("cutoff radius must lie in (0, 1]")
        object.__setattr__(self, "S", integrate_xy(mixed_derivative(self.S)))


@dataclass(frozen=True)
class GridSpec:
    n: int
    domain: tuple[float, float, float, float]

    def __post_init__(self):
        if self.n < GRID_MIN:
            raise ValueError(f"grid needs at least {GRID_MIN} points per side")
        x0, x1, y0, y1 = self.domain
        if not (x0 < x1 and y0 < y1):
            raise ValueError("domain must be a nondegenerate rectangle")

    @classmethod
    def square(cls, n: int, rho: float) -> "GridSpec":
        return cls(n=n, domain=(-rho, rho, -rho, rho))


@dataclass(frozen=True)
class NormSample:
    """One norm estimate with its quadrature-error estimate.

    conv_err is the relative gap to the check grid (n/2, or 2n where
    n/2 is not a legal grid).  iterations counts Lanczos steps over
    every grid solved for the sample, base and check grids alike; each
    step is one T and one T* product.
    """

    lam: float
    n: int
    value: float
    conv_err: float
    iterations: int

    @property
    def valid(self) -> bool:
        return self.conv_err < 0.02

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "n": self.n,
            "norm": self.value,
            "conv_err": self.conv_err,
            "iterations": self.iterations,
            "valid": self.valid,
        }


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


def gradient_bound(S: BivarPoly, domain, probe: int = _PROBE) -> float:
    """Sampled max of |dS/dx| + |dS/dy| over the rectangle."""
    x0, x1, y0, y1 = domain
    xs, _ = _midpoints(x0, x1, probe)
    ys, _ = _midpoints(y0, y1, probe)
    sx = eval_grid(S.diff("x"), xs, ys)
    sy = eval_grid(S.diff("y"), xs, ys)
    return float(np.max(np.abs(sx) + np.abs(sy)))


def _next_pow2(x: float) -> int:
    n = 1
    while n < x:
        n *= 2
    return n


def auto_grid(
    p: PhaseSpec, lam: float, cap: int = GRID_CAP, safety: float = SAFETY
) -> GridSpec:
    """Pick n so the full-square grid gives >= 4 samples per oscillation."""
    domain = (-p.rho, p.rho, -p.rho, p.rho)
    G = gradient_bound(p.S, domain)
    required = 2 * p.rho * lam * G * (2.0 / math.pi) * safety
    if required > cap:
        raise ResolutionError(
            f"lambda={lam} needs n>{cap} on the full square (required {required:.0f})"
        )
    return GridSpec(n=max(GRID_MIN, _next_pow2(required)), domain=domain)


@dataclass
class DiscreteOperator:
    """Kernel matrix with symmetric sqrt(h) weights; spectral norm ~ L2 norm.

    apply/apply_adjoint work on coefficient vectors v_b ~ f(y_b)*sqrt(h_y),
    so <Tf, g> is the plain inner product of the mapped vectors.
    """

    matrix: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    hx: float
    hy: float
    lam: float = 0.0

    @property
    def shape(self):
        return self.matrix.shape

    def _cast(self, v: np.ndarray) -> np.ndarray:
        # match the kernel dtype, else matmul upcast-copies the whole matrix
        return np.asarray(v, dtype=self.matrix.dtype)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ self._cast(v)

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        # conj(M^T) @ v without materializing the conjugate matrix
        return np.conj(np.conj(self._cast(v)) @ self.matrix)


def _cell_phase(p: PhaseSpec, lam: float, g: GridSpec) -> float:
    """lam * |grad S| * h: the largest phase step across one cell of g."""
    x0, x1, y0, y1 = g.domain
    h = max((x1 - x0) / g.n, (y1 - y0) / g.n)
    return lam * gradient_bound(p.S, g.domain) * h


def resolves(p: PhaseSpec, lam: float, g: GridSpec) -> bool:
    """True when discretize accepts g: at most pi/2 of phase per cell."""
    return _cell_phase(p, lam, g) <= _MAX_CELL_PHASE


def kernel_dtype(n: int):
    """complex128 up to the crossover size, complex64 above it."""
    return np.complex128 if n <= COMPLEX64_ABOVE else np.complex64


def discretize(
    p: PhaseSpec,
    lam: float,
    g: GridSpec,
    x_window=None,
    y_window=None,
) -> DiscreteOperator:
    """Sample e^{i lam S} chi on the grid with midpoint weights.

    Optional separable window callables multiply the cutoff; they carry
    the dyadic masks (and quadrant indicators) of the block decomposition.
    """
    step = _cell_phase(p, lam, g)
    if step > _MAX_CELL_PHASE:
        raise ResolutionError(
            f"grid n={g.n} does not resolve lambda={lam} (lam*G*h={step:.3f})"
        )
    x0, x1, y0, y1 = g.domain
    xs, hx = _midpoints(x0, x1, g.n)
    ys, hy = _midpoints(y0, y1, g.n)
    wx = bump(xs / p.rho) * math.sqrt(hx)
    wy = bump(ys / p.rho) * math.sqrt(hy)
    if x_window is not None:
        wx = wx * np.asarray(x_window(xs), dtype=float)
    if y_window is not None:
        wy = wy * np.asarray(y_window(ys), dtype=float)

    M = np.empty((g.n, g.n), dtype=kernel_dtype(g.n))
    for r0 in range(0, g.n, _CHUNK_ROWS):
        r1 = min(r0 + _CHUNK_ROWS, g.n)
        block = np.exp(1j * lam * eval_grid(p.S, xs[r0:r1], ys))
        block *= wx[r0:r1, None]
        block *= wy[None, :]
        M[r0:r1] = block
    return DiscreteOperator(matrix=M, xs=xs, ys=ys, hx=hx, hy=hy, lam=lam)


def operator_norm(
    op: DiscreteOperator,
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
    require_converged: bool = False,
    v0: np.ndarray | None = None,
    return_vector: bool = False,
):
    """Golub-Kahan-Lanczos bidiagonalization; returns (norm estimate, steps).

    Step k costs one T and one T* product and extends T V_k = U_k B_k
    with B_k upper bidiagonal; both bases are fully reorthogonalized in
    complex128.  The estimate is the top singular value s of B_k with
    left and right singular vectors x and y.  Its Ritz vector V_k y has
    relative residual |T*T v - s^2 v| / s^2 = beta_k |x_k| / s, and the
    iteration stops once that is at most tol.  It also stops when the
    Krylov space is invariant or spans the whole domain, where the Ritz
    value is exact up to rounding.  A random start keeps the top Ritz
    value close below the top singular value with high probability
    (Kuczynski & Wozniakowski 1992).

    v0 warm-starts the iteration (the check grid of norm_at passes the
    base grid's singular vector, interpolated onto its nodes);
    return_vector appends the Ritz vector for exactly that use.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    n = op.shape[1]
    if v0 is not None:
        v = np.asarray(v0, dtype=np.complex128)
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V = [v / np.linalg.norm(v)]
    U: list[np.ndarray] = []
    alphas: list[float] = []
    betas: list[float] = []
    s_prev = s = 0.0
    for k in range(1, max_iter + 1):
        p = np.asarray(op.apply(V[-1]), dtype=np.complex128)
        if U:
            p -= betas[-1] * U[-1]
        _reorthogonalize(p, U)
        alphas.append(float(np.linalg.norm(p)))
        if alphas[-1] > 0.0:
            U.append(p / alphas[-1])
            r = op.apply_adjoint(U[-1]) - alphas[-1] * V[-1]
            _reorthogonalize(r, V)
            betas.append(float(np.linalg.norm(r)))
        else:
            # T maps span(V_k) into span(U_{k-1}): an invariant pair
            betas.append(0.0)
        B = np.diag(alphas) + np.diag(betas[:-1], 1)
        X, sv, Yt = np.linalg.svd(B)
        s_prev, s = s, float(sv[0])
        resid = betas[-1] * abs(X[-1, 0]) / s if s > 0.0 else 0.0
        if resid <= tol or betas[-1] == 0.0 or k == n:
            break
        V.append(r / betas[-1])
    else:
        if require_converged:
            raise NoConvergenceError(
                f"bidiagonalization residual {resid:.2e} above {tol:.0e} "
                f"after {max_iter} steps",
                quotients=(s_prev, s),
            )
    if not return_vector:
        return s, k
    return s, k, sum(y * v for y, v in zip(Yt[0], V))


def _reorthogonalize(w: np.ndarray, basis: list[np.ndarray]) -> None:
    """Remove, in place, w's components along an orthonormal basis.

    Two passes of modified Gram-Schmidt keep w orthogonal to working
    precision even when most of it lay in the basis.
    """
    for _ in range(2):
        for q in basis:
            w -= np.vdot(q, w) * q


def schur_bound(op: DiscreteOperator) -> float:
    """sqrt(max row mass * max column mass); ignores oscillation entirely.

    With the sqrt(h) weighting this equals the continuum
    (sup_y int |K| dx * sup_x int |K| dy)^(1/2) up to quadrature.
    """
    A = np.abs(op.matrix)
    return math.sqrt(float(A.sum(axis=1).max()) * float(A.sum(axis=0).max()))


def size_bound(delta_x: float, delta_y: float) -> float:
    """Support-size bound sqrt(dx*dy) for kernels of modulus at most one."""
    if delta_x <= 0 or delta_y <= 0:
        raise ValueError("support dimensions must be positive")
    return math.sqrt(delta_x * delta_y)


def op_vdc_bound(lam: float, mu: float) -> float:
    """Oscillation bound (lam*mu)^(-1/2) for kernels with |S''_xy| >= mu."""
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be positive")
    return (lam * mu) ** -0.5


# 1-D quadrature sizing for the scalar checks: same 4-samples-per-wavelength
# rule, but a far higher cap since the cost is linear
_SCALAR_CAP = 2**20


def _scalar_grid(phi, a: float, b: float, lam: float) -> tuple[np.ndarray, float]:
    probe = np.linspace(a, b, 4097)
    dphi = np.gradient(phi(probe), probe)
    G = float(np.max(np.abs(dphi)))
    required = (b - a) * lam * G * (2.0 / math.pi) * SAFETY
    if required > _SCALAR_CAP:
        raise ResolutionError(
            f"scalar quadrature needs n>{_SCALAR_CAP} (required {required:.0f})"
        )
    n = max(4096, _next_pow2(required))
    ts, h = _midpoints(a, b, n)
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
