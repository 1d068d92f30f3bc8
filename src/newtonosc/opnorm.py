"""Discretized oscillatory operators, their norms, and two norm bounds.

The operator acts by integrating e^{i lam S(x,y)} against a fixed smooth
tensor-product cutoff.  Midpoint sampling with symmetric sqrt(h) weights
turns it into a matrix whose spectral norm tracks the L2 operator norm
once the grid samples the oscillation finely; the sizing rule keeps
lam * |grad S| * h at most pi/4, half the guard's pi/2, where S is the
canonical phase integrate_xy(S''_xy) that PhaseSpec stores.  grid_points
is that rule's one home: the square grids of auto_grid and the block
grids of the dyadic decomposition are both sized by it.  On the square
grid, centred at the origin, a phase whose support has a parity
(parity_sectors) splits T into sectors of side n/2 that discretize
builds one at a time.

discretize evaluates each independent kernel entry once, as a real
amplitude times cos and sin of a real phase, with no complex
exponential.  A sector whose even-in-y part of S is empty (both sectors
of x*y and of every odd-odd phase) is real and is stored real, so its
norm is solved in real arithmetic.  A swap-symmetric phase,
S(x, y) = S(y, x), gives a complex symmetric kernel on the square
grid: only its upper triangle is evaluated, then mirrored, so
M == M.T exactly.

The spectral norm comes from Golub-Kahan-Lanczos bidiagonalization.
Alongside it live the two bounds the block decomposition compares
against: the support size bound and the operator oscillation bound
(lam*mu)^(-1/2).
"""

from __future__ import annotations

import functools
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
# every kernel is built in row tiles of this height; a swap-symmetric
# N x N kernel builds each tile from the diagonal rightwards, which
# evaluates 1/2 + _TILE_ROWS / (2N) of it; shorter tiles cost more in
# per-tile overhead than they save
_TILE_ROWS = 64
# the resolution guard: at most pi/2 of phase across one grid cell
_MAX_CELL_PHASE = math.pi / 2 + 1e-12
_PROBE = 64
# rows a Lanczos basis holds before it first doubles
_BASIS_ROWS = 32


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
        # a tuple, so that gradient_bound can memoize on it
        object.__setattr__(self, "domain", tuple(self.domain))
        x0, x1, y0, y1 = self.domain
        if not (x0 < x1 and y0 < y1):
            raise ValueError("domain must be a nondegenerate rectangle")

    @classmethod
    def square(cls, n: int, rho: float) -> "GridSpec":
        return cls(n=n, domain=(-rho, rho, -rho, rho))


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


@functools.lru_cache(maxsize=None)
def gradient_bound(S: BivarPoly, domain) -> float:
    """Sampled max of |dS/dx| + |dS/dy| over the rectangle.

    Memoized on (S, domain), both hashable: within a norm_at, auto_grid
    and every sector build probe the same square.
    """
    x0, x1, y0, y1 = domain
    xs, _ = _midpoints(x0, x1, _PROBE)
    ys, _ = _midpoints(y0, y1, _PROBE)
    sx = eval_grid(S.diff("x"), xs, ys)
    sy = eval_grid(S.diff("y"), xs, ys)
    return float(np.max(np.abs(sx) + np.abs(sy)))


def _next_pow2(x: float) -> int:
    """Smallest power of two >= x; 1 for x <= 1 and for x infinite.

    Exact for every float, and it returns for x = inf, so grid_points can
    size a grid before its caller checks the cap.
    """
    if not x > 1:
        return 1
    m, e = math.frexp(x)
    return 2 ** (e - 1) if m == 0.5 else 2**e


def grid_points(lam: float, G: float, domain) -> tuple[int, float]:
    """Points per side that give >= 4 samples per oscillation on domain.

    G bounds |dS/dx| + |dS/dy| there (gradient_bound).  Returns (n,
    required): required is the raw count side * |lam| * G * (2/pi) * SAFETY
    for the longer side, and n the power of two at or above it, at least
    GRID_MIN.  Callers apply their own cap.  The kernel at -lam is the
    entrywise conjugate of the one at lam, so only |lam| sizes the grid.
    """
    x0, x1, y0, y1 = domain
    side = max(x1 - x0, y1 - y0)
    required = side * abs(lam) * G * (2.0 / math.pi) * SAFETY
    return max(GRID_MIN, _next_pow2(required)), required


def auto_grid(p: PhaseSpec, lam: float) -> GridSpec:
    """Pick n so the full-square grid gives >= 4 samples per oscillation."""
    domain = (-p.rho, p.rho, -p.rho, p.rho)
    n, required = grid_points(lam, gradient_bound(p.S, domain), domain)
    if required > GRID_CAP:
        raise ResolutionError(
            f"lambda={lam} needs n>{GRID_CAP} on the full square (required {required:.0f})"
        )
    return GridSpec(n=n, domain=domain)


@dataclass
class DiscreteOperator:
    """Kernel matrix with symmetric sqrt(h) weights; spectral norm ~ L2 norm.

    apply/apply_adjoint work on coefficient vectors v_b ~ f(y_b)*sqrt(h_y),
    so <Tf, g> is the plain inner product of the mapped vectors.  A real
    matrix maps a complex vector to its exact complex image.
    """

    matrix: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape

    def _product(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        M, v = self.matrix, np.asarray(v)
        if np.iscomplexobj(v) and not np.iscomplexobj(M):
            # a real kernel takes the two parts apart, never a complex copy
            return self._product(v.real, adjoint) + 1j * self._product(v.imag, adjoint)
        # match the kernel dtype, else matmul upcast-copies the whole matrix
        v = v.astype(M.dtype, copy=False)
        # conj(M^T) @ v without materializing the conjugate matrix
        return np.conj(np.conj(v) @ M) if adjoint else M @ v

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._product(v, adjoint=False)

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        return self._product(v, adjoint=True)


def kernel_dtype(n: int, real: bool = False):
    """complex128 up to the crossover size, complex64 above it.

    A real kernel (one whose even-in-y part E is empty) is stored as
    float64 up to the crossover and float32 above it.  n is the side of
    the stored matrix, not of the grid: a parity sector of the n-point
    grid stores n/2 per side, so n = 4096 sectors are complex128, or
    float64 when real.
    """
    if real:
        return np.float64 if n <= COMPLEX64_ABOVE else np.float32
    return np.complex128 if n <= COMPLEX64_ABOVE else np.complex64


def parity_sectors(S: BivarPoly) -> tuple:
    """The parity sectors T splits into on a square grid centred at 0.

    Reads the support of the canonical phase integrate_xy(S''_xy), the
    terms c x^a y^b of S with a, b >= 1.  When every a + b is even,
    K(-x, -y) = K(x, y): T maps even inputs to even outputs and odd to
    odd, and ||T|| is the larger of the two sector norms, so the result
    is (1, -1).  When every a and b is even, the odd sector vanishes and
    the result is (1,).  Otherwise T has no such symmetry: (None,), the
    full kernel.
    """
    support = [(a, b) for a, b in S.terms if a and b]
    if any((a + b) % 2 for a, b in support):
        return (None,)
    if all(a % 2 == 0 for a, _ in support):
        return (1,)
    return (1, -1)


def _swap_symmetric(S: BivarPoly) -> bool:
    """True when S(x, y) = S(y, x) term by term, exactly."""
    return all(S.terms.get((b, a)) == c for (a, b), c in S.terms.items())


def discretize(
    p: PhaseSpec,
    lam: float,
    g: GridSpec,
    x_window=None,
    y_window=None,
    sector=None,
) -> DiscreteOperator:
    """Sample e^{i lam S} chi on the grid with midpoint weights.

    Optional separable window callables multiply the cutoff; they carry
    the dyadic masks (and quadrant indicators) of the block decomposition.
    A NaN lam fails the resolution guard like an unresolved one.

    sector (one of parity_sectors(p.S), on an even grid centred at the
    origin, without windows) builds that sector of T instead, on the
    nodes x, y > 0 only.  With E and O the even-in-y and odd-in-y terms
    of S, sector 1 is 2 w_x w_y e^{i lam E} cos(lam O) and sector -1 is
    2 w_x w_y e^{i lam E} sin(lam O): K(x, y) +- K(x, -y) up to the unit
    factor i, with the mirrored halves folded in.  Its spectral norm is
    the norm of T on the even or odd inputs.  The resolution guard
    still reads the full grid.

    Rows are built in tiles as amp * cos(lam E) + i amp * sin(lam E),
    amp the weight product times the sector's fold of lam O; with E
    empty the kernel is amp itself, stored as a real matrix
    (kernel_dtype), and no cos or sin of E is taken.
    A swap-symmetric phase (S(x, y) = S(y, x) as exact coefficients) on
    a grid with the same nodes in x and y and no windows builds each
    tile only from the diagonal rightwards and mirrors it, so the result
    is exactly symmetric and about half of its entries are evaluated.
    """
    x0, x1, y0, y1 = g.domain
    # |lam| * |grad S| * h: the largest phase step across one cell
    h = max((x1 - x0) / g.n, (y1 - y0) / g.n)
    step = abs(lam) * gradient_bound(p.S, g.domain) * h
    if not step <= _MAX_CELL_PHASE:
        raise ResolutionError(
            f"grid n={g.n} does not resolve lambda={lam} (lam*G*h={step:.3f})"
        )
    xs, hx = _midpoints(x0, x1, g.n)
    ys, hy = _midpoints(y0, y1, g.n)
    wx = bump(xs / p.rho) * math.sqrt(hx)
    wy = bump(ys / p.rho) * math.sqrt(hy)
    if x_window is not None:
        wx = wx * np.asarray(x_window(xs), dtype=float)
    if y_window is not None:
        wy = wy * np.asarray(y_window(ys), dtype=float)
    even, odd = p.S, None
    if sector is not None:
        if (
            sector not in parity_sectors(p.S)
            or g.n % 2
            or (x0, y0) != (-x1, -y1)
            or x_window is not None
            or y_window is not None
        ):
            raise ValueError(
                f"sector {sector} needs a phase with that parity and an even, "
                "unwindowed grid centred at the origin"
            )
        half = g.n // 2
        xs, ys, wx, wy = xs[half:], ys[half:], 2.0 * wx[half:], wy[half:]
        even = BivarPoly({k: c for k, c in p.S.terms.items() if k[1] % 2 == 0})
        odd = BivarPoly({k: c for k, c in p.S.terms.items() if k[1] % 2})
        fold = np.cos if sector == 1 else np.sin

    symmetric = (
        (x0, x1) == (y0, y1)
        and x_window is None
        and y_window is None
        and _swap_symmetric(p.S)
    )
    M = np.empty((xs.size, ys.size), dtype=kernel_dtype(xs.size, real=not even))
    for r0 in range(0, xs.size, _TILE_ROWS):
        r1 = min(r0 + _TILE_ROWS, xs.size)
        c0 = r0 if symmetric else 0
        amp = np.multiply.outer(wx[r0:r1], wy[c0:])
        if odd:
            folded = eval_grid(odd, xs[r0:r1], ys[c0:])
            folded *= lam
            amp *= fold(folded, out=folded)
        block = M[r0:r1, c0:]
        if even:
            theta = eval_grid(even, xs[r0:r1], ys[c0:])
            theta *= lam
            np.multiply(amp, np.cos(theta), out=block.real)
            np.multiply(amp, np.sin(theta, out=theta), out=block.imag)
        else:
            block[...] = amp
        if symmetric:
            tile = M[r0:r1, r0:r1]
            below = np.tril_indices(r1 - r0, -1)
            tile[below] = tile.T[below]
            M[r1:, r0:r1] = M[r0:r1, r1:].T
    return DiscreteOperator(matrix=M, xs=xs, ys=ys)


def operator_norm(
    op: DiscreteOperator,
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
    v0: np.ndarray | None = None,
):
    """Golub-Kahan-Lanczos bidiagonalization; returns (norm, steps, vector).

    Step k costs one T and one T* product and extends T V_k = U_k B_k
    with B_k upper bidiagonal; both bases are fully reorthogonalized
    (_Basis).  The iteration runs in float64 when the matrix and the
    start are real and in complex128 otherwise; a real matrix starts
    from a real Gaussian vector, so the iteration and its Ritz vector
    stay real.  The estimate is the top singular value s of B_k with
    left and right singular vectors x and y.  Its Ritz vector V_k y has
    relative residual |T*T v - s^2 v| / s^2 = beta_k |x_k| / s, and the
    iteration stops once that is at most tol.  It also stops when the
    Krylov space is invariant or spans the whole domain, where the Ritz
    value is exact up to rounding.  A random start keeps the top Ritz
    value close below the top singular value with high probability
    (Kuczynski & Wozniakowski 1992).  Reaching max_iter without any of
    these raises NoConvergenceError.

    The vector is the unit Ritz vector V_k y, the estimate of the top
    right singular vector.  v0 warm-starts the iteration: the check grid
    of norm_at passes the other grid's vector, interpolated onto its nodes.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    n = op.shape[1]
    dtype = np.result_type(op.matrix.dtype, np.float64)
    if v0 is not None:
        v = np.asarray(v0)
        dtype = np.result_type(dtype, v)
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        if dtype.kind == "c":
            v = v + 1j * rng.standard_normal(n)
    V, U = _Basis(n, dtype), _Basis(op.shape[0], dtype)
    V.append(v / np.linalg.norm(v))
    alphas: list[float] = []
    betas: list[float] = []
    s_prev = s = 0.0
    for k in range(1, max_iter + 1):
        p = np.asarray(op.apply(V.last), dtype=dtype)
        if U.size:
            p -= betas[-1] * U.last
        U.orthogonalize(p)
        alphas.append(float(np.linalg.norm(p)))
        if alphas[-1] > 0.0:
            U.append(p / alphas[-1])
            r = op.apply_adjoint(U.last) - alphas[-1] * V.last
            V.orthogonalize(r)
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
        raise NoConvergenceError(
            f"bidiagonalization residual {resid:.2e} above {tol:.0e} "
            f"after {max_iter} steps",
            quotients=(s_prev, s),
        )
    return s, k, Yt[0] @ V.vectors


class _Basis:
    """Orthonormal vectors, the rows of one array that is filled in place.

    The array doubles when it is full, so an append copies one vector
    (amortized) and orthogonalize works on one contiguous block.
    """

    def __init__(self, n: int, dtype):
        self._rows = np.empty((_BASIS_ROWS, n), dtype=dtype)
        self.size = 0

    @property
    def vectors(self) -> np.ndarray:
        return self._rows[: self.size]

    @property
    def last(self) -> np.ndarray:
        return self._rows[self.size - 1]

    def append(self, q: np.ndarray) -> None:
        if self.size == len(self._rows):
            grown = np.empty((2 * self.size, self._rows.shape[1]), dtype=self._rows.dtype)
            grown[: self.size] = self._rows
            self._rows = grown
        self._rows[self.size] = q
        self.size += 1

    def orthogonalize(self, w: np.ndarray) -> None:
        """Remove, in place, w's components along the basis.

        Two passes of classical Gram-Schmidt, each two matrix-vector
        products, keep w orthogonal to working precision even when most
        of it lay in the basis ("twice is enough": Giraud, Langou &
        Rozloznik 2005).
        """
        if self.size:
            Q = self.vectors
            for _ in range(2):
                # conj(Q conj(w)) holds the coefficients <q_j, w>
                w -= np.conj(Q @ np.conj(w)) @ Q


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
