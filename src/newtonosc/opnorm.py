"""Discretized oscillatory operators and their norms.

The operator acts by integrating e^{i lam S(x,y)} against a fixed smooth
tensor-product cutoff.  Midpoint sampling with symmetric sqrt(h) weights
turns it into a matrix whose spectral norm tracks the L2 operator norm
once the grid samples the oscillation finely; the sizing rule keeps
lam * G * h at most pi/4, half the guard's pi/2, G = gradient_bound a
closed-form bound on |grad S| for the canonical phase integrate_xy(S''_xy)
that PhaseSpec stores.  grid_points
is that rule's one home: the square grids of auto_grid and the block
grids of the dyadic decomposition are both sized by it.  On the square
grid, centred at the origin, a phase whose support has a parity
(parity_sectors) splits T into sectors of side n/2 that discretize
builds one at a time.

discretize evaluates each independent kernel entry once, as a real
amplitude times cos and sin of a real phase, with no complex
exponential.  A sector whose even-in-y part of S is empty (both sectors
of x*y and of every odd-odd phase) is real and is stored as float64, so
its norm is solved in real arithmetic; every other kernel is complex128.
A swap-symmetric phase, S(x, y) = S(y, x), gives a complex symmetric
kernel on the square grid: only its upper triangle is evaluated, then
mirrored, so M == M.T exactly.

The spectral norm comes from Golub-Kahan-Lanczos bidiagonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NoConvergenceError, ResolutionError
from .polycore import BivarPoly, integrate_xy, mixed_derivative

# grid sizing: hard cap on the base grid and oversampling safety factor
GRID_CAP = 4096
GRID_MIN = 16
SAFETY = 2.0
# every kernel is built in row tiles of this height; a swap-symmetric
# N x N kernel builds each tile from the diagonal rightwards, which
# evaluates 1/2 + _TILE_ROWS / (2N) of it; shorter tiles cost more in
# per-tile overhead than they save
_TILE_ROWS = 64
# the resolution guard: at most pi/2 of phase across one grid cell
_MAX_CELL_PHASE = math.pi / 2 + 1e-12


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
    A canonical coefficient beyond the double range, which no kernel
    build can convert, is refused here (DomainError).
    """

    S: BivarPoly
    rho: float = 0.5

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValueError("cutoff radius must lie in (0, 1]")
        S = integrate_xy(mixed_derivative(self.S))
        for key, c in S.terms.items():
            if abs(c) > np.finfo(float).max:
                raise DomainError(
                    f"the coefficient of {BivarPoly({key: 1}).render()} in the phase "
                    "is beyond the double range"
                )
        object.__setattr__(self, "S", S)


@dataclass(frozen=True)
class GridSpec:
    n: int
    domain: tuple[float, float, float, float]

    def __post_init__(self):
        if self.n < GRID_MIN:
            raise ValueError(f"grid needs at least {GRID_MIN} points per side")
        # a tuple, so that a list domain and a tuple domain make equal records
        object.__setattr__(self, "domain", tuple(self.domain))
        x0, x1, y0, y1 = self.domain
        if not (x0 < x1 and y0 < y1 and all(map(math.isfinite, self.domain))):
            raise ValueError("domain must be a finite, nondegenerate rectangle")

    @classmethod
    def square(cls, n: int, rho: float) -> "GridSpec":
        return cls(n=n, domain=(-rho, rho, -rho, rho))


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


def eval_grid(poly: BivarPoly, xs, ys) -> np.ndarray:
    """Vectorized float evaluation on a tensor grid: out[i, j] = p(xs[i], ys[j])."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((xs.size, ys.size))
    for (a, b), c in poly.terms.items():
        out += float(c) * np.outer(xs**a, ys**b)
    return out


def gradient_bound(S: BivarPoly, domain) -> float:
    """A bound on |dS/dx| + |dS/dy| over the closed rectangle, never below its max.

    The sum of |c| X^a Y^b over the terms c x^a y^b of S_x and S_y, with X
    and Y the largest |x| and |y| there: the max when neither derivative's
    terms cancel at some corner (+-X, +-Y), as on every reference phase.
    Exact in Fractions of S's coefficients and float ends, rounded up once;
    inf when the sum is beyond the largest double, which still bounds it.
    """
    x0, x1, y0, y1 = (Fraction(float(v)) for v in domain)
    X, Y = max(abs(x0), abs(x1)), max(abs(y0), abs(y1))
    total = sum(abs(c) * X**a * Y**b for v in "xy" for (a, b), c in S.diff(v).terms.items())
    if total > np.finfo(float).max:
        return math.inf
    G = float(total)
    return G if Fraction(G) >= total else math.nextafter(G, math.inf)


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

    G is at least the max of |dS/dx| + |dS/dy| there (gradient_bound).  Returns (n,
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
    so <Tf, g> is the plain inner product of the mapped vectors.  The
    solver hands a real matrix only real vectors: a complex vector would
    make numpy cast the whole matrix to a complex copy first.
    """

    matrix: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        # conj(M^T) @ v without materializing the conjugate matrix
        return np.conj(np.conj(v) @ self.matrix)


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
    empty the kernel is amp itself, stored as a float64 matrix, and no
    cos or sin of E is taken; otherwise it is stored as complex128.
    A swap-symmetric phase (S(x, y) = S(y, x) as exact coefficients) on
    a grid with the same nodes in x and y and no windows builds each
    tile only from the diagonal rightwards and mirrors it, so the result
    is exactly symmetric and about half of its entries are evaluated.
    """
    x0, x1, y0, y1 = g.domain
    xs, hx = _midpoints(x0, x1, g.n)
    ys, hy = _midpoints(y0, y1, g.n)
    # |lam| * |grad S| * h: the largest phase step across one cell
    h = max(hx, hy)
    step = abs(lam) * gradient_bound(p.S, g.domain) * h
    if not step <= _MAX_CELL_PHASE:
        raise ResolutionError(
            f"grid n={g.n} does not resolve lambda={lam} (lam*G*h={step:.3f})"
        )
    wx = bump(xs / p.rho) * math.sqrt(hx)
    wy = bump(ys / p.rho) * math.sqrt(hy)
    if x_window is not None:
        wx = wx * np.asarray(x_window(xs), dtype=float)
    if y_window is not None:
        wy = wy * np.asarray(y_window(ys), dtype=float)
    terms = p.S.terms
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
        even = BivarPoly({k: c for k, c in terms.items() if k[1] % 2 == 0})
        odd = BivarPoly({k: c for k, c in terms.items() if k[1] % 2})
        fold = np.cos if sector == 1 else np.sin

    symmetric = (
        (x0, x1) == (y0, y1)
        and x_window is None
        and y_window is None
        and all(terms.get((b, a)) == c for (a, b), c in terms.items())
    )
    M = np.empty((xs.size, ys.size), dtype=np.complex128 if even else np.float64)
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
    return DiscreteOperator(matrix=M)


def operator_norm(
    op: DiscreteOperator,
    tol: float = 1e-6,
    max_iter: int = 500,
    seed: int = 0,
    v0: np.ndarray | None = None,
):
    """Golub-Kahan-Lanczos bidiagonalization; returns (norm, steps, vector).

    Step k costs one T and one T* product and extends T V_k = U_k B_k
    with B_k upper bidiagonal.  Each basis is one array of
    min(max_iter, n) rows, allocated once, whose row k - 1 is written at
    step k; both are fully reorthogonalized (_orthogonalize).  The
    iteration runs in float64 when the matrix and the start are real and
    in complex128 otherwise; a real matrix starts from a real Gaussian
    vector, so the iteration and its Ritz vector stay real.  The
    estimate is the top singular value s of B_k with left and right
    singular vectors x and y.  Its Ritz vector V_k y has relative
    residual |T*T v - s^2 v| / s^2 = beta_k |x_k| / s, and the
    iteration stops once that is at most tol.  It also stops when the
    Krylov space is invariant or spans the whole domain, where the Ritz
    value is exact up to rounding.  A random start keeps the top Ritz
    value close below the top singular value with high probability
    (Kuczynski & Wozniakowski 1992).  Reaching max_iter without any of
    these raises NoConvergenceError.

    The vector is the unit Ritz vector V_k y, the estimate of the top
    right singular vector.  v0 warm-starts the iteration: norm_at solves
    its check grid cold from seed, then passes that grid's vector,
    repeated twice, to the same sector of the grid twice as fine.
    """
    if not tol > 0:
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
    V = np.empty((min(max_iter, n), n), dtype=dtype)
    U = np.empty((len(V), op.shape[0]), dtype=dtype)
    V[0] = v / np.linalg.norm(v)
    alphas: list[float] = []
    betas: list[float] = []
    s_prev = s = 0.0
    for k in range(1, max_iter + 1):
        if k > 1:
            V[k - 1] = r / betas[-1]
        p = op.apply(V[k - 1])
        if k > 1:
            p -= betas[-1] * U[k - 2]
        _orthogonalize(U[: k - 1], p)
        alphas.append(float(np.linalg.norm(p)))
        if k == 1 and alphas[0] < 2.0**-500:
            # the norms square entries, underflowing below ~1e-154: solve M * 2^shift
            shift = min(-math.frexp(float(np.max(np.abs(op.matrix))))[1], 1023)
            if shift > 500:
                lifted = DiscreteOperator(op.matrix * 2.0**shift)
                s, k, vec = operator_norm(lifted, tol, max_iter, seed, v0)
                return math.ldexp(s, -shift), k, vec
        if alphas[-1] > 0.0:
            U[k - 1] = p / alphas[-1]
            r = op.apply_adjoint(U[k - 1]) - alphas[-1] * V[k - 1]
            _orthogonalize(V[:k], r)
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
    else:
        raise NoConvergenceError(
            f"bidiagonalization residual {resid:.2e} above {tol:.0e} "
            f"after {max_iter} steps",
            quotients=(s_prev, s),
        )
    return s, k, Yt[0] @ V[:k]


def _orthogonalize(Q: np.ndarray, w: np.ndarray) -> None:
    """Remove, in place, w's components along the orthonormal rows of Q.

    Two passes of classical Gram-Schmidt, each two matrix-vector
    products, keep w orthogonal to working precision even when most
    of it lay in the span of Q ("twice is enough": Giraud, Langou &
    Rozloznik 2005).
    """
    for _ in range(2):
        # conj(Q conj(w)) holds the coefficients <q_j, w>
        w -= np.conj(Q @ np.conj(w)) @ Q
