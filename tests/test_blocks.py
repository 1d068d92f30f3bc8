"""Dyadic partition, block classification, and block-level bound checks."""

import math

import numpy as np
import pytest

from newtonosc.blocks import (
    _SAMPLE,
    BlockEstimate,
    Region,
    block_rect,
    chi,
    _block_operator,
    classify_block,
    empirical_range,
    first_block_scale,
    measure_block,
    mu_for_block,
    theta,
    verify_blocks,
)
from newtonosc.errors import ResolutionError, WrongRegionError
from newtonosc.newton import NewtonPolygon, build_polygon
from newtonosc.opnorm import PhaseSpec, gradient_bound, grid_points, size_bound
from newtonosc.polycore import BivarPoly, eval_grid, integrate_xy, parse_poly


def polygon(s: str):
    return build_polygon(parse_poly(s))


def derivative_control(
    F: BivarPoly,
    polygon: NewtonPolygon,
    D: float = 3.0,
    j_max: int = 6,
    j_min: int = 1,
):
    """Sampled |dF/dy| / (mu*2^k) and |d2F/dy2| / (mu*4^k) per gap block.

    The claim behind the oscillation bound is that these stay O(1)
    uniformly over gap blocks; callers assert stability of the maxima.
    """
    Fy = F.diff("y")
    Fyy = Fy.diff("y")
    rows = []
    for j in range(j_min, j_max + 1):
        for k in range(j_min, j_max + 1):
            region = classify_block(j, k, polygon, D)
            if region.kind != "Gap":
                continue
            mu = mu_for_block(j, k, region, polygon)
            x0, x1, y0, y1 = block_rect(j, k)
            xs = np.linspace(x0, x1, _SAMPLE)
            ys = np.linspace(y0, y1, _SAMPLE)
            c1 = float(np.max(np.abs(eval_grid(Fy, xs, ys)))) / (mu * 2.0**k)
            c2 = float(np.max(np.abs(eval_grid(Fyy, xs, ys)))) / (mu * 2.0 ** (2 * k))
            rows.append((j, k, c1, c2))
    return rows


# ---------------------------------------------------------------------------
# transition function and partition of unity


class TestTheta:
    def test_plateaus(self):
        # identically 1 below the transition, identically 0 above it
        assert theta(np.array([-1.0, 0.0, 0.5, 1.0])).tolist() == [1, 1, 1, 1]
        assert theta(np.array([2.0, 3.0, 100.0])).tolist() == [0, 0, 0]

    def test_strictly_between_on_transition(self):
        # stay away from the endpoints where theta flattens to machine 0/1
        t = np.linspace(1.2, 1.8, 50)
        v = theta(t)
        assert np.all((v > 0) & (v < 1))
        # monotone decreasing across the transition
        assert np.all(np.diff(v) < 0)

    def test_scalar_input(self):
        assert theta(0.25) == 1.0
        assert theta(4.0) == 0.0
        assert 0 < theta(1.5) < 1

    def test_smooth_at_junctions(self):
        # values approach the plateaus to high order; crude finite check
        assert theta(1.0 + 1e-4) > 1 - 1e-6
        assert theta(2.0 - 1e-4) < 1e-6


class TestChi:
    def test_support(self):
        j = 3
        t = np.array([2.0 ** (-j - 1) * 0.99, 2.0 ** (-j + 1) * 1.01, 0.0, -0.5])
        assert np.all(chi(j, t) == 0)

    def test_peak_value_one(self):
        # at t = 2^-j both transitions sit on their plateaus
        for j in range(0, 8):
            assert chi(j, 2.0**-j) == pytest.approx(1.0, abs=1e-15)

    def test_adjacent_overlap_only(self):
        t = np.geomspace(2.0**-9, 0.9, 400)
        for j in range(2, 8):
            inside = chi(j, t) > 0
            for other in range(0, 10):
                if abs(other - j) > 1:
                    assert np.all(chi(other, t)[inside] == 0)

    def test_partition_sums_to_one(self):
        t = np.geomspace(2.0**-9, 2.0**-3, 500)
        total = sum(chi(j, t) for j in range(2, 10))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_telescoped_total_matches_sum(self):
        # the rings j = 1..8 sum to theta(2^1 t) - theta(2^9 t)
        t = np.geomspace(2.0**-10, 2.0, 300)
        s = sum(chi(j, t) for j in range(1, 9))
        assert np.max(np.abs(theta(2 * t) - theta(512 * t) - s)) < 1e-12

    def test_total_vanishes_at_origin(self):
        t = np.array([0.0, -1.0, 2.0**-12])
        assert sum(chi(j, t) for j in range(1, 9)).tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# block classification


class TestClassify:
    def test_circle_gap_and_near_edge(self):
        g = polygon("x^2 + y^2")
        assert str(classify_block(5, 10, g)) == "Gap(1)"
        assert str(classify_block(5, 5, g)) == "NearEdge(1)"
        assert str(classify_block(10, 5, g)) == "Gap(0)"

    def test_circle_has_no_axis_regions(self):
        # both offsets vanish, so neither axis band can trigger
        g = polygon("x^2 + y^2")
        for j, k in [(20, 1), (1, 20), (30, 2), (2, 30)]:
            assert classify_block(j, k, g).kind == "Gap"

    def test_monomial_is_all_vertex_gap(self):
        g = polygon("x*y")
        r = classify_block(4, 9, g)
        assert r.kind == "Gap" and r.nu is None
        assert str(r) == "Gap(vertex)"

    def test_near_edge_band_width(self):
        g = polygon("x^2 + y^2")  # single edge, slope 1
        assert classify_block(7, 7 + 2, g).kind == "NearEdge"
        assert classify_block(7, 7 + 3, g).kind == "Gap"
        assert classify_block(7, 7 - 2, g, D=3.0).kind == "NearEdge"
        assert classify_block(7, 7 + 3, g, D=4.0).kind == "NearEdge"

    def test_x_offset_axis_band(self):
        # F = x(y-x)^2: offset A=1 so small-k blocks fall in the y-axis band
        g = polygon("x*(y - x)^2")
        assert str(classify_block(4, 4, g)) == "NearEdge(1)"
        assert str(classify_block(8, 1, g)) == "AxisY"

    def test_y_offset_axis_band(self):
        # F = y(x-y)^2: offset B=1, single edge slope 1, doubled slope 2
        g = polygon("y*(x - y)^2")
        assert g.B == 1 and g.A == 0
        assert str(classify_block(2, 8, g)) == "AxisX"
        assert classify_block(2, 6, g).kind != "AxisX"

    def test_widening_band_transitions(self):
        # larger D grows the near-edge bands and shrinks the axis bands,
        # so blocks may move Gap/Axis -> NearEdge or Axis -> Gap, never
        # out of NearEdge and never Gap -> Axis
        rng = np.random.default_rng(4)
        for _ in range(60):
            pts = rng.integers(0, 7, size=(rng.integers(1, 5), 2))
            poly = " + ".join(f"x^{a}*y^{b}" for a, b in pts)
            g = polygon(poly)
            for j in range(1, 9):
                for k in range(1, 9):
                    narrow = classify_block(j, k, g, D=3.0)
                    wide = classify_block(j, k, g, D=5.0)
                    if narrow.kind == "NearEdge":
                        assert wide.kind == "NearEdge"
                        # a wider band can only match an earlier edge
                        assert wide.nu <= narrow.nu
                    elif narrow.kind == "Gap":
                        assert wide.kind in ("Gap", "NearEdge")

    def test_region_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Region("Edge")


# ---------------------------------------------------------------------------
# per-block size parameter


class TestMu:
    def test_frozen_values(self):
        g = polygon("x^2 + y^2")
        r = classify_block(5, 10, g)
        assert mu_for_block(5, 10, r, g) == pytest.approx(2.0**-10)
        r = classify_block(10, 5, g)
        assert mu_for_block(10, 5, r, g) == pytest.approx(2.0**-10)

    def test_monomial_mu(self):
        g = polygon("x*y")
        r = classify_block(3, 4, g)
        assert mu_for_block(3, 4, r, g) == pytest.approx(2.0**-7)

    def test_rejects_non_gap(self):
        g = polygon("x^2 + y^2")
        r = classify_block(5, 5, g)
        assert r.kind == "NearEdge"
        with pytest.raises(WrongRegionError):
            mu_for_block(5, 5, r, g)

    def test_matches_empirical_magnitude(self):
        # on gap blocks mu tracks |F| within the dominance margin
        cases = ["x^2 + y^2", "x*y", "x*(y - x)^2"]
        for s in cases:
            f = parse_poly(s)
            g = build_polygon(f)
            margin = 2.0 ** (g.A + g.B + 4)
            for j in range(1, 9):
                for k in range(1, 9):
                    r = classify_block(j, k, g)
                    if r.kind != "Gap":
                        continue
                    mu = mu_for_block(j, k, r, g)
                    lo, hi = empirical_range(f, j, k)
                    assert lo >= mu / margin, (s, j, k)
                    assert hi <= mu * margin, (s, j, k)

    def test_circle_empirical_factors(self):
        lo, hi = empirical_range(parse_poly("x^2 + y^2"), 5, 10)
        mu = 2.0**-10
        assert lo / mu == pytest.approx(0.25, rel=0.05)
        assert hi / mu == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# measured block norms against the two bounds


class TestBlockRect:
    def test_rect(self):
        assert block_rect(2, 3) == (2.0**-3, 2.0**-1, 2.0**-4, 2.0**-2)

    def test_first_scale(self):
        assert first_block_scale(0.5) == 1
        assert first_block_scale(1.0) == 0
        assert first_block_scale(0.25) == 2


class TestBlockGrid:
    PHASE = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)

    def test_pinned_sizes(self):
        # opnorm.grid_points on the block rectangle, with G from
        # gradient_bound there; GRID_MIN at lambda 0
        pinned = {
            (1, 1, 0.0): 16,
            (2, 1, 256.0): 128,
            (1, 1, 256.0): 256,
            (1, 3, 2048.0): 512,
            (4, 6, 2048.0): 16,
        }
        for (j, k, lam), n in pinned.items():
            op = _block_operator(self.PHASE, lam, j, k)
            assert op.shape == (n, n), (j, k, lam)

    def test_over_cap_names_the_block_grid(self):
        with pytest.raises(ResolutionError, match=r"^block \(1,2\) needs n=8192 at lambda=16384\.0$"):
            _block_operator(self.PHASE, 2.0**14, 1, 2)


class TestVerifyBlocks:
    def test_monomial_phase_blocks(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        ests, summary = verify_blocks(p, 2.0**8, D=3.0, j_max=6)
        assert len(ests) == 36
        assert all(str(e.region) == "Gap(vertex)" for e in ests)
        assert summary["violations"] == []
        assert summary["resolution_failures"] == []
        # oscillatory bound is comfortably ahead of the measurement
        assert summary["worst_ratio"]["Gap"] == pytest.approx(0.405, abs=0.1)

    def test_band_width_stability(self):
        # no compact edges here, so the band width cannot matter at all
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        worst = []
        for d in (3.0, 4.0, 5.0):
            _, summary = verify_blocks(p, 2.0**8, D=d, j_max=5)
            worst.append(summary["worst_ratio"]["Gap"])
        assert max(worst) == min(worst)

    def test_edge_phase_blocks(self):
        f = parse_poly("x^2 + y^2")
        p = PhaseSpec(S=integrate_xy(f), rho=0.5)
        ests, summary = verify_blocks(p, 2.0**8, j_max=5)
        assert summary["violations"] == []
        kinds = {e.region.kind for e in ests}
        assert kinds == {"Gap", "NearEdge"}
        assert summary["worst_ratio"]["Gap"] < 1.0
        assert summary["worst_ratio"]["NearEdge"] < 1.0

    def test_static_phase_uses_size_bound(self):
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        ests, summary = verify_blocks(p, 0.0, j_max=4)
        assert all(np.isinf(e.osc) for e in ests)
        assert summary["violations"] == []
        for e in ests:
            assert e.measured <= e.size * 1.01

    def test_unresolvable_block_recorded_not_raised(self):
        f = parse_poly("x^2 + y^2")
        p = PhaseSpec(S=integrate_xy(f), rho=0.5)
        ests, summary = verify_blocks(p, 2.0**30, j_max=1)
        assert ests == []
        failures = summary["resolution_failures"]
        assert len(failures) == 1 and failures[0][:2] == (1, 1)

    def test_estimate_row(self):
        e = BlockEstimate(j=2, k=3, mu=0.5, measured=0.125, osc=np.inf, region=Region("Gap", 1))
        row = e.to_row()
        assert row["region"] == "Gap(1)"
        assert row["osc_bound"] == ""
        # rings [1/8, 1/2] and [1/16, 1/4]: sqrt(3/8 * 3/16)
        assert e.bound == row["size_bound"] == pytest.approx(math.sqrt(9 / 128))
        assert e.ratio == pytest.approx(0.125 / math.sqrt(9 / 128))

    def test_measured_below_size_bound(self):
        # size bound is oscillation-blind, so it must hold at any lambda
        p = PhaseSpec(S=parse_poly("x^2*y^2/4"), rho=0.5)
        for lam in (0.0, 2.0**6, 2.0**9):
            ests, _ = verify_blocks(p, lam, j_max=4)
            for e in ests:
                assert e.measured <= e.size * 1.01


class TestDenseReference:
    # blocks under 256 points were solved by dense SVD; the Lanczos
    # solve that replaced it must agree to criterion 8's 1e-8
    @pytest.mark.parametrize(
        "text, lam, j_max",
        [("x^2*y^2/4", 2048.0, 8), ("x^3*y/3 + x*y^2", 256.0, 5)],
    )
    def test_small_blocks_match_dense_svd(self, text, lam, j_max):
        p = PhaseSpec(S=parse_poly(text), rho=0.5)
        sizes = set()
        for j in range(first_block_scale(p.rho), j_max + 1):
            for k in range(first_block_scale(p.rho), j_max + 1):
                rect = block_rect(j, k)
                n, _ = grid_points(lam, gradient_bound(p.S, rect), rect)
                if n >= 256:
                    continue
                sizes.add(n)
                dense = float(np.linalg.norm(_block_operator(p, lam, j, k).matrix, 2))
                got = measure_block(p, lam, j, k)
                assert abs(got - dense) <= 1e-8 * dense, (j, k, n)
        assert min(sizes) == 16 and len(sizes) >= 2


class TestBlockInvariance:
    def test_sign_pure_terms_and_swap(self):
        # -S conjugates a block kernel and g(x) + h(y) scales it by
        # unimodular diagonals; swapping x and y transposes block (j, k)
        # into block (k, j) of the swapped phase
        S = parse_poly("x^3*y/3 + x*y^2")
        swapped = BivarPoly({(b, a): c for (a, b), c in S.terms.items()})
        lam = 2.0**8
        p = PhaseSpec(S=S, rho=0.5)
        for j, k in ((1, 2), (2, 1), (1, 4), (3, 2)):
            ref = measure_block(p, lam, j, k)
            for other, jk in (
                (-S, (j, k)),
                (S + parse_poly("x^4 - 5*y^3 + 2"), (j, k)),
                (swapped, (k, j)),
            ):
                got = measure_block(PhaseSpec(S=other, rho=0.5), lam, *jk)
                assert got == pytest.approx(ref, rel=1e-10)


class TestDerivativeControl:
    def test_monomial_constants(self):
        rows = derivative_control(parse_poly("x*y"), polygon("x*y"), j_max=6)
        assert rows
        for _, _, c1, c2 in rows:
            assert c1 == pytest.approx(2.0, rel=1e-12)
            assert c2 == 0.0

    def test_circle_constants_bounded(self):
        rows = derivative_control(
            parse_poly("x^2 + y^2"), polygon("x^2 + y^2"), j_max=8
        )
        c1s = [r[2] for r in rows]
        c2s = [r[3] for r in rows]
        assert max(c1s) == pytest.approx(4.0, rel=0.01)
        assert max(c2s) == pytest.approx(2.0, rel=0.01)
        assert max(c1s) <= 8.0 and max(c2s) <= 8.0
