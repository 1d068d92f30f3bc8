"""Polygon construction against an independent supporting-line oracle."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from newtonosc import newton
from newtonosc.errors import EmptyPolygonError
from newtonosc.newton import (
    DegeneracyKind,
    analyze_decay,
    build_polygon,
    decay_rate,
    hull_edges,
    lower_hull,
)
from newtonosc.polycore import BivarPoly, parse_poly

F = Fraction


def oracle_hull(support):
    """Vertices and edges via exhaustive supporting directions.

    A support point is a polygon vertex iff it uniquely minimizes
    u*a + v*b for some positive direction (u, v); a direction whose
    minimizer set has two or more points exposes the edge with
    gamma = v/u.  Direction components up to 2*maxdeg + 2 cover every
    edge slope and every Farey mediant between adjacent slopes.
    """
    pts = sorted(support)
    G = max(max(a for a, b in pts), max(b for a, b in pts), 1)
    D = 2 * G + 2
    vertices = set()
    edges = {}
    for u in range(1, D + 1):
        for v in range(1, D + 1):
            best = min(u * a + v * b for a, b in pts)
            mins = [p for p in pts if u * p[0] + v * p[1] == best]
            if len(mins) == 1:
                vertices.add(mins[0])
            else:
                upper = min(mins)
                lower = max(mins)
                edges[F(v, u)] = (upper, lower)
    return vertices, edges


def random_support(rng, max_deg=6, max_pts=8):
    count = rng.randrange(1, max_pts + 1)
    pts = {(rng.randrange(0, max_deg + 1), rng.randrange(0, max_deg + 1)) for _ in range(count)}
    return pts


class TestBuildPolygon:
    def test_zero_raises(self):
        with pytest.raises(EmptyPolygonError):
            build_polygon(BivarPoly())

    def test_constant(self):
        poly = build_polygon(parse_poly("1"))
        assert poly.vertices == ((0, 0),)
        assert poly.edges == ()
        assert poly.A == 0 and poly.B == 0

    def test_product(self):
        poly = build_polygon(parse_poly("x*y"))
        assert poly.vertices == ((1, 1),)
        assert poly.A == 1 and poly.B == 1

    def test_circle_term(self):
        poly = build_polygon(parse_poly("x^2 + y^2"))
        assert poly.vertices == ((0, 2), (2, 0))
        (edge,) = poly.edges
        assert edge.gamma == 1 and edge.n == 2
        assert edge.upper == (0, 2) and edge.lower == (2, 0)

    def test_two_edges(self):
        poly = build_polygon(BivarPoly({(0, 3): 1, (2, 1): 1, (5, 0): 1}))
        assert [(e.gamma, e.n) for e in poly.edges] == [(F(1), 2), (F(3), 1)]
        assert poly.vertices == ((0, 3), (2, 1), (5, 0))

    def test_collinear_midpoint_dropped(self):
        poly = build_polygon(BivarPoly({(0, 4): 1, (1, 2): 1, (2, 0): 1}))
        assert poly.vertices == ((0, 4), (2, 0))

    def test_dominated_points_ignored(self):
        base = BivarPoly({(0, 2): 1, (2, 0): 1})
        noisy = base + BivarPoly({(1, 2): 5, (3, 3): -2, (2, 1): 7})
        assert build_polygon(noisy).vertices == build_polygon(base).vertices

    def test_oracle_agreement(self):
        rng = random.Random(2024)
        for _ in range(150):
            support = random_support(rng)
            poly = build_polygon(BivarPoly({p: 1 for p in support}))
            vertices, edges = oracle_hull(support)
            assert set(poly.vertices) == vertices
            assert {e.gamma: (e.upper, e.lower) for e in poly.edges} == edges
            assert poly.A == min(a for a, b in support)
            assert poly.B == min(b for a, b in support)


class TestLatticeHull:
    def test_rescaled_lattice_matches_oracle(self):
        # the Puiseux recursion rescales its keys x -> s*x when a slope needs
        # a finer lattice; the hull must follow vertex for vertex, with every
        # gamma scaled by s
        rng = random.Random(77)
        for _ in range(100):
            s = rng.randrange(2, 6)
            count = rng.randrange(1, 9)
            support = {(rng.randrange(0, 13), rng.randrange(0, 7)) for _ in range(count)}
            hull = lower_hull([(a * s, b) for a, b in support])
            edges = hull_edges(hull)
            vertices, oracle_edges = oracle_hull(support)
            assert hull == sorted((a * s, b) for a, b in vertices)
            assert all(isinstance(x, int) for x, _ in hull)
            assert {e.gamma: (e.upper, e.lower) for e in edges} == {
                g * s: ((u[0] * s, u[1]), (w[0] * s, w[1]))
                for g, (u, w) in oracle_edges.items()
            }
            assert all(e.n == e.upper[1] - e.lower[1] for e in edges)


class TestDecayRate:
    def test_constant(self):
        t0, delta, crossing = decay_rate(build_polygon(parse_poly("1")))
        assert (t0, delta, crossing) == (0, 1, "vertex")

    def test_product(self):
        t0, delta, crossing = decay_rate(build_polygon(parse_poly("x*y")))
        assert (t0, delta, crossing) == (1, F(1, 2), "vertex")

    def test_edge_crossing(self):
        t0, delta, crossing = decay_rate(build_polygon(parse_poly("(y-x)^2")))
        assert (t0, delta, crossing) == (1, F(1, 2), "edge")

    def test_two_edge_crossing(self):
        poly = build_polygon(BivarPoly({(0, 3): 1, (2, 1): 1, (5, 0): 1}))
        t0, delta, crossing = decay_rate(poly)
        assert (t0, delta, crossing) == (F(3, 2), F(2, 5), "edge")

    def test_steep_edge(self):
        t0, delta, crossing = decay_rate(build_polygon(parse_poly("x^3*y + x*y^5")))
        assert (t0, delta) == (F(7, 3), F(3, 10))
        assert crossing == "edge"

    def test_vertical_ray(self):
        t0, delta, crossing = decay_rate(build_polygon(parse_poly("x^3")))
        assert (t0, delta, crossing) == (3, F(1, 4), "infinite_edge")

    def test_horizontal_ray(self):
        t0, delta, crossing = decay_rate(build_polygon(parse_poly("y^4")))
        assert (t0, delta, crossing) == (4, F(1, 5), "infinite_edge")

    def test_monomial_rule(self):
        # a single monomial x^a*y^b always gives delta = 1/(1 + max(a, b))
        rng = random.Random(5)
        for _ in range(60):
            a, b = rng.randrange(0, 9), rng.randrange(0, 9)
            _, delta, _ = decay_rate(build_polygon(BivarPoly({(a, b): 3})))
            assert delta == F(1, 1 + max(a, b))

    def test_unit_invariance(self):
        # multiplying by a series with nonzero constant term moves no vertex
        rng = random.Random(77)
        for _ in range(60):
            support = random_support(rng, max_deg=5, max_pts=6)
            Fpoly = BivarPoly({p: F(rng.randrange(1, 9), rng.randrange(1, 4)) for p in support})
            unit = BivarPoly(
                {
                    (0, 0): rng.choice([1, -1, 2, 3]),
                    (rng.randrange(0, 3), rng.randrange(0, 3)): rng.randrange(-4, 5),
                    (rng.randrange(0, 4), rng.randrange(0, 4)): rng.randrange(-4, 5),
                }
            )
            assert build_polygon(Fpoly * unit).vertices == build_polygon(Fpoly).vertices
            assert decay_rate(build_polygon(Fpoly * unit)) == decay_rate(build_polygon(Fpoly))


class TestEdgeRates:
    def test_no_edges(self):
        assert build_polygon(parse_poly("x*y")).edges == ()

    def test_circle_term(self):
        (edge,) = build_polygon(parse_poly("x^2 + y^2")).edges
        assert (edge.lower, edge.delta) == ((2, 0), F(1, 2))

    def test_two_edges(self):
        poly = build_polygon(BivarPoly({(0, 3): 1, (2, 1): 1, (5, 0): 1}))
        e1, e2 = poly.edges
        assert (e1.lower, e1.delta) == ((2, 1), F(2, 5))
        assert (e2.lower, e2.delta) == ((5, 0), F(4, 9))

    def test_line_crossing_identity(self):
        # 1/delta_nu = 1 + t_nu where t_nu solves t = B_nu - (t - A_nu)/gamma
        rng = random.Random(11)
        checked = 0
        while checked < 80:
            support = random_support(rng)
            poly = build_polygon(BivarPoly({p: 1 for p in support}))
            if not poly.edges:
                continue
            checked += 1
            for edge in poly.edges:
                a_nu, b_nu = edge.lower
                t_nu = F(a_nu + b_nu * edge.gamma, 1 + edge.gamma)
                assert 1 / edge.delta == 1 + t_nu

    def test_edge_rates_dominate_delta(self):
        rng = random.Random(13)
        checked = 0
        while checked < 80:
            support = random_support(rng)
            poly = build_polygon(BivarPoly({p: 1 for p in support}))
            if not poly.edges:
                continue
            checked += 1
            _, delta, _ = decay_rate(poly)
            for edge in poly.edges:
                assert edge.delta >= delta


class TestDegeneracy:
    def test_square(self):
        deg = analyze_decay(parse_poly("(y-x)^2")).degeneracy
        assert deg.kind is DegeneracyKind.COMPLETELY_DEGENERATE
        assert deg.N == 2 and deg.c == 1.0

    def test_cube_with_slope(self):
        deg = analyze_decay(parse_poly("(y-2*x)^3")).degeneracy
        assert deg.kind is DegeneracyKind.COMPLETELY_DEGENERATE
        assert deg.N == 3 and deg.c == 2.0

    def test_product_not_degenerate(self):
        assert analyze_decay(parse_poly("x*y")).degeneracy.kind is DegeneracyKind.NON_DEGENERATE

    def test_split_pair_not_degenerate(self):
        deg = analyze_decay(parse_poly("(y-x)^2 - x^5")).degeneracy
        assert deg.kind is DegeneracyKind.NON_DEGENERATE

    def test_rational_curve(self):
        # ((1+x)y - x)^2 vanishes twice on y = x/(1+x), whose series never stops
        deg = analyze_decay(parse_poly("((1+x)*y - x)^2")).degeneracy
        assert deg.kind is DegeneracyKind.COMPLETELY_DEGENERATE
        assert deg.N == 2 and deg.c == 1

    def test_axis_offset_not_degenerate(self):
        assert analyze_decay(parse_poly("x*(y-x)^2")).degeneracy.kind is DegeneracyKind.NON_DEGENERATE


class TestExactDegeneracy:
    """The polygon's one edge and its polynomial decide N, c and the N-th power."""

    @pytest.mark.parametrize("text", ["(y-x)*(y-2*x)", "y^2 + x^2", "(y-x)*(1000*y-1001*x)"])
    def test_distinct_edge_roots_never_expand(self, monkeypatch, text):
        # the edge polynomial has distinct roots, so F is no N-th power
        # and the gcd of its y-derivatives is never taken
        monkeypatch.setattr(newton, "_gcd_in_y", lambda P, Q: pytest.fail("gcd taken"))
        assert analyze_decay(parse_poly(text)).degeneracy.kind is DegeneracyKind.NON_DEGENERATE

    def test_newton_imports_nothing_from_puiseux(self):
        # the verdict reads F alone, never a branch expansion
        tree = ast.parse(Path(newton.__file__).read_text())
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not any("puiseux" in m for m in modules)

    def test_constructed_powers_are_completely_degenerate(self):
        # F = (1 + a x + b y) * (y - r x - s x^2)^N: N as built, c = r exactly
        rng = random.Random(24)
        x, y = parse_poly("x"), parse_poly("y")
        for _ in range(60):
            N = rng.choice((2, 3))
            r = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))
            s = F(rng.randint(-3, 3), rng.randint(1, 4))
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            Fpoly = (1 + a * x + b * y) * (y - r * x - s * x * x) ** N
            report = analyze_decay(Fpoly)
            deg = report.degeneracy
            case = (N, r, s, a, b)
            assert deg.kind is DegeneracyKind.COMPLETELY_DEGENERATE, case
            assert deg.N == N and deg.c == r, case
            assert report.to_dict()["degeneracy"]["c"] == float(r), case

    def test_sqf_oracle_corpus(self):
        # F = (1 + a x + b y) (y - r x - s x^2)^N, some times the unit
        # 1 + (y - 2)^2, half plus k x^m with m >= 2N, which the polygon
        # and the edge polynomial cannot see; sympy.sqf_list decides each
        sympy = pytest.importorskip("sympy")
        X, Y = sympy.symbols("x y")
        rng = random.Random(34)
        x, y = parse_poly("x"), parse_poly("y")
        verdicts = []
        for _ in range(240):
            N = rng.choice((2, 3, 4))
            r = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))
            s = F(rng.randint(-3, 3), rng.randint(1, 4))
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            Fpoly = (1 + a * x + b * y) * (y - r * x - s * x * x) ** N
            if rng.random() < 0.3:
                Fpoly = Fpoly * (1 + (y - 2) ** 2)
            if rng.random() < 0.5:
                k = F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 5))
                Fpoly = Fpoly + k * x ** rng.randint(2 * N, 2 * N + 3)
            expr = sum(
                sympy.Rational(v.numerator, v.denominator) * X**i * Y**j
                for (i, j), v in Fpoly.terms.items()
            )
            through = [
                (g, k) for g, k in sympy.sqf_list(sympy.Poly(expr, X, Y))[1]
                if g.eval({X: 0, Y: 0}) == 0
            ]
            expected = (None, None)
            if len(through) == 1 and through[0][1] >= 2:
                g, k = through[0]
                gx, gy = (g.diff(v).eval({X: 0, Y: 0}) for v in (X, Y))
                if gx != 0 and gy != 0:
                    expected = (k, F(str(-gx / gy)))
            deg = analyze_decay(Fpoly).degeneracy
            assert (deg.N, deg.c) == expected, Fpoly.render()
            verdicts.append(deg.N is not None)
        # both verdicts occur often
        assert 50 < sum(verdicts) < 190


class TestReport:
    def test_report_roundtrip_fields(self):
        report = analyze_decay(parse_poly("(y-x)^2"))
        data = report.to_dict()
        assert data["t0"] == "1"
        assert data["delta"] == "1/2"
        assert data["boundary_crossing"] == "edge"
        assert data["degeneracy"]["kind"] == "CompletelyDegenerate"
        assert data["degeneracy"]["N"] == 2
        assert data["edges"][0]["gamma"] == "1"

    def test_report_nondegenerate(self):
        report = analyze_decay(parse_poly("x*y"))
        assert report.delta == F(1, 2)
        assert report.polygon.edges == ()
        assert report.degeneracy.kind is DegeneracyKind.NON_DEGENERATE
