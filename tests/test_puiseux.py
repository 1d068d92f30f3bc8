"""Branch expansion on the reference corpus, checked against the roots of F.

Expected coefficients here were derived by hand: y^2 = x^2*(1+x) gives
y = x*(1+x)^(1/2) = x + x^2/2 - x^3/8 + x^4/16 - ..., and the other corpus
members terminate, so their series are checked exactly.  Every other
sheet is checked by tests/sheet_oracle.py: its partial sum at small x0
must lie within its truncation error of a root of F(x0, .).
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from newtonosc import puiseux
from newtonosc.cli import main
from newtonosc.errors import EmptyPolygonError
from newtonosc.newton import lower_hull
from newtonosc.polycore import BivarPoly, parse_poly
from newtonosc.puiseux import (
    PRUNE_REL_TOL,
    PuiseuxBranch,
    PuiseuxTerm,
    Reality,
    expand_branches,
)
from payload_schemas import check_payload
from sheet_oracle import branch_failures, sheet_failures

F = Fraction


def coeffs(branch):
    return {t.exponent: t.coefficient for t in branch.terms}


class TestCorpus:
    def test_cusp(self):
        out = expand_branches(parse_poly("y^2 - x^3"))
        assert out.axis_roots == (0, 0)
        assert out.total_multiplicity == 2
        minus, plus = out.branches
        for br, sign in ((minus, -1), (plus, 1)):
            assert br.ramification == 2
            assert br.multiplicity == 1
            assert br.exact
            assert br.reality is Reality.REAL
            assert coeffs(br) == {F(3, 2): sign}

    def test_shifted_pair_exact(self):
        out = expand_branches(parse_poly("(y-x)^2 - x^5"))
        assert out.total_multiplicity == 2
        assert len(out.branches) == 2
        for br, sign in zip(out.branches, (-1, 1)):
            assert br.exact
            assert not br.split_undetermined
            got = coeffs(br)
            assert got[F(1)] == 1
            assert abs(got[F(5, 2)] - sign) < 1e-12
            assert set(got) == {F(1), F(5, 2)}

    def test_shifted_pair_below_horizon(self):
        # order 2 cannot see the exponent 5/2 where the sheets separate
        out = expand_branches(parse_poly("(y-x)^2 - x^5"), order=2)
        (br,) = out.branches
        assert br.multiplicity == 2
        assert br.split_undetermined
        assert not br.exact
        assert br.order == 2
        assert coeffs(br) == {F(1): 1}

    def test_square_root_series(self):
        out = expand_branches(parse_poly("y^2 - x^2 - x^3"), order=4)
        assert out.total_multiplicity == 2
        minus, plus = out.branches
        want = {F(1): 1, F(2): 0.5, F(3): -0.125, F(4): 0.0625}
        got = coeffs(plus)
        assert set(got) == set(want)
        for e, c in want.items():
            assert abs(got[e] - c) < 1e-9, e
        got_minus = coeffs(minus)
        for e, c in want.items():
            assert abs(got_minus[e] + c) < 1e-9, e
        assert plus.ramification == 1
        assert not plus.exact

    def test_axis_factor(self):
        out = expand_branches(parse_poly("x*(y-x)^2"))
        assert out.axis_roots == (1, 0)
        (br,) = out.branches
        assert br.exact and br.multiplicity == 2
        assert coeffs(br) == {F(1): 1}

    def test_complex_pair(self):
        out = expand_branches(parse_poly("x^2 + y^2"))
        assert out.total_multiplicity == 2
        assert {br.reality for br in out.branches} == {Reality.COMPLEX_PAIR}
        got = sorted((br.terms[0].coefficient for br in out.branches), key=lambda c: c.imag)
        assert got[0] == -1j and got[1] == 1j
        for br in out.branches:
            assert br.exact
            assert br.leading_exponent == 1

    def test_monomial_has_no_branches(self):
        out = expand_branches(parse_poly("x^2*y^3"))
        assert out.branches == ()
        assert out.axis_roots == (2, 3)
        assert out.total_multiplicity == 0

    def test_zero_rejected(self):
        with pytest.raises(EmptyPolygonError):
            expand_branches(BivarPoly())

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError, match="branch order must be positive"):
            expand_branches(parse_poly("y^2 - x^3"), order=0)

    def test_rational_double_sheet_merges(self):
        # ((1+x)y - x)^2 vanishes on y = x/(1+x); the square never separates
        out = expand_branches(parse_poly("((1+x)*y - x)^2"), order=6)
        (br,) = out.branches
        assert br.multiplicity == 2
        assert br.split_undetermined
        assert br.order == 6
        got = coeffs(br)
        for k in range(1, 7):
            assert abs(got[F(k)] - (-1) ** (k + 1)) < 1e-9


class TestResiduals:
    """The sheet oracle passes what expand_branches prints and flags what is wrong."""

    def test_exact_branches_score_machine_zero(self):
        # an exact sheet may miss a root of F(x0, .) only by its rounding
        for text in ("y^2 - x^3", "(y-x)^2 - x^5", "x^2 + y^2"):
            branches = expand_branches(parse_poly(text)).branches
            assert branches and all(br.exact for br in branches)
            assert branch_failures(text, branches) == []

    def test_truncated_series_slope(self):
        # truncating y = +-x*(1+x)^(1/2) after x^3 misses by x^4/16, a
        # relative x^3/16: within order 3's bound, but too slow a fall
        # for a claim of order 4
        text = "y^2 - x^2 - x^3"
        branches = expand_branches(parse_poly(text), order=3).branches
        assert len(branches) == 2 and sheet_failures(text, 3) == []
        claims = [PuiseuxBranch(br.terms, order=F(4)) for br in branches]
        for *_, bad, rows in branch_failures(text, claims):
            assert bad == ["no fall at 0.001", "no fall at 0.0001"]
            for x0, miss, _ in rows:
                assert miss == pytest.approx(x0**3 / 16, rel=0.02)

    def test_wrong_branch_flagged(self):
        # y = x misses the sheets x +- x^(5/2) of (y-x)^2 - x^5 by a
        # relative x^(3/2), above the rounding of an exact claim and
        # above x^4 for a claim of order 5
        claims = [PuiseuxBranch((PuiseuxTerm(F(1), 1.0),), order=order) for order in (None, F(5))]
        failures = branch_failures("(y-x)^2 - x^5", claims)
        assert len(failures) == 2
        for *_, bad, rows in failures:
            assert bad[:3] == [0.01, 0.001, 0.0001]
            for x0, miss, _ in rows:
                assert miss == pytest.approx(x0**1.5, rel=0.01)


class TestRandomFactors:
    def test_recovers_planted_polynomial_sheets(self):
        rng = random.Random(314)
        for _ in range(40):
            count = rng.randrange(1, 4)
            planted = []
            seen = set()
            for _ in range(count):
                c = [F(rng.randrange(-3, 4)) for _ in range(3)]
                c[0] = F(rng.choice([1, -1, 2, -2, 3]))
                key = tuple(c)
                if key in seen:
                    continue
                seen.add(key)
                planted.append(c)
            x, y = parse_poly("x"), parse_poly("y")
            Fpoly = BivarPoly.constant(1)
            for c in planted:
                f = c[0] * x + c[1] * x * x + c[2] * x * x * x
                Fpoly = Fpoly * (y - f)
            out = expand_branches(Fpoly)
            assert out.total_multiplicity == len(planted)
            recovered = []
            for br in out.branches:
                got = coeffs(br)
                series = [got.get(F(k), 0j) for k in (1, 2, 3)]
                for _ in range(br.multiplicity):
                    recovered.append(series)
            assert len(recovered) == len(planted)
            for c in planted:
                want = [complex(float(v), 0.0) for v in c]
                hit = min(
                    range(len(recovered)),
                    key=lambda i: sum(
                        abs(recovered[i][k] - want[k]) for k in range(3)
                    ),
                )
                err = sum(abs(recovered[hit][k] - want[k]) for k in range(3))
                assert err < 1e-8
                recovered.pop(hit)

    def test_double_sheet_exactness(self):
        rng = random.Random(2718)
        for _ in range(25):
            a = rng.choice([1, -1, 2, -2])
            b = rng.randrange(-3, 4)
            f = parse_poly(f"{a}*x + {b}*x^2" if b >= 0 else f"{a}*x - {abs(b)}*x^2")
            y = parse_poly("y")
            Fpoly = (y - f) * (y - f)
            out = expand_branches(Fpoly)
            (br,) = out.branches
            assert br.exact
            assert br.multiplicity == 2
            got = coeffs(br)
            assert abs(got[F(1)] - a) < 1e-10
            if b:
                assert abs(got[F(2)] - b) < 1e-10


class TestSerialization:
    def test_branchset_dict(self):
        out = expand_branches(parse_poly("y^2 - x^3"))
        data = out.to_dict()
        assert data["total_multiplicity"] == 2
        assert data["axis_roots"] == {"x": 0, "y": 0}
        exps = {br["leading_exp"] for br in data["branches"]}
        assert exps == {"3/2"}
        for br in data["branches"]:
            assert br["reality"] == "Real"
            assert br["terms"][0]["exp"] == "3/2"
            assert isinstance(br["terms"][0]["re"], float)


class TestLattice:
    """Exponents live on x^(1/D) with D grown to the lcm of the slopes."""

    def test_nested_ramification_rescales_partway(self):
        # slope 2/3 puts the keys over D = 3; the next slope 3/2 needs D = 6
        poly = parse_poly("(y^3-x^2)^2 - x^5*y")
        out = expand_branches(poly)
        assert out.total_multiplicity == 6 and len(out.branches) == 6
        for br in out.branches:
            assert br.ramification == 6
            assert [t.exponent for t in br.terms[:4]] == [F(2, 3), F(3, 2), F(7, 3), F(19, 6)]
        assert sheet_failures("(y^3-x^2)^2 - x^5*y") == []

    def test_nested_ramification_exact(self):
        # y = +-x^(3/2) +- x^(7/4): D goes 2 -> 4 on the second slope
        poly = parse_poly("(y^2-x^3)^2 - 4*x^5*y - x^7")
        out = expand_branches(poly)
        assert out.total_multiplicity == 4 and len(out.branches) == 4
        for br in out.branches:
            assert br.ramification == 4
            assert br.exact
            assert [t.exponent for t in br.terms] == [F(3, 2), F(7, 4)]

    def test_exponents_leave_as_fractions(self):
        for text in ("(y^3-x^2)^2 - x^5*y", "(y-x)^2 - x^5", "y^2 - x^2 - x^3"):
            for br in expand_branches(parse_poly(text), order=8).branches:
                assert all(type(t.exponent) is Fraction for t in br.terms)
                assert type(br.leading_exponent) is Fraction


class TestSheetsStopOnePrefix:
    """Sheets share a record only when they stop at the same prefix."""

    @pytest.mark.parametrize("text, n", [("y^2-x^3", 2), ("y^3-x^4", 3)])
    def test_leading_terms_beyond_the_order_stay_apart(self, text, n):
        out = expand_branches(parse_poly(text), order=1)
        assert out.total_multiplicity == n and len(out.branches) == n
        for br in out.branches:
            assert br.multiplicity == 1 and not br.split_undetermined
            assert br.leading_exponent == F(n + 1, n)
            assert abs(abs(br.leading_coefficient) - 1.0) < 1e-12
        if n == 2:
            lead = [br.leading_coefficient for br in out.branches]
            assert [c.real for c in lead] == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_stuck_sheets_keep_their_own_record(self):
        # the roots 1 and 1.001 share one cluster at x^1: two sheets stay
        # stuck there, two resolve below it.  The true sheets are x +- x^2;
        # the cluster mean skews the printed x^2 coefficients to +-0.7071.
        text = "(y-x)*(1000*y-1001*x)*(y-x-x^2)*(y-x+x^2)"
        out = expand_branches(parse_poly(text), order=3)
        assert out.total_multiplicity == 4
        stuck = [br for br in out.branches if br.split_undetermined]
        assert len(stuck) == 1
        assert stuck[0].multiplicity == 2 and len(stuck[0].terms) == 1
        rest = [br for br in out.branches if not br.split_undetermined]
        assert [br.multiplicity for br in rest] == [1, 1]
        x2 = sorted(coeffs(br)[F(2)].real for br in rest)
        assert x2 == pytest.approx([-0.7071, 0.7071], abs=1e-4)


# captured before the exponents moved onto the integer lattice, then
# re-captured once the y-free F of the corpus (3*x and 2) printed the
# axis_roots, cluster_tolerance and order of their empty expansion
PINNED = "7f88c2719555f8fc3221dfc53d75683deaf06297e6dc58e3f535ade528e3845e"
# captured once the sheets that stop at one prefix shared one record and
# no other records were merged; the earlier merge pass fused sheets whose
# leading terms lay beyond the order, such as +-x^(3/2) at order 1;
# re-captured with the y-free payloads above; re-captured once the
# degeneracy verdict no longer read the expansion, which turned
# (y-x)^2 - x^7 and (y - x - x^2)^3 + x^11 at orders 1 and 2 from
# Undetermined into NonDegenerate, and changed no other payload
PINNED_TRUNCATED = "13ed9b5aa6caae90a96961917beac6d1416e78db86fb4553b5f1350e00feaf30"


def analyze_bytes(texts, orders=(None, 50)):
    """sha256 over exit code, stdout and stderr of analyze --mixed per F and order.

    Each payload written (exit 0) must also match the analyze schema.
    """
    digest = hashlib.sha256()
    for text in texts:
        for order in orders:
            extra = [] if order is None else ["--order", str(order)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", "--phase", text, "--mixed", *extra])
            if code == 0:
                check_payload("analyze", json.loads(out.getvalue()))
            digest.update(f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode())
    return digest.hexdigest()


def pinned_corpus():
    # F with 1-5 terms, exponents in [0, 3]^2, coefficients 1-4
    rng = random.Random(1997)
    texts = []
    for _ in range(40):
        pts = sorted({(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(1, 6))})
        texts.append(" + ".join(f"{rng.randrange(1, 5)}*x^{a}*y^{b}" for a, b in pts))
    return texts


# Cluster phases whose sheets separate late, at or past a low order.
LATE_SPLITS = [
    "(y-x)^2 - x^7",
    "(y^3-x^2)^2 - x^5*y",
    "(y^2-x^3)^2 - 4*x^5*y - x^7",
    "(y-x)^4",
    "(y-x)^2*(y+x)^3 - x^9",
    "(y - x - x^2)^3 + x^11",
]


class TestPinnedBytes:
    def test_analyze_corpus_bytes(self):
        # the digest pins every coefficient bit the expansion prints
        assert analyze_bytes(pinned_corpus()) == PINNED

    def test_truncated_record_bytes(self):
        # At order 1 this set yields 7 top-level leading terms beyond the
        # order and 9 unresolved multi-sheet branches, record kinds the
        # default and order-50 runs never reach.
        texts = pinned_corpus() + LATE_SPLITS
        assert analyze_bytes(texts, orders=(1, 2)) == PINNED_TRUNCATED


# --- fast paths against the code they replaced -------------------------------


def full_scan_edge_poly(poly, edge):
    """The edge polynomial from a scan of every key, not the row minima."""
    (e_up, k_up), (e_lo, k_lo) = edge.upper, edge.lower
    run, n = e_lo - e_up, edge.n
    coeffs = np.zeros(n + 1, dtype=complex)
    for (e, k), c in poly.items():
        if k_lo <= k <= k_up and (e - e_up) * n == run * (k_up - k):
            coeffs[k_up - k] = c
    return coeffs


def two_dict_substitute(poly, G, c):
    """The substitution with separate value and mass dicts."""
    out, acc, rows = {}, {}, {}
    for (e, k), coeff in poly.items():
        if k not in rows:
            weights = [math.comb(k, j) * c ** (k - j) for j in range(k + 1)]
            rows[k] = [(j, G * (k - j), w, abs(w)) for j, w in enumerate(weights)]
        mass = abs(coeff)
        for j, shift, w, w_abs in rows[k]:
            key = (e + shift, j)
            out[key] = out.get(key, 0j) + coeff * w
            acc[key] = acc.get(key, 0.0) + mass * w_abs
    return {key: val for key, val in out.items() if abs(val) > PRUNE_REL_TOL * acc[key]}


def row_minima(poly):
    low = {}
    for e, k in poly:
        low[k] = min(e, low.get(k, e))
    return low


def reprs(values):
    return [repr(complex(v)) for v in values]


@pytest.fixture(scope="module")
def levels():
    """Every level the expansion of pinned_corpus() + LATE_SPLITS passes through.

    Each _expand call builds one hull before it recurses, and reads each
    edge's polynomial just before it clusters that edge's roots, so the
    recorded lists pair up by position.
    """
    rec = {"poly": [], "hull": [], "edge": [], "roots": [], "sub": []}
    expand, hull, edge_poly = puiseux._expand, puiseux.lower_hull, puiseux._edge_poly
    cluster, substitute = puiseux._cluster_roots, puiseux._substitute

    def expand_(poly, *rest):
        rec["poly"].append(dict(poly))
        return expand(poly, *rest)

    def hull_(points):
        points = list(points)
        rec["hull"].append((points, hull(points)))
        return rec["hull"][-1][1]

    def edge_poly_(poly, low, edge):
        psi = edge_poly(poly, low, edge)
        rec["edge"].append((dict(poly), dict(low), edge, psi.copy()))
        return psi

    def cluster_(roots, psi):
        rec["roots"].append(list(roots))
        return cluster(roots, psi)

    def substitute_(poly, G, c):
        out = substitute(poly, G, c)
        rec["sub"].append((dict(poly), G, c, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        for name, fn in [("_expand", expand_), ("lower_hull", hull_),
                         ("_edge_poly", edge_poly_), ("_cluster_roots", cluster_),
                         ("_substitute", substitute_)]:
            mp.setattr(puiseux, name, fn)
        for text in pinned_corpus() + LATE_SPLITS:
            for order in (None, 1):
                expand_branches(parse_poly(text), order=order)
    return rec


class TestRowMinimaFastPaths:
    """Each fast path is bit-identical to the code it replaced on every level."""

    def test_hull_of_row_minima_is_the_full_hull(self, levels):
        assert len(levels["poly"]) == len(levels["hull"]) > 100
        for poly, (points, hull) in zip(levels["poly"], levels["hull"]):
            v = min(k for _, k in poly)
            shifted = [(e, k - v) for e, k in poly]
            assert sorted(points) == sorted((e, k) for k, e in row_minima(shifted).items())
            assert hull == lower_hull(shifted)

    def test_edge_poly_reads_only_row_minima(self, levels):
        assert len(levels["edge"]) > 100
        for poly, low, edge, psi in levels["edge"]:
            assert low == row_minima(poly)
            assert reprs(psi) == reprs(full_scan_edge_poly(poly, edge))

    def test_roots_are_np_roots(self, levels):
        assert len(levels["edge"]) == len(levels["roots"])
        linear = 0
        for (_, _, edge, psi), roots in zip(levels["edge"], levels["roots"]):
            linear += edge.n == 1
            assert reprs(roots) == reprs(np.roots(psi))
        assert 0 < linear < len(levels["roots"])

    def test_substitute_matches_two_dicts(self, levels):
        assert len(levels["sub"]) > 100
        for poly, G, c, out in levels["sub"]:
            want = two_dict_substitute(poly, G, c)
            assert list(out) == list(want)
            assert reprs(out.values()) == reprs(want.values())


class _Stop(Exception):
    pass


def linear_root(a, b):
    """The root _expand hands on for the edge polynomial a*z + b."""
    seen = []

    def cluster_(roots, psi):
        seen.extend(roots)
        raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(puiseux, "_cluster_roots", cluster_)
        with pytest.raises(_Stop):
            puiseux._expand({(0, 1): a, (1, 0): b}, 1, 1, [], F(0), F(1), [])
    (root,) = seen
    return complex(root)


def random_linear_edges(lo, hi, count=400):
    rng = np.random.default_rng(27)
    for _ in range(count):
        a = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-3, 3)
        r = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(lo, hi)
        if rng.random() < 0.3:
            r = complex(r.real, 0.0)
        yield a, -a * r


class TestLinearEdgeRoot:
    """A linear edge's root is the quotient np.roots hands its 1x1 eigensolve."""

    def test_bit_equal_to_np_roots_inside_the_unscaled_range(self):
        for a, b in random_linear_edges(-100, 100):
            assert repr(linear_root(a, b)) == repr(complex(np.roots([a, b])[0]))

    @pytest.mark.parametrize("lo, hi", [(-300, -139), (139, 300)])
    def test_within_one_ulp_beyond_it(self, lo, hi):
        # zgeev scales a matrix whose norm lies outside about 1e+-138 and
        # scales the eigenvalue back, which can move each part by an ulp
        # of |root| and flip the sign of a zero part
        for a, b in random_linear_edges(lo, hi):
            got, want = linear_root(a, b), complex(np.roots([a, b])[0])
            ulp = math.ulp(abs(want))
            assert abs(got.real - want.real) <= ulp and abs(got.imag - want.imag) <= ulp


def components(roots, tol):
    """Connected components of the graph |z_i - z_j| <= tol, by breadth-first search."""
    seen, out = set(), []
    for start in range(len(roots)):
        if start in seen:
            continue
        seen.add(start)
        queue, comp = [start], []
        while queue:
            i = queue.pop(0)
            comp.append(i)
            for j in range(len(roots)):
                if j not in seen and abs(roots[i] - roots[j]) <= tol:
                    seen.add(j)
                    queue.append(j)
        out.append(sorted(comp))
    return out


class TestLinkage:
    """_linkage groups are the components of the tol-graph, in input order."""

    @staticmethod
    def check(roots, tol):
        groups = puiseux._linkage(roots, tol)
        want = [[roots[i] for i in comp] for comp in components(roots, tol)]
        # the oracle lists each component in input order, ordered by its first root
        assert groups == want

    def test_chain_links_ends_farther_apart_than_tol(self):
        roots = [0j, 1 + 0j, 2 + 0j]
        assert puiseux._linkage(roots, 1.0) == [roots]
        self.check(roots, 1.0)

    def test_chain_closed_by_its_middle_root(self):
        # a and c each start a group; b joins both, in input order
        assert puiseux._linkage([0j, 2 + 0j, 1 + 0j], 1.0) == [[0j, 2 + 0j, 1 + 0j]]

    def test_interleaved_groups(self):
        roots = [0j, 10 + 0j, 0.5 + 0j, 10.5 + 0j]
        assert puiseux._linkage(roots, 1.0) == [[0j, 0.5 + 0j], [10 + 0j, 10.5 + 0j]]
        self.check(roots, 1.0)

    def test_seeded_root_sets(self):
        rng = random.Random(5)
        for _ in range(500):
            roots = [complex(rng.uniform(0, 4), rng.uniform(0, 1)) for _ in range(rng.randint(1, 12))]
            self.check(roots, rng.uniform(0.1, 1.0))


@pytest.mark.xfail(
    raises=ValueError,
    strict=True,
    reason="_snap measures a part against max(1, |z|), so a root below "
    "REAL_SNAP_TOL loses both parts and its branch has no term",
)
@pytest.mark.parametrize("text", ["10^11*y - x", "(10^11*y - x)*(y - x)"])
def test_root_below_the_snap_tolerance_keeps_its_value(text):
    out = expand_branches(parse_poly(text))
    small = min(out.branches, key=lambda b: abs(b.leading_coefficient))
    assert small.leading_coefficient == pytest.approx(1e-11, rel=1e-12)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="_snap zeroes the second root, 1e-11, against max(1, |z|), so the "
    "sheet y = x + 1e-11 x^2 prints as y = x and is marked inexact",
)
def test_small_second_term_above_a_unit_root_is_kept():
    (branch,) = expand_branches(parse_poly("y - x - x^2/100000000000")).branches
    assert branch.exact
    assert [t.exponent for t in branch.terms] == [1, 2]
    assert branch.terms[1].coefficient == pytest.approx(1e-11, rel=1e-12)


# --- dropped terms and merged binomial roots ---------------------------------


@pytest.mark.parametrize(
    "text, terms",
    [
        ("y - 10000*x - x^2/100000000", [(1, 10000.0), (2, 1e-08)]),
        ("y - 1000*x - x^2/1000000000", [(1, 1000.0), (2, 1e-09)]),
    ],
)
def test_small_term_beside_a_large_leading_one_is_kept(text, terms):
    (branch,) = expand_branches(parse_poly(text)).branches
    assert branch.exact
    assert [(t.exponent, t.coefficient) for t in branch.terms] == terms


@pytest.mark.parametrize(
    "text, n, gamma, lead",
    [
        ("x + y^8", 8, F(1, 8), -1),
        ("x^2 + y^8", 8, F(1, 4), -1),
        ("x + y^16", 16, F(1, 16), -1),
        ("x^3 + 2*y^9", 9, F(1, 3), -0.5),
    ],
)
def test_binomial_edge_gives_one_sheet_per_root(text, n, gamma, lead):
    # the n roots of a*z^n + b are simple; none may merge with another
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--phase", text, "--mixed"]) == 0
    payload = json.loads(out.getvalue())
    check_payload("analyze", payload)
    branches = payload["branches"]["branches"]
    assert len(branches) == n
    roots = []
    for br in branches:
        assert br["multiplicity"] == 1 and br["exact"] and len(br["terms"]) == 1
        (term,) = br["terms"]
        assert F(term["exp"]) == gamma
        roots.append(complex(term["re"], term["im"]))
    for c in roots:
        assert c**n == pytest.approx(lead, abs=1e-14)
    assert min(abs(a - b) for a, b in itertools.combinations(roots, 2)) > 0.1


# --- printed sheets against the roots of F(x0, .) ----------------------------

LARGE_LEADS = [
    "y - 10000*x - x^2/100000000",
    "y - 1000*x - x^2/1000000000",
    "(y - 500*x)*(y - 700*x - x^3)",
    "y^2 - 90000*x^3 - x^5",
    "y^3 - 8000000*x^2",
]
BINOMIALS = ["x + y^8", "x^2 + y^8", "x + y^16", "x^3 + 2*y^9"]
# a corpus F with a sheet of 3y^2 + (1+x)y + 3x = 0, whose radius of
# convergence is 17 - 12*sqrt(2), about 0.029: its terms -3x, -24x^2,
# -408x^3, -8664x^4, ... grow about 34-fold
SMALL_RADII = ["1*x^0*y^2 + 3*x^0*y^3 + 3*x^1*y^1 + 1*x^1*y^2"]
# wide-corpus F whose columns F(x0, .) span so many decades that
# polyroots needs its retry at higher precision
STIFF_COLUMNS = ["3*y^4 + x^4*y^3 + 4*x^8*y^4 + 4*x^8*y^5", "3*x*y + 4*x*y^2 + 4*x^6*y^3"]


class TestSheetOracle:
    """Every printed sheet lies within its truncation error of a root of F(x0, .)."""

    @pytest.mark.parametrize("orders", [(None, 50), (1, 2)])
    def test_pinned_corpus(self, orders):
        for text in pinned_corpus() + LATE_SPLITS:
            for order in orders:
                assert sheet_failures(text, order) == [], (text, order)

    @pytest.mark.parametrize("text", LARGE_LEADS + BINOMIALS + SMALL_RADII + STIFF_COLUMNS)
    def test_fixed_and_large_leading_inputs(self, text):
        for order in (None, 1):
            assert sheet_failures(text, order) == [], order

    def test_benchmark_corpus_sample(self, monkeypatch):
        # the 300 F that the analyze_corpus workload draws at seed 1
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        for support in workloads.corpus(1):
            text = workloads.render(support)
            assert sheet_failures(text) == [], text

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="_cluster_roots merges the roots 1..8 into one cluster, "
        "printed as y = 4.5x of multiplicity 8",
    )
    def test_eight_distinct_lines(self):
        text = "*".join(f"(y-{k}*x)" for k in range(1, 9))
        assert sheet_failures(text) == []

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="the roots 1 and 1.001 merge, so the sheets x +- x^2 print "
        "with 666.67*x^3 terms about their cluster mean",
    )
    def test_four_factors_at_order_three(self):
        assert sheet_failures("(y-x)*(1000*y-1001*x)*(y-x-x^2)*(y-x+x^2)", 3) == []

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="_snap zeroes the x^4 root, about 5.5e-11, against max(1, |z|), "
        "so y = 0.012x^2 - 5.76e-7x^3 claims order 4 but misses by that x^4 term",
    )
    def test_fourth_term_below_the_snap_tolerance(self):
        assert sheet_failures("y^2 + 250*x*y - 3*x^3") == []
