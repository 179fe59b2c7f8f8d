import itertools
import math
import random
from fractions import Fraction

import pytest

from thetabody.exactness import (
    MAX_HULL_DIM,
    MAX_POINTS,
    enumerate_facets,
    level_report,
    th1_exact_finite,
)
from thetabody.quotient import CapExceededError, basis_points, permutation_points
from thetabody.thetaops import maximize_linear, theta_problem

CUBE = list(itertools.product([0, 1], repeat=3))
SIMPLEX = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
CROSS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
B4 = permutation_points(4, [[2, 1, 3, 4], [2, 3, 4, 1]])


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def reference_facets(S) -> list[tuple]:
    """(normal, offset) of every facet, by exhaustive search over d-subsets.

    Every d affinely independent points span a hyperplane of the affine hull,
    a facet when all points lie on one side.  Works in the integer coordinates
    y = B(p - p0), B a basis of the difference span: the hyperplane normal nu
    is a generalized cross product, and B^T nu is the ambient normal in the
    span of B.  Normals are made primitive over (normal, offset) and sorted.
    """
    pts = [tuple(Fraction(c) for c in p) for p in S]
    if len(pts) > MAX_POINTS:
        raise CapExceededError("points")
    denom = math.lcm(*(c.denominator for p in pts for c in p))
    diffs = [[int((a - b) * denom) for a, b in zip(p, pts[0])] for p in pts]
    basis: list[list[int]] = []
    for v in diffs:
        for b in basis:
            piv = next(t for t, x in enumerate(b) if x)
            v = [x * b[piv] - y * v[piv] for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    d = len(basis)
    if d == 0:
        raise ValueError("single point")
    if d > MAX_HULL_DIM:
        raise CapExceededError("dimension")
    y = [[sum(a * b for a, b in zip(row, v)) for row in basis] for v in diffs]
    found = set()
    for combo in itertools.combinations(range(len(pts)), d):
        y0 = y[combo[0]]
        rows = [[a - b for a, b in zip(y[i], y0)] for i in combo[1:]]
        nu = [(-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)]
        if not any(nu):
            continue
        side = [sum(n * (a - b) for n, a, b in zip(nu, yp, y0)) for yp in y]
        if all(v >= 0 for v in side):
            nu = [-n for n in nu]
        elif any(v > 0 for v in side):
            continue
        normal = [sum(n * row[t] for n, row in zip(nu, basis)) for t in range(len(pts[0]))]
        vals = normal + [sum(n * c for n, c in zip(normal, pts[combo[0]]))]
        den = math.lcm(*(Fraction(v).denominator for v in vals))
        ints = [int(v * den) for v in vals]
        g = math.gcd(*ints)
        found.add(tuple(x // g for x in ints))
    return [(tuple(Fraction(x) for x in k[:-1]), Fraction(k[-1])) for k in sorted(found)]


def _embed(rng: random.Random, pts: list[tuple]) -> list[tuple]:
    """Image of pts under a random integer affine map into a larger space."""
    dim = len(pts[0])
    amb = dim + rng.randint(0, 3)
    a = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(amb)]
    b = [rng.randint(-3, 3) for _ in range(amb)]
    return [tuple(sum(r[j] * p[j] for j in range(dim)) + c for r, c in zip(a, b)) for p in pts]


def _random_sets() -> list[list[tuple]]:
    rng = random.Random(20261018)
    grid = sorted({Fraction(a, b) for a in range(-2, 3) for b in (1, 2)})
    cube4 = list(itertools.product([0, 1], repeat=4))
    cross4 = [tuple(s * (j == i) for j in range(4)) for i in range(4) for s in (1, -1)]
    # many points on few hyperplanes; the 5-dimensional pools are where the
    # adjacency test decides between pairs sharing d - 1 tight points
    pools = [
        cube4,
        cube4 + cross4,
        CUBE + [(Fraction(1, 2), 1, 0), (0, Fraction(1, 2), 1)],
        list(itertools.product([0, 1], repeat=5)),
        [p for p in itertools.product([0, 1], repeat=6) if sum(p) == 3],
    ]
    sets = []
    for k in range(200):
        if k % 2:
            pool = rng.choice(pools)
            pts = rng.sample(pool, rng.randint(2, min(12, len(pool))))
        else:
            dim, n = rng.randint(1, 5), rng.randint(1, 14)
            pts = list({tuple(rng.choice(grid) for _ in range(dim)) for _ in range(n)})
        if rng.random() < 0.5:
            pts = _embed(rng, pts)
        pts = list(dict.fromkeys(pts))
        rng.shuffle(pts)
        sets.append(pts)
    simplex10 = [tuple(int(j == i) for j in range(10)) for i in range(10)] + [(0,) * 10]
    return sets + [simplex10, [(i, i * i) for i in range(65)]]


def _outcome(fn, pts):
    try:
        return fn(pts)
    except (ValueError, CapExceededError) as exc:
        return type(exc)


class TestEnumerateFacets:
    def test_unit_square(self):
        assert len(enumerate_facets([(0, 0), (1, 0), (0, 1), (1, 1)])) == 4

    def test_cube(self):
        assert len(enumerate_facets(CUBE)) == 6

    def test_cross_polytope(self):
        assert len(enumerate_facets(CROSS)) == 8

    def test_pentagon_stable_polytope(self, pentagon_vertices):
        facets = enumerate_facets(pentagon_vertices)
        as_set = {(f.normal, f.offset) for f in facets}
        expected = set()
        for i in range(5):
            normal = [0] * 5
            normal[i] = -1
            expected.add((tuple(Fraction(v) for v in normal), Fraction(0)))
        for i in range(5):
            normal = [0] * 5
            normal[i] = 1
            normal[(i + 1) % 5] = 1
            expected.add((tuple(Fraction(v) for v in normal), Fraction(1)))
        expected.add((tuple(Fraction(1) for _ in range(5)), Fraction(2)))
        assert as_set == expected

    def test_every_facet_valid_on_points(self, pentagon_vertices):
        for pts in (CUBE, SIMPLEX, CROSS, pentagon_vertices):
            for facet in enumerate_facets(pts):
                for p in pts:
                    assert facet.value(p) >= 0

    def test_point_caps(self):
        too_many = [(i, i**2) for i in range(65)]
        with pytest.raises(CapExceededError):
            enumerate_facets(too_many)

    def test_dimension_cap(self):
        simplex10 = [tuple(1 if j == i else 0 for j in range(10)) for i in range(10)]
        simplex10.append((0,) * 10)
        with pytest.raises(CapExceededError):
            enumerate_facets(simplex10)

    def test_birkhoff_polytope(self):
        # B4: the 16 facets are x_ij >= 0, each tight where x_ij = 0
        tight = {frozenset(p for p in B4 if f.value(p) == 0) for f in enumerate_facets(B4)}
        assert tight == {frozenset(p for p in B4 if p[k] == 0) for k in range(16)}
        assert level_report(B4).hull_dim == 9

    def test_matches_subset_search(self):
        for pts in _random_sets():
            want = _outcome(reference_facets, pts)
            got = _outcome(enumerate_facets, pts)
            if isinstance(want, list):
                got = [(f.normal, f.offset) for f in got]
            assert got == want, pts

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            enumerate_facets([(1, 2)])

    def test_degenerate_embedding(self):
        flat = [(0, 0, 5), (1, 0, 5), (0, 1, 5), (1, 1, 5)]
        facets = enumerate_facets(flat)
        assert len(facets) == 4
        for f in facets:
            for p in flat:
                assert f.value(p) >= 0


class TestLevelReport:
    def test_cube_is_2_level(self):
        rep = level_report(CUBE)
        assert rep.is_2_level and rep.overall_level == 2 and rep.th_k_bound == 1

    def test_simplex_is_2_level(self):
        assert level_report(SIMPLEX).is_2_level

    def test_cross_polytope_is_2_level(self):
        assert level_report(CROSS).is_2_level

    def test_pentagon_is_3_level(self, pentagon_vertices):
        rep = level_report(pentagon_vertices)
        assert not rep.is_2_level
        assert rep.overall_level == 3
        assert rep.th_k_bound == 2
        # the single 3-level facet is the full-support rank inequality
        idx = rep.levels.index(3)
        assert rep.facets[idx].normal == tuple(Fraction(1) for _ in range(5))
        assert rep.facet_values[idx] == (Fraction(0), Fraction(1), Fraction(2))

    def test_neighbor_truncated_cube_is_3_level(self):
        pts = [p for p in CUBE if p != (1, 1, 1)]
        rep = level_report(pts)
        assert rep.overall_level == 3
        assert not rep.is_2_level

    def test_midedge_truncated_cube_not_2_level(self):
        pts = [p for p in CUBE if p != (1, 1, 1)] + [
            (1, 1, Fraction(1, 2)),
            (1, Fraction(1, 2), 1),
            (Fraction(1, 2), 1, 1),
        ]
        assert not th1_exact_finite(pts)


class TestTh1Exact:
    def test_square_vertices(self):
        assert th1_exact_finite([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_pentagon_vertices(self, pentagon_vertices):
        assert not th1_exact_finite(pentagon_vertices)

    def test_group_polytope(self):
        pts = permutation_points(3, [[2, 1, 3], [2, 3, 1]])
        assert th1_exact_finite(pts)


class TestCrossValidation:
    """The 2-level verdict must agree with the level-1 relaxation being tight."""

    def check(self, pts, objectives, expect_exact):
        oracle = basis_points(pts)
        p = theta_problem(oracle, 1)
        mismatched = False
        for c in objectives:
            sdp = maximize_linear(p, c).value
            lp = max(sum(ci * float(vi) for ci, vi in zip(c, v)) for v in pts)
            if abs(sdp - lp) > 1e-5:
                mismatched = True
                assert sdp > lp  # outer relaxation can only overshoot
        assert th1_exact_finite(pts) == (not mismatched) == expect_exact

    def test_cube(self):
        rng = random.Random(11)
        objectives = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(8)]
        self.check(CUBE, objectives, True)

    def test_pentagon(self, pentagon_vertices):
        rng = random.Random(20240811)
        objectives = [[rng.random() for _ in range(5)] for _ in range(25)]
        self.check(pentagon_vertices, objectives, False)

    def test_birkhoff_polytope(self):
        rng = random.Random(44)
        objectives = [[rng.uniform(-1, 1) for _ in range(16)] for _ in range(25)]
        self.check(B4, objectives, True)
