"""Facet enumeration and level counting for small finite point sets.

Everything is exact rational arithmetic.  Points are first projected into
their affine hull; facets of the hull polytope are found by the
double-description method on integer data (Motzkin et al. 1953; Fukuda and
Prodon 1996) and lifted back to ambient coordinates.  The level of a facet is
the number of distinct values its functional takes on the point set; a
polytope all of whose facets have level 2 certifies that the first theta body
of the point set's vanishing ideal is already its convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .quotient import CapExceededError, _RowReducer

MAX_HULL_DIM = 9
MAX_POINTS = 64


@dataclass(frozen=True)
class Facet:
    """Halfspace l(x) = offset - normal.x >= 0, valid on S and tight on a facet."""

    normal: tuple
    offset: Fraction

    def value(self, point: Sequence) -> Fraction:
        return self.offset - sum(n * Fraction(x) for n, x in zip(self.normal, point))


@dataclass
class LevelReport:
    facets: list[Facet]
    levels: list[int]
    facet_values: list[tuple]
    overall_level: int
    is_2_level: bool
    th_k_bound: int
    hull_dim: int = 0


def _exact_points(S: Sequence[Sequence]) -> list[tuple]:
    pts = [tuple(Fraction(c) for c in p) for p in S]
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points disagree on dimension")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    return pts


def _affine_frame(pts: list[tuple]):
    """(origin, basis rows, hull coordinates of every point, frame points).

    The frame points are the indices of the affinely independent points the
    basis is drawn from: the origin, then one point per basis row.
    """
    origin = pts[0]
    diffs = [[a - b for a, b in zip(p, origin)] for p in pts]
    reducer = _RowReducer(len(origin))
    basis: list[list[Fraction]] = []
    frame = [0]
    for i, row in enumerate(diffs[1:], 1):
        if reducer.try_add(row, len(basis)) is None:
            basis.append(row)
            frame.append(i)
    coords = []
    for row in diffs:
        expansion = reducer.expand(row)
        coords.append(tuple(expansion.get(i, Fraction(0)) for i in range(len(basis))))
    return origin, basis, coords, frame


def _inverse_columns(columns: list[list]) -> list[list[Fraction]]:
    """Columns of the inverse of the square matrix with the given columns."""
    n = len(columns)
    reducer = _RowReducer(n)
    for j, col in enumerate(columns):
        reducer.try_add(col, j)
    out = []
    for k in range(n):
        expansion = reducer.expand([int(t == k) for t in range(n)])
        out.append([expansion.get(j, Fraction(0)) for j in range(n)])
    return out


def _primitive(vals: list[Fraction]) -> list[int]:
    denom = lcm(*(v.denominator for v in vals))
    ints = [int(v * denom) for v in vals]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


def _hull_rays(coords: list[tuple], frame: list[int]) -> list[list[int]]:
    """Facets (beta, a) of conv(coords), as beta - a.x >= 0 with integer entries.

    Double description: these are the extreme rays of the pointed cone
    {(beta, a) : h_i.(beta, a) >= 0} with h_i = D (1, -x_i), D the common
    denominator of the coordinates.  The cone of the frame points is
    simplicial; every other point then cuts the current cone, and each new
    ray comes from a pair of adjacent rays on opposite sides of its
    hyperplane.  Tight sets are bitmasks over point indices.
    """
    d = len(coords[0])
    denom = lcm(*(c.denominator for x in coords for c in x))
    rows = [[denom] + [-int(c * denom) for c in x] for x in coords]
    start = _inverse_columns([[rows[i][t] for i in frame] for t in range(d + 1)])
    spanned = sum(1 << i for i in frame)
    rays = [
        (_primitive(start[k]), spanned & ~(1 << i)) for k, i in enumerate(frame)
    ]
    framed = set(frame)
    for i, h in enumerate(rows):
        if i in framed:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for r, z in rays:
            s = sum(a * b for a, b in zip(h, r))
            if s > 0:
                pos.append((r, z, s))
                kept.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                kept.append((r, z | bit))
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < d - 1:
                    continue
                # adjacent iff no third ray is tight on the whole common set;
                # distinct extreme rays have distinct tight sets
                if any((z & common) == common and z != zp and z != zn for _, z in rays):
                    continue
                ray = _primitive([sp * b - sn * a for a, b in zip(rp, rn)])
                kept.append((ray, common | bit))
        rays = kept
    return [r for r, _ in rays]


def _lift_facet(ray: list[int], origin: tuple, lift: list[list[Fraction]]) -> Facet:
    """Ambient halfspace inducing the frame halfspace beta - a.x >= 0 on the affine hull."""
    beta, *a = ray
    normal = [sum(m * c for m, c in zip(row, a)) for row in lift]
    offset = beta + sum(n * o for n, o in zip(normal, origin))
    # primitive integer scaling preserves orientation (positive multiplier)
    ints = _primitive(normal + [offset])
    return Facet(tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1]))


def _facets(pts: list[tuple]) -> tuple[list[Facet], int]:
    """Sorted facets of conv(pts) in ambient coordinates, and the hull dimension."""
    if len(pts) > MAX_POINTS:
        raise CapExceededError(f"{len(pts)} points exceeds cap {MAX_POINTS}")
    origin, basis, coords, frame = _affine_frame(pts)
    d = len(basis)
    if d == 0:
        raise ValueError("point set is a single point; no facets")
    if d > MAX_HULL_DIM:
        raise CapExceededError(f"hull dimension {d} exceeds cap {MAX_HULL_DIM}")
    # the ambient normal inducing frame normal a is the one in the span of the
    # basis, basis^T G^{-1} a with G the basis Gram matrix: one lift for all
    gram = [[sum(u * v for u, v in zip(bi, bj)) for bj in basis] for bi in basis]
    ginv = _inverse_columns(gram)
    lift = [
        [sum(b[t] * g for b, g in zip(basis, col)) for col in ginv]
        for t in range(len(origin))
    ]
    facets = [_lift_facet(ray, origin, lift) for ray in _hull_rays(coords, frame)]
    facets.sort(key=lambda f: (f.normal, f.offset))
    return facets, d


def enumerate_facets(S: Sequence[Sequence]) -> list[Facet]:
    """All facets of conv(S), exact, in ambient coordinates.

    Found by the double-description method in the affine hull; refuses
    inputs beyond the configured caps.
    """
    return _facets(_exact_points(S))[0]


def level_report(S: Sequence[Sequence]) -> LevelReport:
    """Distinct-value counts of every facet functional over the point set."""
    pts = _exact_points(S)
    facets, hull_dim = _facets(pts)
    levels = []
    values = []
    for f in facets:
        vals = tuple(sorted(set(f.value(p) for p in pts)))
        values.append(vals)
        levels.append(len(vals))
    overall = max(levels)
    return LevelReport(
        facets=facets,
        levels=levels,
        facet_values=values,
        overall_level=overall,
        is_2_level=overall <= 2,
        th_k_bound=overall - 1,
        hull_dim=hull_dim,
    )


def th1_exact_finite(S: Sequence[Sequence]) -> bool:
    """Whether the first theta body of I(S) is exactly conv(S).

    Holds precisely when every facet hyperplane has a single parallel
    translate containing all remaining points (the 2-level property).
    """
    return level_report(S).is_2_level
