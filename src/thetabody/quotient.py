"""Quotient-ring oracles: ordered monomial bases and multiplication tables.

Four families are supported, one per ideal class:

* vanishing ideals of finite point sets (evaluation elimination),
* stable-set ideals of graphs (squarefree union rule),
* cut ideals of graphs (symmetric difference of even vertex sets),
* ideals presented by a confluent marked reducer set, including principal
  ideals.

Every oracle exposes the same surface: an ordered basis whose element 0 is the
constant monomial, coordinate reconstruction for each variable (possibly as a
linear form when the input is affinely degenerate), sparse product expansion
within the basis, and exact reduction of arbitrary polynomials to a canonical
representative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .polycore import (
    DEFAULT_ORDER,
    Monomial,
    Polynomial,
    ReducerSet,
    monomials_of_degree,
    normal_form,
    storage_key,
)

Coords = dict[int, Fraction]


class CapExceededError(ValueError):
    """A configured size cap was exceeded."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with sorted edge tuples."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_edge_lookup", frozenset(self.edges))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        clean = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            clean.add((min(u, v), max(u, v)))
        return cls(n, tuple(sorted(clean)))

    @classmethod
    def from_json(cls, obj) -> "Graph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ValueError('graph JSON must be {"n": int, "edges": [[u,v],...]}')
        return cls.from_edges(int(obj["n"]), obj["edges"])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_lookup

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {1}
        stack = [1]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def cycle_graph(n: int) -> Graph:
    """The n-cycle 1-2-...-n-1."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


@dataclass(frozen=True)
class ThetaBasis:
    """Degree-nondecreasing ordered monomial basis, element 0 the constant."""

    elements: tuple[Monomial, ...]
    order: str
    labels: tuple | None = None

    def __post_init__(self):
        if not self.elements:
            raise ValueError("empty basis")
        if self.elements[0].degree != 0:
            raise ValueError("basis element 0 must be the constant monomial")
        degs = [m.degree for m in self.elements]
        if any(a > b for a, b in zip(degs, degs[1:])):
            raise ValueError("basis must be ordered by nondecreasing degree")

    def __len__(self) -> int:
        return len(self.elements)

    def size_at(self, k: int) -> int:
        """Number of basis elements of degree <= k (the B_k prefix length)."""
        count = 0
        for m in self.elements:
            if m.degree > k:
                break
            count += 1
        return count


class QuotientOracle:
    """Common surface over the per-ideal implementations.

    Attributes
    ----------
    nvars: ambient variable count.
    order: graded term order id.
    basis: ThetaBasis of monomial representatives.
    depth: largest total degree D such that every product f_i * f_j with
        deg f_i + deg f_j <= D expands inside the stored basis; None means
        unrestricted (finite-point oracles).
    degenerate_coords: for each variable x_i that is not itself a basis
        element, its expansion as a linear form over basis indices.
    """

    nvars: int
    order: str
    basis: ThetaBasis
    depth: int | None
    degenerate_coords: dict[int, Coords]

    def __init__(self):
        self._index: dict[Monomial, int] = {}
        self._product_cache: dict[tuple[int, int], Coords] = {}

    def _finish_init(self) -> None:
        self._index = {m: i for i, m in enumerate(self.basis.elements)}
        self._product_cache = {}

    def index_of(self, m: Monomial) -> int | None:
        return self._index.get(m)

    def size_at(self, k: int) -> int:
        return self.basis.size_at(k)

    def coord_form(self, i: int) -> Coords:
        """x_{i+1} as a sparse linear form over basis indices."""
        idx = self._index.get(Monomial.variable(i, self.nvars))
        if idx is not None:
            return {idx: Fraction(1)}
        return dict(self.degenerate_coords[i])

    def product_coords(self, i: int, j: int) -> Coords:
        """Coordinates of f_i * f_j over the basis (symmetric in i, j)."""
        if i > j:
            i, j = j, i
        key = (i, j)
        cached = self._product_cache.get(key)
        if cached is None:
            fi, fj = self.basis.elements[i], self.basis.elements[j]
            if self.depth is not None and fi.degree + fj.degree > self.depth:
                raise ValueError(
                    f"product degree {fi.degree + fj.degree} exceeds oracle depth {self.depth}"
                )
            cached = self._product_impl(i, j)
            self._product_cache[key] = cached
        return dict(cached)

    def _product_impl(self, i: int, j: int) -> Coords:
        raise NotImplementedError

    def reduce_poly(self, f: Polynomial) -> Polynomial:
        """Canonical representative of f modulo the ideal; exact."""
        raise NotImplementedError

    def eval_basis(self, point: Sequence, count: int | None = None) -> list:
        """Evaluate the first `count` basis monomials at a point."""
        n = len(self.basis.elements) if count is None else count
        return [self.basis.elements[i].evaluate(point) for i in range(n)]

    def coords_to_poly(self, coords: Coords) -> Polynomial:
        terms = {self.basis.elements[l]: c for l, c in coords.items()}
        return Polynomial(terms, self.nvars)


def _sort_with_labels(monos: list[Monomial], labels: list | None, order: str):
    idx = sorted(range(len(monos)), key=lambda i: storage_key(monos[i], order))
    sorted_monos = tuple(monos[i] for i in idx)
    sorted_labels = tuple(labels[i] for i in idx) if labels is not None else None
    return sorted_monos, sorted_labels, idx


class _RowReducer:
    """Incremental exact Gaussian elimination with expansion bookkeeping.

    Each stored row keeps the reduced vector together with its expression in
    terms of the accepted original columns, so dependent vectors come back
    with their expansion coefficients for free.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list[tuple[int, list[Fraction], Coords]] = []

    def _reduce(self, vec: Sequence[Fraction]):
        v = [Fraction(x) for x in vec]
        expansion: Coords = {}
        for pivot, rvec, rexpr in self.rows:
            f = v[pivot] / rvec[pivot]
            if f:
                for t in range(self.length):
                    if rvec[t]:
                        v[t] -= f * rvec[t]
                for col, c in rexpr.items():
                    s = expansion.get(col, Fraction(0)) + f * c
                    if s:
                        expansion[col] = s
                    else:
                        expansion.pop(col, None)
        return v, expansion

    def expand(self, vec: Sequence[Fraction]) -> Coords | None:
        """Expansion over accepted columns, or None if vec is independent."""
        v, expansion = self._reduce(vec)
        if any(v):
            return None
        return expansion

    def try_add(self, vec: Sequence[Fraction], col_id: int) -> Coords | None:
        """Accept vec as a new column; return its expansion if dependent."""
        v, expansion = self._reduce(vec)
        pivot = next((t for t in range(self.length) if v[t]), None)
        if pivot is None:
            return expansion
        expr: Coords = {col_id: Fraction(1)}
        for col, c in expansion.items():
            if c:
                expr[col] = expr.get(col, Fraction(0)) - c
        self.rows.append((pivot, v, expr))
        return None


class PointsOracle(QuotientOracle):
    """Quotient modulo the vanishing ideal of a finite point set."""

    def __init__(self, points, order: str):
        super().__init__()
        self.points = points
        self.nvars = len(points[0])
        self.order = order
        self.depth = None
        self._build()

    def _build(self) -> None:
        npts = len(self.points)
        reducer = _RowReducer(npts)
        selected: list[Monomial] = []
        leading: list[Monomial] = []
        degen_raw: dict[int, Coords] = {}
        degree = 0
        # degree 1 is always scanned in full so that dependent coordinates are
        # recorded even when the basis is already complete
        while len(selected) < npts or degree <= 1:
            cands = [
                m
                for m in monomials_of_degree(self.nvars, degree)
                if not any(lm.divides(m) for lm in leading)
            ]
            cands.sort(key=lambda m: storage_key(m, self.order))
            for m in cands:
                vec = [m.evaluate(p) for p in self.points]
                expansion = reducer.try_add(vec, len(selected))
                if expansion is None:
                    selected.append(m)
                else:
                    leading.append(m)
                    if m.degree == 1:
                        var = next(i for i, e in enumerate(m.exps) if e)
                        degen_raw[var] = expansion
            degree += 1
        self._reducer = reducer
        elements, _, perm = _sort_with_labels(selected, None, self.order)
        self.basis = ThetaBasis(elements, self.order)
        self._finish_init()
        # try_add bookkeeping refers to selection order; remap to storage order
        sel_to_final = {old: new for new, old in enumerate(perm)}
        self._sel_to_final = sel_to_final
        self.degenerate_coords = {
            var: {sel_to_final[c]: v for c, v in expr.items()}
            for var, expr in degen_raw.items()
        }
        self._vectors = [
            [m.evaluate(p) for p in self.points] for m in self.basis.elements
        ]

    def _expand_vector(self, vec: Sequence[Fraction]) -> Coords:
        expansion = self._reducer.expand(vec)
        if expansion is None:
            raise RuntimeError("vector outside the span of the point evaluations")
        return {self._sel_to_final[c]: v for c, v in expansion.items() if v}

    def _product_impl(self, i: int, j: int) -> Coords:
        vec = [a * b for a, b in zip(self._vectors[i], self._vectors[j])]
        return self._expand_vector(vec)

    def reduce_poly(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        vec = [f.evaluate(p) for p in self.points]
        return self.coords_to_poly(self._expand_vector(vec))


def basis_points(points: Sequence[Sequence], order: str = DEFAULT_ORDER) -> PointsOracle:
    """Oracle for the vanishing ideal of distinct points (exact rationals)."""
    pts = tuple(tuple(Fraction(c) for c in p) for p in points)
    if not pts:
        raise ValueError("need at least one point")
    nvars = len(pts[0])
    if any(len(p) != nvars for p in pts):
        raise ValueError("points disagree on dimension")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    return PointsOracle(pts, order)


def _stable_sets_up_to(graph: Graph, max_size: int) -> list[frozenset]:
    adjacent = frozenset(graph.edges)
    out: list[frozenset] = [frozenset()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_size):
        nxt: list[tuple[int, ...]] = []
        for tup in frontier:
            start = tup[-1] + 1 if tup else 1
            for v in range(start, graph.n + 1):
                if all((min(u, v), max(u, v)) not in adjacent for u in tup):
                    new = tup + (v,)
                    nxt.append(new)
                    out.append(frozenset(new))
        frontier = nxt
        if not frontier:
            break
    return out


class StableSetOracle(QuotientOracle):
    """Quotient modulo the stable-set ideal of a graph.

    Basis elements are squarefree monomials of stable sets; the product of two
    stable-set monomials is the monomial of their union, or zero when the
    union is not stable.
    """

    def __init__(self, graph: Graph, depth: int):
        super().__init__()
        self.graph = graph
        self.nvars = graph.n
        self.order = DEFAULT_ORDER
        self.depth = depth
        sets = _stable_sets_up_to(graph, depth)
        monos = [
            Monomial(tuple(1 if v + 1 in s else 0 for v in range(graph.n)))
            for s in sets
        ]
        elements, labels, _ = _sort_with_labels(monos, sets, self.order)
        self.basis = ThetaBasis(elements, self.order, labels)
        self._finish_init()
        self._label_index = {lab: i for i, lab in enumerate(labels)}
        self.degenerate_coords = {}

    def _product_impl(self, i: int, j: int) -> Coords:
        union = self.basis.labels[i] | self.basis.labels[j]
        idx = self._label_index.get(union)
        if idx is None:
            return {}
        return {idx: Fraction(1)}

    def _is_stable(self, s: frozenset) -> bool:
        return all(not self.graph.has_edge(u, v) for u, v in itertools.combinations(s, 2))

    def reduce_poly(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        acc: dict[frozenset, Fraction] = {}
        for m, c in f.terms.items():
            support = frozenset(i + 1 for i, e in enumerate(m.exps) if e)
            if self._is_stable(support):
                acc[support] = acc.get(support, Fraction(0)) + c
        terms = {
            Monomial(tuple(1 if v + 1 in s else 0 for v in range(self.nvars))): c
            for s, c in acc.items()
        }
        return Polynomial(terms, self.nvars)


def stable_set_reducers(graph: Graph) -> ReducerSet:
    """Confluent reducers x_i^2 - x_i and x_i x_j over edges."""
    n = graph.n
    polys = []
    for i in range(n):
        xi = Monomial.variable(i, n)
        polys.append(Polynomial({xi * xi: 1, xi: -1}, n))
    for u, v in graph.edges:
        m = Monomial.variable(u - 1, n) * Monomial.variable(v - 1, n)
        polys.append(Polynomial({m: 1}, n))
    return ReducerSet(polys, DEFAULT_ORDER, confluent=True)


def basis_stable_set(graph: Graph, k: int) -> StableSetOracle:
    """Stable-set oracle deep enough to build the level-k moment matrix."""
    if k < 1:
        raise ValueError("level must be >= 1")
    return StableSetOracle(graph, depth=2 * k)


class CutIdealOracle(QuotientOracle):
    """Quotient modulo the cut ideal of a connected graph.

    Variables are edge variables (lexicographic edge order).  Basis elements
    are indexed by even vertex subsets T via a minimum-cardinality T-join;
    products depend only on the symmetric difference of the labels.
    """

    def __init__(self, graph: Graph, depth: int, join_cap: int):
        super().__init__()
        if not graph.is_connected():
            raise ValueError("cut ideal oracle requires a connected graph")
        self.graph = graph
        self.edges = graph.edges
        self.nvars = len(self.edges)
        self.order = DEFAULT_ORDER
        self.depth = depth
        self.join_cap = join_cap
        if depth > 2 and self.nvars > join_cap:
            raise CapExceededError(
                f"T-join search over {self.nvars} edges exceeds cap {join_cap}"
            )
        self._joins: dict[frozenset, tuple[int, ...]] = {}
        for size in range(min(depth, self.nvars) + 1):
            for combo in itertools.combinations(range(self.nvars), size):
                t = self._odd_vertices(combo)
                if t not in self._joins:
                    self._joins[t] = combo
        labels = list(self._joins.keys())
        monos = [self._join_monomial(self._joins[t]) for t in labels]
        elements, slabels, _ = _sort_with_labels(monos, labels, self.order)
        self.basis = ThetaBasis(elements, self.order, slabels)
        self._finish_init()
        self._label_index = {lab: i for i, lab in enumerate(slabels)}
        self.degenerate_coords = {}

    def _odd_vertices(self, edge_idxs: Iterable[int]) -> frozenset:
        deg: dict[int, int] = {}
        for e in edge_idxs:
            u, v = self.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return frozenset(v for v, d in deg.items() if d % 2)

    def _join_monomial(self, edge_idxs: Iterable[int]) -> Monomial:
        exps = [0] * self.nvars
        for e in edge_idxs:
            exps[e] = 1
        return Monomial(exps)

    def minimal_join(self, t: frozenset) -> tuple[int, ...]:
        """Minimum-cardinality T-join, lexicographic tie break; cached."""
        cached = self._joins.get(t)
        if cached is not None:
            return cached
        if self.nvars > self.join_cap:
            raise CapExceededError(
                f"T-join search over {self.nvars} edges exceeds cap {self.join_cap}"
            )
        for size in range(self.nvars + 1):
            for combo in itertools.combinations(range(self.nvars), size):
                if self._odd_vertices(combo) == t:
                    self._joins[t] = combo
                    return combo
        raise ValueError(f"no T-join for T={sorted(t)}")

    def _product_impl(self, i: int, j: int) -> Coords:
        t = self.basis.labels[i] ^ self.basis.labels[j]
        idx = self._label_index.get(t)
        if idx is None:
            # minimality forces |H_T| <= deg f_i + deg f_j <= depth
            raise AssertionError(f"product label {sorted(t)} missing from basis")
        return {idx: Fraction(1)}

    def reduce_poly(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        acc: dict[frozenset, Fraction] = {}
        for m, c in f.terms.items():
            edge_idxs = tuple(i for i, e in enumerate(m.exps) if e % 2)
            t = self._odd_vertices(edge_idxs)
            acc[t] = acc.get(t, Fraction(0)) + c
        terms: dict[Monomial, Fraction] = {}
        for t, c in acc.items():
            mono = self._join_monomial(self.minimal_join(t))
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return Polynomial(terms, self.nvars)


def basis_cut_ideal(graph: Graph, k: int, join_cap: int = 16) -> CutIdealOracle:
    """Cut-ideal oracle deep enough to build the level-k moment matrix."""
    if k < 1:
        raise ValueError("level must be >= 1")
    return CutIdealOracle(graph, depth=2 * k, join_cap=join_cap)


def cut_vectors(graph: Graph) -> list[tuple[int, ...]]:
    """All +-1 cut vectors of the graph, one per vertex bipartition."""
    out = []
    rest = list(range(2, graph.n + 1))
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            side = {1} | set(combo)
            vec = tuple(
                -1 if (u in side) != (v in side) else 1 for u, v in graph.edges
            )
            out.append(vec)
    return sorted(set(out), reverse=True)


class ReducerOracle(QuotientOracle):
    """Quotient presented by a confluent marked reducer set, truncated at a depth."""

    def __init__(self, reducers: ReducerSet, depth: int):
        super().__init__()
        if not reducers.confluent:
            raise ValueError("reducer oracle needs a confluent reducer set")
        if any(m.degree == 0 for m in reducers.marks):
            raise ValueError("a constant marked monomial generates the whole ring")
        self.reducer_set = reducers
        self.nvars = reducers.nvars
        self.order = reducers.order
        self.depth = depth
        monos = [
            m
            for d in range(depth + 1)
            for m in monomials_of_degree(self.nvars, d)
            if not any(mark.divides(m) for mark in reducers.marks)
        ]
        elements, _, _ = _sort_with_labels(monos, None, self.order)
        self.basis = ThetaBasis(elements, self.order)
        self._finish_init()
        self.degenerate_coords = {}
        for i in range(self.nvars):
            xi = Monomial.variable(i, self.nvars)
            if xi not in self._index:
                nf = normal_form(Polynomial({xi: 1}, self.nvars), reducers)
                self.degenerate_coords[i] = self._poly_coords(nf)

    def _poly_coords(self, f: Polynomial) -> Coords:
        coords: Coords = {}
        for m, c in f.terms.items():
            idx = self._index.get(m)
            if idx is None:
                raise ValueError(
                    f"normal form term {m} of degree {m.degree} falls outside the "
                    f"depth-{self.depth} basis"
                )
            coords[idx] = c
        return coords

    def _product_impl(self, i: int, j: int) -> Coords:
        prod = Polynomial({self.basis.elements[i] * self.basis.elements[j]: 1}, self.nvars)
        return self._poly_coords(normal_form(prod, self.reducer_set))

    def reduce_poly(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.reducer_set)


def basis_from_reducers(reducers: ReducerSet, k: int) -> ReducerOracle:
    if k < 1:
        raise ValueError("level must be >= 1")
    return ReducerOracle(reducers, depth=2 * k)


def basis_principal(h: Polynomial, order: str = DEFAULT_ORDER, k: int = 1) -> ReducerOracle:
    """Oracle for the principal ideal generated by h (singleton reducer)."""
    if h.is_zero or h.degree == 0:
        raise ValueError("generator must be nonzero and nonconstant")
    monic = h * (Fraction(1) / h.leading_coefficient(order))
    return basis_from_reducers(ReducerSet([monic], order), k)


def permutation_points(
    n: int, generators: Sequence[Sequence[int]], cap: int = 5040
) -> list[tuple[Fraction, ...]]:
    """Flattened permutation matrices of the generated group, as 0/1 points.

    Generators use one-line notation on 1..n; the group is closed by
    breadth-first composition and refused beyond `cap` elements.
    """
    gens = []
    for g in generators:
        tup = tuple(int(x) for x in g)
        if sorted(tup) != list(range(1, n + 1)):
            raise ValueError(f"{g} is not a permutation of 1..{n}")
        gens.append(tup)
    identity = tuple(range(1, n + 1))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i] - 1] for i in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
                    if len(group) > cap:
                        raise CapExceededError(
                            f"group order exceeds cap {cap}"
                        )
        frontier = nxt
    points = []
    for p in sorted(group):
        flat = [Fraction(0)] * (n * n)
        for i in range(n):
            flat[i * n + (p[i] - 1)] = Fraction(1)
        points.append(tuple(flat))
    return points


@dataclass(frozen=True)
class IdealSpec:
    """Declarative description of a supported ideal, buildable at a level k.

    kind is one of "points", "stable_set", "cut", "principal"; exactly the
    matching payload field is set.
    """

    kind: str
    points: tuple | None = None
    graph: Graph | None = None
    generator: Polynomial | None = None
    order: str = DEFAULT_ORDER

    def build(self, k: int) -> QuotientOracle:
        if self.kind == "points":
            return basis_points(self.points, self.order)
        if self.kind == "stable_set":
            return basis_stable_set(self.graph, k)
        if self.kind == "cut":
            return basis_cut_ideal(self.graph, k)
        if self.kind == "principal":
            return basis_principal(self.generator, self.order, k)
        raise ValueError(f"unknown ideal kind {self.kind!r}")
