"""Symbolic moment matrices: symmetric templates of sparse linear forms.

A template is the matrix of basis products with every basis element replaced
by a formal coordinate, stored as upper-triangular sparse linear forms with
exact rational coefficients.  Instantiation at a numeric vector is the single
point where rationals may turn into floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .quotient import Coords, QuotientOracle


@dataclass(frozen=True)
class MomentVector:
    """Real vector indexed by the degree-2k basis prefix."""

    values: tuple

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_normalized(self) -> bool:
        return self.values and self.values[0] == 1


@dataclass
class MomentTemplate:
    """Symmetric matrix of sparse linear forms in the moment coordinates.

    entries maps (i, j) with i <= j to {coordinate index: rational coefficient};
    missing pairs are identically zero.  coord_forms[i] expresses variable
    x_{i+1} over the coordinates (a single unit entry unless the underlying
    point set is affinely degenerate).
    """

    dim: int
    nvars_y: int
    entries: dict[tuple[int, int], Coords]
    coord_forms: list[Coords]
    basis_labels: list[str] = field(default_factory=list)
    # degrees of the row basis prefix and of every coordinate's basis element;
    # the solver uses them to rescale unbounded-certificate subproblems
    row_degrees: list[int] | None = None
    coord_degrees: list[int] | None = None

    def entry(self, i: int, j: int) -> Coords:
        if i > j:
            i, j = j, i
        return dict(self.entries.get((i, j), {}))

    def coefficient_matrix(self, l: int) -> np.ndarray:
        """Dense symmetric coefficient matrix of coordinate l (float)."""
        a = np.zeros((self.dim, self.dim))
        for (i, j), form in self.entries.items():
            c = form.get(l)
            if c is not None:
                a[i, j] = float(c)
                a[j, i] = float(c)
        return a

    def coefficient_matrices(self) -> np.ndarray:
        """Every coefficient matrix at once, shape (nvars_y, dim, dim).

        Slice l equals coefficient_matrix(l); the entries are scanned once
        instead of once per coordinate.
        """
        out = np.zeros((self.nvars_y, self.dim, self.dim))
        for (i, j), form in self.entries.items():
            for l, c in form.items():
                out[l, i, j] = out[l, j, i] = float(c)
        return out

    def substituted(
        self,
        mapping: Mapping[int, Coords],
        new_nvars_y: int,
        new_coord_degrees: list[int] | None = None,
    ) -> "MomentTemplate":
        """Re-express every entry over new coordinates via a linear substitution."""
        new_entries: dict[tuple[int, int], Coords] = {}
        for key, form in self.entries.items():
            acc: Coords = {}
            for l, c in form.items():
                for nl, nc in mapping[l].items():
                    s = acc.get(nl, Fraction(0)) + c * nc
                    if s:
                        acc[nl] = s
                    else:
                        acc.pop(nl, None)
            if acc:
                new_entries[key] = acc
        return MomentTemplate(
            dim=self.dim,
            nvars_y=new_nvars_y,
            entries=new_entries,
            coord_forms=[],
            basis_labels=list(self.basis_labels),
            row_degrees=self.row_degrees,
            coord_degrees=new_coord_degrees,
        )

    def to_json(self) -> str:
        doc = {
            "dim": self.dim,
            "nvars_y": self.nvars_y,
            "basis": self.basis_labels,
            "entries": [
                {
                    "i": i,
                    "j": j,
                    "form": {str(l): str(c) for l, c in sorted(form.items())},
                }
                for (i, j), form in sorted(self.entries.items())
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def build_moment_template(oracle: QuotientOracle, k: int) -> MomentTemplate:
    """Template of the level-k moment matrix of the oracle's ideal."""
    if k < 1:
        raise ValueError("level must be >= 1")
    if oracle.depth is not None and 2 * k > oracle.depth:
        raise ValueError(
            f"level {k} needs products of degree {2 * k}, oracle depth is {oracle.depth}"
        )
    dim = oracle.size_at(k)
    nvars_y = oracle.size_at(2 * k)
    entries: dict[tuple[int, int], Coords] = {}
    for i in range(dim):
        for j in range(i, dim):
            form = oracle.product_coords(i, j)
            if any(l >= nvars_y for l in form):
                raise AssertionError("product escaped the degree-2k prefix")
            if form:
                entries[(i, j)] = form
    labels = [str(m) for m in oracle.basis.elements[:nvars_y]]
    coord_forms = [oracle.coord_form(i) for i in range(oracle.nvars)]
    row_degrees = [m.degree for m in oracle.basis.elements[:dim]]
    coord_degrees = [m.degree for m in oracle.basis.elements[:nvars_y]]
    return MomentTemplate(
        dim, nvars_y, entries, coord_forms, labels, row_degrees, coord_degrees
    )


def point_to_moment_vector(oracle: QuotientOracle, k: int, point: Sequence) -> MomentVector:
    """Evaluate the degree-2k basis prefix at a variety point (exact)."""
    if len(point) != oracle.nvars:
        raise ValueError(
            f"point has {len(point)} coordinates, oracle has {oracle.nvars} variables"
        )
    pt = tuple(Fraction(c) for c in point)
    vals = oracle.eval_basis(pt, oracle.size_at(2 * k))
    return MomentVector(tuple(vals))


def barycenter_vector(
    oracle: QuotientOracle, k: int, points: Sequence[Sequence]
) -> MomentVector:
    """Average of the moment vectors of the given points (exact)."""
    if not points:
        raise ValueError("need at least one point")
    vecs = [point_to_moment_vector(oracle, k, p).values for p in points]
    n = Fraction(len(vecs))
    return MomentVector(tuple(sum(col) / n for col in zip(*vecs)))


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def instantiate(template: MomentTemplate, y) -> np.ndarray:
    """Evaluate the template at y as a dense float matrix (the SDP boundary)."""
    values = y.values if isinstance(y, MomentVector) else tuple(y)
    if len(values) != template.nvars_y:
        raise ValueError(
            f"vector has {len(values)} coordinates, template expects {template.nvars_y}"
        )
    vals = np.array([float(v) for v in values])
    out = np.zeros((template.dim, template.dim))
    for (i, j), form in template.entries.items():
        s = 0.0
        for l, c in form.items():
            s += float(c) * vals[l]
        out[i, j] = s
        out[j, i] = s
    return out


def instantiate_exact(template: MomentTemplate, y) -> list[list[Fraction]]:
    """Evaluate the template at an exact rational vector, exactly."""
    values = y.values if isinstance(y, MomentVector) else tuple(y)
    if len(values) != template.nvars_y:
        raise ValueError(
            f"vector has {len(values)} coordinates, template expects {template.nvars_y}"
        )
    if not _is_exact(values):
        raise TypeError("instantiate_exact needs Fraction or int coordinates")
    out = [[Fraction(0)] * template.dim for _ in range(template.dim)]
    for (i, j), form in template.entries.items():
        s = Fraction(0)
        for l, c in form.items():
            s += c * values[l]
        out[i][j] = s
        out[j][i] = s
    return out
