import json
import math
from fractions import Fraction

import numpy as np
import pytest

from thetabody.moment import (
    barycenter_vector,
    build_moment_template,
    instantiate,
    instantiate_exact,
    point_to_moment_vector,
)
from thetabody.polycore import ReducerSet, parse_polynomial
from thetabody.quotient import basis_cut_ideal, basis_from_reducers, cut_vectors, cycle_graph

from conftest import cardioid_point


def form(**kw):
    return {int(k[1:]): Fraction(v) for k, v in kw.items()}


@pytest.fixture(scope="module")
def worked_example_oracle():
    # relations x1^2 -> 2*x2 - x1 and x1*x2 -> 0, basis (1, x1, x2, x2^2)
    f1 = parse_polynomial("x1^2 + x1 - 2*x2", 2)
    f2 = parse_polynomial("x1*x2", 2)
    return basis_from_reducers(ReducerSet([f1, f2], confluent=True), 1)


class TestWorkedExample:
    def test_matrix(self, worked_example_oracle):
        t = build_moment_template(worked_example_oracle, 1)
        assert t.dim == 3 and t.nvars_y == 4
        expected = [
            [form(y0=1), form(y1=1), form(y2=1)],
            [form(y1=1), form(y1=-1, y2=2), {}],
            [form(y2=1), {}, form(y3=1)],
        ]
        for i in range(3):
            for j in range(3):
                assert t.entry(i, j) == expected[i][j]

    def test_instantiate_all_ones(self, worked_example_oracle):
        t = build_moment_template(worked_example_oracle, 1)
        m = instantiate_exact(t, (1, 1, 1, 1))
        assert m == [[1, 1, 1], [1, 1, 0], [1, 0, 1]]

    def test_instantiate_unit_vector(self, worked_example_oracle):
        t = build_moment_template(worked_example_oracle, 1)
        m = np.array(instantiate_exact(t, (1, 0, 0, 0)), dtype=float)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(m, expected)


PENTAGON_TH1_ROWS = [
    [0, 1, 2, 3, 4, 5],
    [1, 1, None, 6, 7, None],
    [2, None, 2, None, 8, 9],
    [3, 6, None, 3, None, 10],
    [4, 7, 8, None, 4, None],
    [5, None, 9, 10, None, 5],
]

PENTAGON_TH2_ROWS = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    [1, 1, None, 6, 7, None, 6, 7, None, None, None],
    [2, None, 2, None, 8, 9, None, None, 8, 9, None],
    [3, 6, None, 3, None, 10, 6, None, None, None, 10],
    [4, 7, 8, None, 4, None, None, 7, 8, None, None],
    [5, None, 9, 10, None, 5, None, None, None, 9, 10],
    [6, 6, None, 6, None, None, 6, None, None, None, None],
    [7, 7, None, None, 7, None, None, 7, None, None, None],
    [8, None, 8, None, 8, None, None, None, 8, None, None],
    [9, None, 9, None, None, 9, None, None, None, 9, None],
    [10, None, None, 10, None, 10, None, None, None, None, 10],
]


def assert_template_matches(template, rows):
    assert template.dim == len(rows)
    for i in range(template.dim):
        for j in range(template.dim):
            expected = rows[i][j]
            got = template.entry(i, j)
            if expected is None:
                assert got == {}, (i, j, got)
            else:
                assert got == {expected: Fraction(1)}, (i, j, got)


class TestPentagonTemplates:
    def test_level1_six_by_six(self, pentagon_oracle_k1):
        assert_template_matches(build_moment_template(pentagon_oracle_k1, 1), PENTAGON_TH1_ROWS)

    def test_level2_eleven_by_eleven(self, pentagon_oracle_k2):
        assert_template_matches(build_moment_template(pentagon_oracle_k2, 2), PENTAGON_TH2_ROWS)

    def test_symmetry(self, pentagon_oracle_k2):
        t = build_moment_template(pentagon_oracle_k2, 2)
        for i in range(t.dim):
            for j in range(t.dim):
                assert t.entry(i, j) == t.entry(j, i)

    def test_json_dump_roundtrips_entries(self, pentagon_oracle_k1):
        t = build_moment_template(pentagon_oracle_k1, 1)
        doc = json.loads(t.to_json())
        assert doc["dim"] == 6 and doc["nvars_y"] == 11
        assert doc["basis"][:6] == ["1", "x1", "x2", "x3", "x4", "x5"]
        rebuilt = {}
        for e in doc["entries"]:
            rebuilt[(e["i"], e["j"])] = {int(k): Fraction(v) for k, v in e["form"].items()}
        for (i, j), f in rebuilt.items():
            assert t.entry(i, j) == f


class TestCoefficientMatrices:
    def test_one_pass_matches_per_coordinate(self, pentagon_oracle_k2, cardioid_oracle_k2):
        # the cardioid template carries non-unit rational coefficients
        for t in (
            build_moment_template(pentagon_oracle_k2, 2),
            build_moment_template(cardioid_oracle_k2, 2),
        ):
            mats = t.coefficient_matrices()
            assert mats.shape == (t.nvars_y, t.dim, t.dim)
            for l in range(t.nvars_y):
                assert np.array_equal(mats[l], t.coefficient_matrix(l))


class TestCardioidTemplate:
    def test_linearized_quartic_entry(self, cardioid_oracle_k2):
        t = build_moment_template(cardioid_oracle_k2, 2)
        assert t.dim == 6 and t.nvars_y == 14
        assert t.entry(3, 3) == form(y11=-2, y13=-1, y6=-4, y8=-4, y5=4)

    def test_monomial_entries(self, cardioid_oracle_k2):
        t = build_moment_template(cardioid_oracle_k2, 2)
        assert t.entry(1, 1) == form(y3=1)   # x1*x1
        assert t.entry(1, 2) == form(y4=1)   # x1*x2
        assert t.entry(3, 4) == form(y10=1)  # x1^2 * x1x2
        assert t.entry(5, 5) == form(y13=1)  # x2^2 * x2^2

    def test_level_exceeding_depth_rejected(self, cardioid_oracle_k2):
        with pytest.raises(ValueError):
            build_moment_template(cardioid_oracle_k2, 3)


class TestMomentVectors:
    def test_origin_unit_vector(self, cardioid_oracle_k2):
        y = point_to_moment_vector(cardioid_oracle_k2, 2, (0, 0))
        assert y.values == (1,) + (0,) * 13

    def test_pentagon_incidence_vector(self, pentagon_oracle_k1):
        y = point_to_moment_vector(pentagon_oracle_k1, 1, (1, 0, 1, 0, 0))
        assert y.values == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0)

    def test_variety_points_give_rank_one_psd(self, cardioid_oracle_k2):
        t = build_moment_template(cardioid_oracle_k2, 2)
        for theta in np.linspace(0.1, 2 * math.pi, 25):
            s = cardioid_point(theta)
            y = point_to_moment_vector(cardioid_oracle_k2, 2, s)
            m = instantiate(t, y)
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] >= -1e-9
            assert eigs[-2] <= 1e-8 * max(eigs[-1], 1e-12)
            vec = np.array([float(v) for v in y.values[: t.dim]])
            assert np.allclose(m, np.outer(vec, vec), atol=1e-9)

    def test_outer_product_identity_exact(self, pentagon_oracle_k2):
        t = build_moment_template(pentagon_oracle_k2, 2)
        y = point_to_moment_vector(pentagon_oracle_k2, 2, (0, 1, 0, 1, 0))
        m = instantiate_exact(t, y)
        vec = y.values[: t.dim]
        for i in range(t.dim):
            for j in range(t.dim):
                assert m[i][j] == vec[i] * vec[j]

    def test_instantiate_linearity(self, pentagon_oracle_k1):
        t = build_moment_template(pentagon_oracle_k1, 1)
        ya = point_to_moment_vector(pentagon_oracle_k1, 1, (1, 0, 1, 0, 0))
        yb = point_to_moment_vector(pentagon_oracle_k1, 1, (0, 1, 0, 0, 1))
        a, b = Fraction(2, 3), Fraction(-1, 5)
        mixed = tuple(a * u + b * v for u, v in zip(ya.values, yb.values))
        lhs = instantiate_exact(t, mixed)
        ma = instantiate_exact(t, ya)
        mb = instantiate_exact(t, yb)
        for i in range(t.dim):
            for j in range(t.dim):
                assert lhs[i][j] == a * ma[i][j] + b * mb[i][j]
        lhs_f = instantiate(t, [float(v) for v in mixed])
        rhs_f = float(a) * instantiate(t, ya) + float(b) * instantiate(t, yb)
        assert np.max(np.abs(lhs_f - rhs_f)) <= 1e-12

    def test_dimension_mismatch(self, pentagon_oracle_k1):
        t = build_moment_template(pentagon_oracle_k1, 1)
        with pytest.raises(ValueError):
            instantiate(t, (1, 0, 0))


class TestBarycenter:
    def test_full_point_sample_is_positive_definite(self, pentagon_oracle_k1, pentagon_vertices):
        t = build_moment_template(pentagon_oracle_k1, 1)
        bary = barycenter_vector(pentagon_oracle_k1, 1, pentagon_vertices)
        eigs = np.linalg.eigvalsh(instantiate(t, bary))
        assert eigs[0] > 0

    def test_cut_vector_barycenter_feasible(self):
        graph = cycle_graph(5)
        oracle = basis_cut_ideal(graph, 1)
        t = build_moment_template(oracle, 1)
        bary = barycenter_vector(oracle, 1, cut_vectors(graph))
        eigs = np.linalg.eigvalsh(instantiate(t, bary))
        assert eigs[0] > 0

    def test_points_oracle_barycenter_positive_definite(self):
        from thetabody.quotient import basis_points

        pts = [(0, 0), (2, 1), (-1, 1), (1, -2), (3, 3)]
        oracle = basis_points(pts)
        t = build_moment_template(oracle, 2)
        bary = barycenter_vector(oracle, 2, pts)
        assert np.linalg.eigvalsh(instantiate(t, bary))[0] > 0

    def test_partial_sample_feasible(self, cardioid_oracle_k2):
        t = build_moment_template(cardioid_oracle_k2, 2)
        pts = [cardioid_point(th) for th in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)]
        bary = barycenter_vector(cardioid_oracle_k2, 2, pts)
        eigs = np.linalg.eigvalsh(instantiate(t, bary))
        assert eigs[0] >= -1e-9
