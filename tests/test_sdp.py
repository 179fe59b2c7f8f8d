import math
from fractions import Fraction

import numpy as np
import pytest

from thetabody.moment import MomentTemplate, barycenter_vector, build_moment_template
from thetabody.quotient import basis_cut_ideal, basis_stable_set, cycle_graph
from thetabody.sdp import (
    SdpOptions,
    SdpProblem,
    SdpStatus,
    phase1_interior,
    solve,
)

from conftest import cycle_theta_value


def simple_template(entries, nvars_y, dim):
    conv = {
        key: {l: Fraction(c) for l, c in f.items()} for key, f in entries.items()
    }
    return MomentTemplate(dim=dim, nvars_y=nvars_y, entries=conv, coord_forms=[])


@pytest.fixture(scope="module")
def pentagon_problem(pentagon_oracle_k1):
    t = build_moment_template(pentagon_oracle_k1, 1)
    return SdpProblem(t, {i: 1.0 for i in range(1, 6)}, {0: 1.0})


class TestSmallProblems:
    def test_correlation_bound(self):
        t = simple_template({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}}, 2, 2)
        sol = solve(SdpProblem(t, {1: 1.0}, {0: 1.0}))
        assert sol.status == SdpStatus.OPTIMAL
        assert abs(sol.value - 1.0) <= 1e-8
        assert abs(sol.y.values[1] - 1.0) <= 1e-6

    def test_minimize_sense(self):
        t = simple_template({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}}, 2, 2)
        sol = solve(SdpProblem(t, {1: 1.0}, {0: 1.0}, sense="min"))
        assert sol.status == SdpStatus.OPTIMAL
        assert abs(sol.value + 1.0) <= 1e-8

    def test_free_diagonal_is_unbounded(self):
        t = MomentTemplate(
            dim=2,
            nvars_y=3,
            entries={(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}, (1, 1): {2: Fraction(1)}},
            coord_forms=[],
            row_degrees=[0, 1],
            coord_degrees=[0, 1, 2],
        )
        sol = solve(SdpProblem(t, {1: 1.0}, {0: 1.0}))
        assert sol.status == SdpStatus.UNBOUNDED
        assert sol.value == math.inf

    def test_objective_offset_from_pins(self):
        t = simple_template({(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}}, 2, 2)
        sol = solve(SdpProblem(t, {0: 3.0, 1: 1.0}, {0: 1.0}))
        assert abs(sol.value - 4.0) <= 1e-8


def symmetric_feasible(total: float) -> bool:
    """Independent check for the symmetric certificate of the 5-cycle bound.

    Averaging any feasible matrix over the cycle's automorphisms preserves
    feasibility and the coordinate sum, so the optimum is attained at a
    symmetric point (diagonal a on vertices, b on nonadjacent pairs).  For a
    fixed sum the best smallest eigenvalue over b is found by ternary search
    on a concave function; bisection over the sum then needs eigenvalues only.
    """
    a = total / 5.0

    def lam_min(b: float) -> float:
        m = np.zeros((6, 6))
        m[0, 0] = 1.0
        for i in range(1, 6):
            m[0, i] = m[i, 0] = a
            m[i, i] = a
        pairs = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
        for i, j in pairs:
            m[i, j] = m[j, i] = b
        return float(np.linalg.eigvalsh(m)[0])

    lo, hi = 0.0, 1.0
    for _ in range(200):
        d = (hi - lo) / 3.0
        if lam_min(lo + d) < lam_min(hi - d):
            lo = lo + d
        else:
            hi = hi - d
    return lam_min((lo + hi) / 2.0) >= -1e-12


class TestPentagonBound:
    def test_value_matches_closed_form(self, pentagon_problem):
        sol = solve(pentagon_problem)
        assert sol.status == SdpStatus.OPTIMAL
        assert abs(sol.value - cycle_theta_value(5)) <= 1e-7
        assert abs(sol.value - math.sqrt(5)) <= 1e-7

    def test_value_matches_eigenvalue_bisection(self, pentagon_problem):
        # second independent oracle: bisect the symmetric feasibility frontier
        lo, hi = 2.0, 3.0
        for _ in range(40):
            mid = (lo + hi) / 2.0
            if symmetric_feasible(mid):
                lo = mid
            else:
                hi = mid
        sol = solve(pentagon_problem)
        assert abs(sol.value - lo) <= 1e-6

    def test_kkt_residuals(self, pentagon_problem):
        sol = solve(pentagon_problem)
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.gap <= 1e-8

    def test_dual_matrix_contract(self, pentagon_problem, pentagon_oracle_k1):
        from thetabody.moment import instantiate

        sol = solve(pentagon_problem)
        Z = sol.dual_matrix
        assert np.linalg.eigvalsh((Z + Z.T) / 2)[0] >= -1e-9
        M = instantiate(pentagon_problem.template, sol.y)
        assert abs(float(np.tensordot(M, Z))) <= 1e-7

    def test_weak_duality_along_iterates(self, pentagon_problem):
        sol = solve(pentagon_problem)
        for rec in sol.iterates:
            scale = max(1.0, abs(rec.primal_obj), abs(rec.dual_obj))
            assert rec.dual_obj >= rec.primal_obj - 1e-12 * scale

    def test_determinism(self, pentagon_problem):
        a = solve(pentagon_problem)
        b = solve(pentagon_problem)
        assert a.iterates == b.iterates
        assert a.value == b.value


class TestStatusClassification:
    def test_infeasible_pin(self, pentagon_oracle_k1):
        # y1 = 10 contradicts the unit diagonal through a 2x2 minor
        t = build_moment_template(pentagon_oracle_k1, 1)
        sol = solve(SdpProblem(t, {2: 1.0}, {0: 1.0, 1: 10.0}))
        assert sol.status == SdpStatus.INFEASIBLE

    def test_curve_level1_unbounded_all_directions(self, cardioid_oracle_k1):
        t = build_moment_template(cardioid_oracle_k1, 1)
        for theta in (0.0, 1.0, 2.5, 4.0):
            sol = solve(SdpProblem(t, {1: math.cos(theta), 2: math.sin(theta)}, {0: 1.0}))
            assert sol.status == SdpStatus.UNBOUNDED

    def test_numerical_trouble_on_tiny_budget(self, pentagon_oracle_k1):
        t = build_moment_template(pentagon_oracle_k1, 1)
        opts = SdpOptions(max_iter=3)
        sol = solve(SdpProblem(t, {i: 1.0 for i in range(1, 6)}, {0: 1.0}), opts)
        assert sol.status in (SdpStatus.NUMERICAL_TROUBLE, SdpStatus.OPTIMAL)


class TestPhase1:
    def test_barycenter_hint_used_directly(self, pentagon_oracle_k1, pentagon_vertices):
        t = build_moment_template(pentagon_oracle_k1, 1)
        bary = barycenter_vector(pentagon_oracle_k1, 1, pentagon_vertices)
        hint = [float(v) for v in bary.values]
        res = phase1_interior(SdpProblem(t, {}, {0: 1.0}, interior_hint=hint))
        assert res.feasible
        assert res.margin > 0
        assert res.solution is None  # no SDP was run

    def test_pinned_outside_point_is_infeasible(self, pentagon_oracle_k1):
        t = build_moment_template(pentagon_oracle_k1, 1)
        res = phase1_interior(SdpProblem(t, {}, {0: 1.0, 1: 10.0}))
        assert not res.feasible

    def test_one_by_one(self):
        t = simple_template({(0, 0): {0: 1}}, 1, 1)
        res = phase1_interior(SdpProblem(t, {}, {0: 1.0}))
        assert res.feasible
        assert res.margin > 0.5

    def test_inconsistent_hint_falls_back(self, pentagon_oracle_k1, pentagon_vertices):
        t = build_moment_template(pentagon_oracle_k1, 1)
        bary = barycenter_vector(pentagon_oracle_k1, 1, pentagon_vertices)
        hint = [float(v) for v in bary.values]
        res = phase1_interior(SdpProblem(t, {}, {0: 1.0, 1: 0.9}, interior_hint=hint))
        assert res.solution is not None  # hint contradicts the pin, SDP ran
        assert res.feasible  # y1 = 0.9 is attainable


class TestKktAcrossFixtures:
    def test_residual_bounds_on_shipped_problems(self, pentagon_oracle_k1, pentagon_oracle_k2, cardioid_oracle_k2):
        fixtures = []
        t1 = build_moment_template(pentagon_oracle_k1, 1)
        fixtures.append(SdpProblem(t1, {i: 1.0 for i in range(1, 6)}, {0: 1.0}))
        t2 = build_moment_template(pentagon_oracle_k2, 2)
        fixtures.append(SdpProblem(t2, {i: 1.0 for i in range(1, 6)}, {0: 1.0}))
        tc = build_moment_template(cardioid_oracle_k2, 2)
        fixtures.append(SdpProblem(tc, {1: 1.0, 2: 1.0}, {0: 1.0}))
        fixtures.append(SdpProblem(tc, {1: -1.0, 2: 0.5}, {0: 1.0}))
        cut = basis_cut_ideal(cycle_graph(5), 2)
        tcut = build_moment_template(cut, 2)
        fixtures.append(SdpProblem(tcut, {i: 1.0 for i in range(1, 6)}, {0: 1.0}, sense="min"))
        for prob in fixtures:
            assert prob.template.dim <= 50
            sol = solve(prob)
            assert sol.status == SdpStatus.OPTIMAL
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8
            assert abs(sol.gap) <= 1e-8


class TestLargestGraphSize:
    def test_nine_cycle_level2(self):
        # d = 37, m = 75: the largest Schur complement of the graph benchmark
        t = build_moment_template(basis_stable_set(cycle_graph(9), 2), 2)
        prob = SdpProblem(t, {i: 1.0 for i in range(1, 10)}, {0: 1.0})
        assert (t.dim, t.nvars_y - 1) == (37, 75)
        sol = solve(prob)
        assert sol.status == SdpStatus.OPTIMAL
        assert abs(sol.value - 4.0) <= 1e-6
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert abs(sol.gap) <= 1e-8
        assert solve(prob).iterates == sol.iterates
