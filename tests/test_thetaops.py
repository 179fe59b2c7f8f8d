import math
import random

import numpy as np
import pytest

from thetabody.polycore import Polynomial, linear_polynomial
from thetabody.quotient import (
    basis_points,
    basis_stable_set,
    cycle_graph,
    permutation_points,
)
from thetabody.sdp import SdpStatus
from thetabody.thetaops import (
    certificate_from_squares,
    extract_certificate,
    maximize_linear,
    membership,
    odd_cycle_sos_squares,
    ray_shoot,
    support_contour,
    theta_problem,
    trace_boundary_2d,
    verify_sos_identity,
)

from conftest import cardioid_point, cycle_theta_value


@pytest.fixture(scope="module")
def pentagon_p1(pentagon_oracle_k1):
    return theta_problem(pentagon_oracle_k1, 1)


@pytest.fixture(scope="module")
def pentagon_p2(pentagon_oracle_k2):
    return theta_problem(pentagon_oracle_k2, 2)


@pytest.fixture(scope="module")
def cardioid_p1(cardioid_oracle_k1):
    return theta_problem(cardioid_oracle_k1, 1)


@pytest.fixture(scope="module")
def cardioid_p2(cardioid_oracle_k2):
    return theta_problem(cardioid_oracle_k2, 2)


class TestMaximizeLinear:
    def test_pentagon_level2_reaches_stability_number(self, pentagon_p2):
        res = maximize_linear(pentagon_p2, [1.0] * 5)
        assert abs(res.value - 2.0) <= 1e-5

    def test_pentagon_level1_is_theta_number(self, pentagon_p1):
        res = maximize_linear(pentagon_p1, [1.0] * 5)
        assert abs(res.value - cycle_theta_value(5)) <= 1e-5

    def test_square_cycle_is_exact_at_level1(self):
        p = theta_problem(basis_stable_set(cycle_graph(4), 1), 1)
        res = maximize_linear(p, [1.0] * 4)
        assert abs(res.value - 2.0) <= 1e-5

    def test_optimizer_point_projects_from_moments(self, pentagon_p2):
        res = maximize_linear(pentagon_p2, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert abs(res.value - 1.0) <= 1e-6
        assert abs(res.point[0] - 1.0) <= 1e-5


class TestMembership:
    def test_variety_point_inside(self, cardioid_p2):
        res = membership(cardioid_p2, cardioid_point(math.pi / 3))
        assert res.inside

    def test_two_adjacent_ones_outside(self, pentagon_p1):
        res = membership(pentagon_p1, (1, 1, 0, 0, 0))
        assert not res.inside
        assert res.margin < 0

    def test_outside_point_has_no_psd_completion_on_grid(self, pentagon_p1):
        # brute confirmation: the pinned principal submatrix is already not
        # PSD, so no grid of free entries can rescue it
        from thetabody.moment import instantiate

        t = pentagon_p1.template
        grid = np.linspace(-1.0, 1.0, 7)
        found_psd = False
        for y6 in grid:
            for y7 in grid:
                for y8 in grid:
                    y = [1, 1, 1, 0, 0, 0, y6, y7, y8, 0.0, 0.0]
                    m = instantiate(t, y)
                    if np.linalg.eigvalsh(m)[0] >= -1e-9:
                        found_psd = True
        assert not found_psd

    def test_barycenter_inside(self, pentagon_p1, pentagon_vertices):
        bary = [sum(v[i] for v in pentagon_vertices) / len(pentagon_vertices) for i in range(5)]
        res = membership(pentagon_p1, bary)
        assert res.inside
        assert res.margin > 0

    def test_degenerate_consistency_check(self):
        pts = permutation_points(3, [[2, 1, 3], [2, 3, 1]])
        p = theta_problem(basis_points(pts), 1)
        inside = membership(p, tuple(float(v) for v in pts[0]))
        assert inside.inside
        off_hull = list(float(v) for v in pts[0])
        off_hull[0] += 0.25  # leaves the affine hull
        assert not membership(p, tuple(off_hull)).inside


class TestRayShoot:
    def test_level1_everywhere_unbounded(self, cardioid_p1):
        for theta in (0.0, 0.7, 2.0, 3.6, 5.1):
            shot = ray_shoot(cardioid_p1, (math.cos(theta), math.sin(theta)))
            assert shot.unbounded

    def test_leftward_ray(self, cardioid_p2):
        shot = ray_shoot(cardioid_p2, (-1.0, 0.0))
        assert not shot.unbounded
        assert shot.t >= 4.0 - 1e-6
        assert abs(shot.t - 4.0) <= 1e-2

    def test_rightward_ray(self, cardioid_p2):
        shot = ray_shoot(cardioid_p2, (1.0, 0.0))
        assert shot.t >= 0.5 - 1e-6
        assert abs(shot.t - 0.5) <= 1e-2

    def test_zero_direction_rejected(self, cardioid_p2):
        with pytest.raises(ValueError):
            ray_shoot(cardioid_p2, (0.0, 0.0))


def certified_unbounded(sol) -> bool:
    """The Unbounded verdict rests on a verified cap-slice point or ray."""
    last = sol.phases[-1]
    if last.role in ("probe", "cap_slice"):
        return last.margin >= 1e-7
    return last.role == "recession" and last.margin > 0.5


class TestEarlyUnboundedVerdict:
    # the weakly unbounded level-1 cardioid: no improving ray exists, so the
    # verdict comes from the cap-slice test the divergence probe runs
    def test_level1_ray_within_50_iterations(self, cardioid_p1):
        shot = ray_shoot(cardioid_p1, (math.cos(2.0), math.sin(2.0)))
        assert shot.unbounded and shot.status == SdpStatus.UNBOUNDED
        assert sum(ph.iterations for ph in shot.solution.phases) <= 50
        assert certified_unbounded(shot.solution)

    def test_level1_support_within_50_iterations(self, cardioid_p1):
        sol = maximize_linear(cardioid_p1, (math.cos(4.0), math.sin(4.0))).solution
        assert sol.status == SdpStatus.UNBOUNDED
        assert sum(ph.iterations for ph in sol.phases) <= 50
        assert sol.phases[0].role == "main"
        assert certified_unbounded(sol)

    def test_slow_level2_support_is_not_unbounded(self, cardioid_p2):
        sol = maximize_linear(cardioid_p2, (math.cos(2.9583), math.sin(2.9583))).solution
        assert sol.status != SdpStatus.UNBOUNDED
        assert all(ph.margin < 1e-7 for ph in sol.phases if ph.role == "probe")


class TestTrace:
    def test_level2_all_finite(self, cardioid_p2):
        points = trace_boundary_2d(cardioid_p2, 16)
        assert len(points) == 16
        assert all(not p.unbounded and p.t is not None for p in points)

    def test_level1_all_unbounded(self, cardioid_p1):
        points = trace_boundary_2d(cardioid_p1, 8)
        assert len(points) == 8
        assert all(p.unbounded for p in points)

    def test_single_direction_matches_ray_shoot(self, cardioid_p2):
        points = trace_boundary_2d(cardioid_p2, 1)
        shot = ray_shoot(cardioid_p2, (1.0, 0.0))
        assert abs(points[0].t - shot.t) <= 1e-9
        assert points[0].theta == 0.0


class TestSupportContour:
    def test_duality_consistency(self, cardioid_p2):
        lines = support_contour(cardioid_p2, [(1.0, 1.0)])
        direct = maximize_linear(cardioid_p2, [1.0, 1.0])
        assert abs(lines[0].value - direct.value) <= 1e-6

    def test_leftward_support(self, cardioid_p2):
        lines = support_contour(cardioid_p2, [(-1.0, 0.0)])
        assert abs(lines[0].value - 4.0) <= 1e-5

    def test_halfspaces_contain_variety(self, cardioid_p2):
        dirs = [
            (math.cos(2 * math.pi * j / 32), math.sin(2 * math.pi * j / 32))
            for j in range(32)
        ]
        lines = support_contour(cardioid_p2, dirs)
        samples = [cardioid_point(t) for t in np.linspace(0, 2 * math.pi, 200)]
        for line in lines:
            assert not line.unbounded
            for s in samples:
                assert line.direction[0] * s[0] + line.direction[1] * s[1] <= line.value + 1e-7


class TestCertificates:
    def test_edge_facet_rank_one_gram(self, pentagon_p1):
        l = linear_polynomial(1, [-1, -1, 0, 0, 0])
        cert = certificate_from_squares(pentagon_p1, l, [l])
        assert cert.verified and cert.mode == "exact"
        assert cert.residual.is_zero

    def test_coordinate_is_its_own_square(self, pentagon_p1):
        x1 = Polynomial.variable(0, 5)
        cert = certificate_from_squares(pentagon_p1, x1, [x1])
        assert cert.verified

    def test_extracted_edge_certificate(self, pentagon_p1):
        cert = extract_certificate(pentagon_p1, [1, 1, 0, 0, 0], 1.0)
        assert cert.verified
        assert cert.max_residual_coeff <= 1e-6
        assert cert.psd_margin >= -1e-9

    def test_cardioid_support_certificate(self, cardioid_p2):
        res = maximize_linear(cardioid_p2, [1.0, 1.0])
        cert = extract_certificate(cardioid_p2, [1.0, 1.0], res.value)
        assert cert.verified
        assert cert.max_residual_coeff <= 1e-6

    def test_slack_absorbed_on_constant(self, pentagon_p1):
        cert = extract_certificate(pentagon_p1, [1, 1, 0, 0, 0], 1.5)
        assert cert.verified  # 1.5 - x1 - x2 = 0.5 + (1 - x1 - x2)

    def test_below_support_fails(self, pentagon_p1):
        cert = extract_certificate(pentagon_p1, [1.0] * 5, 2.0)
        assert not cert.verified
        assert cert.psd_margin < -1e-6

    def test_unbounded_direction_raises(self, cardioid_p1):
        with pytest.raises(ValueError):
            extract_certificate(cardioid_p1, [1.0, 0.0], 10.0)

    def test_certificate_soundness_on_variety(self, pentagon_p2, pentagon_vertices):
        l = linear_polynomial(2, [-1] * 5)
        cert = certificate_from_squares(pentagon_p2, l, odd_cycle_sos_squares(5))
        assert cert.verified and cert.residual.is_zero
        for s in pentagon_vertices:
            assert cert.linear_poly.evaluate(s) >= -1e-9


class TestSosIdentities:
    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_cycle_identity(self, n):
        oracle = basis_stable_set(cycle_graph(n), 2)
        k = (n - 1) // 2
        l = linear_polynomial(k, [-1] * n)
        residual = verify_sos_identity(l, odd_cycle_sos_squares(n), oracle)
        assert residual.is_zero

    def test_square_of_variable(self, pentagon_oracle_k1):
        x1 = Polynomial.variable(0, 5)
        assert verify_sos_identity(x1, [x1], pentagon_oracle_k1).is_zero

    def test_wrong_identity_has_residual(self, pentagon_oracle_k2):
        l = linear_polynomial(1, [-1] * 5)  # wrong constant
        residual = verify_sos_identity(l, odd_cycle_sos_squares(5), pentagon_oracle_k2)
        assert not residual.is_zero


class TestHierarchyAndExactness:
    def test_nesting_for_cycles(self):
        for n in (5, 7):
            g = cycle_graph(n)
            vals = []
            for k in (1, 2):
                p = theta_problem(basis_stable_set(g, k), k)
                vals.append(maximize_linear(p, [1.0] * n).value)
            assert vals[1] <= vals[0] + 1e-6

    def test_outer_relaxation_contains_variety(self, pentagon_p1, pentagon_p2, pentagon_vertices):
        for p in (pentagon_p1, pentagon_p2):
            for s in pentagon_vertices:
                assert membership(p, s).inside

    def test_finite_point_sets_become_exact(self):
        rng = random.Random(42)
        pts = set()
        while len(pts) < 5:
            pts.add((rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)))
        pts = sorted(pts)
        oracle = basis_points(pts)
        max_deg = oracle.basis.elements[-1].degree
        exact_k = None
        for k in range(1, max(max_deg, 1) + 1):
            p = theta_problem(oracle, k)
            ok = True
            for _ in range(10):
                c = [rng.uniform(-1, 1) for _ in range(3)]
                sdp = maximize_linear(p, c).value
                lp = max(sum(ci * float(vi) for ci, vi in zip(c, v)) for v in pts)
                if abs(sdp - lp) > 1e-5:
                    ok = False
                    break
            if ok:
                exact_k = k
                break
        assert exact_k is not None
        assert exact_k <= len(pts)

    def test_degenerate_group_polytope_level1(self):
        pts = permutation_points(3, [[2, 1, 3], [2, 3, 1]])
        p = theta_problem(basis_points(pts), 1)
        rng = random.Random(17)
        for _ in range(5):
            c = [rng.uniform(-1, 1) for _ in range(9)]
            res = maximize_linear(p, c)
            lp = max(sum(ci * float(vi) for ci, vi in zip(c, v)) for v in pts)
            assert abs(res.value - lp) <= 1e-5
            # reconstructed optimizer satisfies the doubly stochastic rows
            mat = np.array(res.point).reshape(3, 3)
            assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-5)
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-5)
