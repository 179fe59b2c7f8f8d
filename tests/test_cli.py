import csv
import json
import math

import pytest

from thetabody.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFICATION, main
from thetabody.exactness import enumerate_facets
from thetabody.polycore import parse_polynomial

from conftest import CARDIOID_TEXT, cardioid_point

PENTAGON_GRAPH = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def pentagon_file(tmp_path):
    return write_json(tmp_path / "p1.json", {"kind": "stable_set", "k": 1, "graph": PENTAGON_GRAPH})


@pytest.fixture()
def pentagon2_file(tmp_path):
    return write_json(tmp_path / "p2.json", {"kind": "stable_set", "k": 2, "graph": PENTAGON_GRAPH})


@pytest.fixture()
def cardioid_file(tmp_path):
    samples = [cardioid_point(2 * math.pi * i / 120) for i in range(120)]
    return write_json(
        tmp_path / "cardioid.json",
        {"kind": "curve", "k": 2, "nvars": 2, "polynomial": CARDIOID_TEXT, "samples": samples},
    )


@pytest.fixture()
def cardioid1_file(tmp_path):
    return write_json(
        tmp_path / "cardioid1.json",
        {"kind": "curve", "k": 1, "nvars": 2, "polynomial": CARDIOID_TEXT},
    )


class TestSolve:
    def test_pentagon_level1(self, pentagon_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", pentagon_file, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "Optimal"
        assert abs(report["value"] - 2.2360680) <= 1e-5
        assert "2.23606798" in capsys.readouterr().out

    def test_maxcut_reports_cut_bound(self, tmp_path):
        f = write_json(tmp_path / "mc.json", {"kind": "maxcut", "k": 1, "graph": {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}})
        out = tmp_path / "mc_report.json"
        assert main(["solve", f, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert abs(report["cut_bound"] - 2.0) <= 1e-4

    def test_maxcut_five_cycle_level2(self, tmp_path):
        f = write_json(tmp_path / "mc5.json", {"kind": "maxcut", "k": 2, "graph": PENTAGON_GRAPH})
        out = tmp_path / "mc5_report.json"
        assert main(["solve", f, "--json", str(out)]) == EXIT_OK
        assert abs(json.loads(out.read_text())["cut_bound"] - 4.0) <= 1e-4

    def test_points_need_objective(self, tmp_path):
        f = write_json(tmp_path / "pts.json", {"kind": "points", "points": [[0, 0], [1, 0], [0, 1]]})
        assert main(["solve", f]) == EXIT_INPUT
        f2 = write_json(
            tmp_path / "pts2.json",
            {"kind": "points", "points": [[0, 0], [1, 0], [0, 1]], "objective": [1, 1]},
        )
        out = tmp_path / "pts_report.json"
        assert main(["solve", f2, "--json", str(out)]) == EXIT_OK
        assert abs(json.loads(out.read_text())["value"] - 1.0) <= 1e-5

    def test_rational_point_coordinates(self, tmp_path):
        f = write_json(
            tmp_path / "ratpts.json",
            {"kind": "points", "points": [["1/2", 0], [0, "1/3"], [1, 1]], "objective": [1, 0]},
        )
        out = tmp_path / "rat_report.json"
        assert main(["solve", f, "--json", str(out)]) == EXIT_OK
        assert abs(json.loads(out.read_text())["value"] - 1.0) <= 1e-5

    def test_schema_errors_exit_2(self, tmp_path):
        bad_kind = write_json(tmp_path / "bad1.json", {"kind": "mystery"})
        assert main(["solve", bad_kind]) == EXIT_INPUT
        no_graph = write_json(tmp_path / "bad2.json", {"kind": "stable_set"})
        assert main(["solve", no_graph]) == EXIT_INPUT
        not_json = tmp_path / "bad3.json"
        not_json.write_text("{nope")
        assert main(["solve", str(not_json)]) == EXIT_INPUT
        missing = tmp_path / "nothere.json"
        assert main(["solve", str(missing)]) == EXIT_INPUT

    def test_report_reparses_under_schema(self, pentagon_file, tmp_path):
        out = tmp_path / "r.json"
        main(["solve", pentagon_file, "--json", str(out)])
        report = json.loads(out.read_text())
        for key in ("kind", "k", "status", "value", "optimizer", "iterations", "gap"):
            assert key in report
        assert isinstance(report["optimizer"], list)

    def test_report_lists_phases(self, tmp_path):
        f = write_json(
            tmp_path / "c1.json",
            {"kind": "curve", "k": 1, "polynomial": CARDIOID_TEXT, "objective": [1, 0]},
        )
        out = tmp_path / "c1_report.json"
        assert main(["solve", f, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["status"] == "Unbounded" and report["value"] is None
        phases = report["phases"]
        assert phases[0]["role"] == "main" and phases[0]["iterations"] == report["iterations"]
        assert phases[-1]["role"] in ("probe", "cap_slice", "recession")
        assert all(set(ph) == {"role", "iterations", "stop", "margin"} for ph in phases)


class TestTrace:
    def test_csv_rows_and_svg(self, cardioid_file, tmp_path):
        csv_path = tmp_path / "trace.csv"
        svg_path = tmp_path / "trace.svg"
        assert (
            main(
                ["trace", cardioid_file, "--num-dirs", "16", "--csv", str(csv_path), "--svg", str(svg_path)]
            )
            == EXIT_OK
        )
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 16
        assert all(r["t"] != "inf" for r in rows)
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "<polyline" in svg and "<polygon" in svg

    def test_unbounded_rows_marked_inf(self, cardioid1_file, tmp_path):
        csv_path = tmp_path / "trace1.csv"
        svg_path = tmp_path / "trace1.svg"
        assert (
            main(["trace", cardioid1_file, "--num-dirs", "8", "--csv", str(csv_path), "--svg", str(svg_path)])
            == EXIT_OK
        )
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 8
        assert all(r["t"] == "inf" for r in rows)
        assert "<polyline" not in svg_path.read_text()

    def test_rays_without_verdict_write_nan_rows(self, cardioid_file, tmp_path, capsys):
        # five iterations leave every level-2 ray without a verdict
        csv_path = tmp_path / "short.csv"
        code = main(["trace", cardioid_file, "--num-dirs", "8", "--csv", str(csv_path), "--max-iter", "5"])
        assert code == EXIT_NUMERICAL
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 8
        assert all(r["t"] == r["x"] == r["y"] == "nan" for r in rows)
        assert "8 NumericalTrouble" in capsys.readouterr().out

    def test_svg_deterministic(self, cardioid_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["trace", cardioid_file, "--num-dirs", "12", "--svg", str(a)])
        main(["trace", cardioid_file, "--num-dirs", "12", "--svg", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_full_sweep_has_720_finite_rows(self, cardioid_file, tmp_path):
        csv_path = tmp_path / "full.csv"
        assert main(["trace", cardioid_file, "--csv", str(csv_path)]) == EXIT_OK
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 720
        assert all(r["t"] != "inf" for r in rows)

    def test_contour_mode(self, cardioid_file, tmp_path):
        csv_path = tmp_path / "contour.csv"
        svg_path = tmp_path / "contour.svg"
        assert (
            main(
                ["trace", cardioid_file, "--num-dirs", "32", "--contour", "--csv", str(csv_path), "--svg", str(svg_path)]
            )
            == EXIT_OK
        )
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 32
        assert svg_path.read_text().count("<line") == 32

    def test_contour_lines_without_verdict_write_nan_rows(self, cardioid_file, tmp_path, capsys):
        # five iterations leave every level-2 support without a verdict, and
        # a support line from an unconverged iterate could cut off the curve
        csv_path = tmp_path / "short_contour.csv"
        svg_path = tmp_path / "short_contour.svg"
        code = main(
            ["trace", cardioid_file, "--contour", "--num-dirs", "4", "--csv", str(csv_path),
             "--svg", str(svg_path), "--max-iter", "5"]
        )
        assert code == EXIT_NUMERICAL
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 4
        assert all(r["lambda"] == "nan" for r in rows)
        assert "<line" not in svg_path.read_text()
        assert "4 NumericalTrouble" in capsys.readouterr().out

    def test_needs_two_variables(self, pentagon_file):
        assert main(["trace", pentagon_file, "--num-dirs", "4"]) == EXIT_INPUT


class TestExactness:
    def test_cube(self, tmp_path):
        cube = [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        f = write_json(tmp_path / "cube.json", {"kind": "points", "points": cube})
        out = tmp_path / "cube_report.json"
        assert main(["exactness", f, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["is_2_level"] is True
        assert report["th1_exact"] is True
        assert len(report["facets"]) == 6

    def test_pentagon_stable_set(self, pentagon_file, tmp_path):
        out = tmp_path / "penta_report.json"
        assert main(["exactness", pentagon_file, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["num_points"] == 11
        assert report["is_2_level"] is False
        assert report["th_k_bound"] == 2

    def test_permutation_group(self, tmp_path):
        f = write_json(tmp_path / "s3.json", {"kind": "permutation", "n": 3, "generators": [[2, 1, 3], [2, 3, 1]]})
        out = tmp_path / "s3_report.json"
        assert main(["exactness", f, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["num_points"] == 6
        assert report["hull_dim"] == 4  # (n-1)^2 for the full symmetric group
        assert report["is_2_level"] is True

    def test_birkhoff_polytope(self, tmp_path):
        gens = [[2, 1, 3, 4], [2, 3, 4, 1]]
        f = write_json(tmp_path / "s4.json", {"kind": "permutation", "n": 4, "generators": gens})
        out = tmp_path / "s4_report.json"
        assert main(["exactness", f, "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["num_points"] == 24
        assert report["hull_dim"] == 9
        assert len(report["facets"]) == 16
        assert report["is_2_level"] is True

    def test_curve_not_supported(self, cardioid_file):
        assert main(["exactness", cardioid_file]) == EXIT_INPUT

    def test_cap_violation_reports_input_error(self, tmp_path):
        pts = [[i, i * i] for i in range(65)]
        f = write_json(tmp_path / "many.json", {"kind": "points", "points": pts})
        assert main(["exactness", f]) == EXIT_INPUT


class TestCertify:
    def test_rank_facet_level2(self, pentagon2_file, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify", pentagon2_file, "--facet", "10", "--json", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["mode"] == "exact"
        assert report["verified"] is True
        assert report["residual"] == "0"

    def test_edge_facet_level1(self, pentagon_file):
        # facets 5..9 are the edge inequalities in canonical order
        assert main(["certify", pentagon_file, "--facet", "5"]) == EXIT_OK

    def test_rank_inequality_fails_at_level1(self, pentagon_file):
        assert (
            main(["certify", pentagon_file, "--objective", "1,1,1,1,1", "--lam", "2"])
            == EXIT_VERIFICATION
        )

    def test_objective_form(self, pentagon_file):
        assert (
            main(["certify", pentagon_file, "--objective", "1,1,0,0,0", "--lam", "1"])
            == EXIT_OK
        )

    def test_facet_out_of_range(self, pentagon_file):
        assert main(["certify", pentagon_file, "--facet", "99"]) == EXIT_INPUT

    def test_point_set_facets_certify_offset_minus_normal(self, tmp_path):
        # points files have no structural squares, so every facet goes
        # through the SDP certificate with objective c = normal
        cube = [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        f = write_json(tmp_path / "cube3.json", {"kind": "points", "points": cube})
        facets = enumerate_facets(cube)
        assert len(facets) == 6
        targets = set()
        for i, facet in enumerate(facets):
            out = tmp_path / f"cert{i}.json"
            assert main(["certify", f, "--facet", str(i), "--json", str(out)]) == EXIT_OK
            report = json.loads(out.read_text())
            assert report["verified"] is True
            target = parse_polynomial(report["target"], 3)
            for p in cube:
                assert target.evaluate(p) == facet.value(p)
            targets.add(report["target"])
        assert targets == {"x1", "x2", "x3", "-x1 + 1", "-x2 + 1", "-x3 + 1"}


class TestConfig:
    def test_config_file_sets_options(self, pentagon_file, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("max_iter = 3\n# comment\ngap_tol = 1e-9\n")
        rc = main(["solve", pentagon_file, "--config", str(cfg)])
        assert rc == 3  # three iterations cannot converge

    def test_flag_overrides_config(self, pentagon_file, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("max_iter = 3\n")
        rc = main(["solve", pentagon_file, "--config", str(cfg), "--max-iter", "200"])
        assert rc == EXIT_OK

    def test_bad_config_line(self, pentagon_file, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("whatever\n")
        assert main(["solve", pentagon_file, "--config", str(cfg)]) == EXIT_INPUT
