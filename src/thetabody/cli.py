"""Command-line front door: solve, trace, exactness, certify.

Problem files are JSON documents with a "kind" field (stable_set, maxcut,
points, curve, permutation) and the matching payload; see README for the
schema.  Exit codes: 0 ok, 2 input error, 3 numerical failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .exactness import CapExceededError, enumerate_facets, level_report
from .polycore import (
    Monomial,
    Polynomial,
    format_polynomial,
    linear_polynomial,
    parse_polynomial,
)
from .quotient import (
    Graph,
    basis_cut_ideal,
    basis_points,
    basis_principal,
    basis_stable_set,
    permutation_points,
)
from .sdp import SdpOptions, SdpStatus
from .thetaops import (
    ThetaBodyProblem,
    certificate_from_squares,
    extract_certificate,
    maximize_linear,
    odd_cycle_sos_squares,
    support_contour,
    theta_problem,
    trace_boundary_2d,
)

KINDS = ("stable_set", "maxcut", "points", "curve", "permutation")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


class ProblemFileError(ValueError):
    pass


def fmt9(x) -> str:
    """Numeric output convention: 9 significant digits."""
    if x is None:
        return "-"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return format(float(x), ".9g")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ProblemFileError(msg)


def load_problem_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"{path} is not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "problem file must be a JSON object")
    _require(doc.get("kind") in KINDS, f'"kind" must be one of {KINDS}')
    kind = doc["kind"]
    k = doc.get("k", 1)
    _require(isinstance(k, int) and k >= 1, '"k" must be a positive integer')
    if kind in ("stable_set", "maxcut"):
        _require("graph" in doc, f'{kind} problems need a "graph"')
        g = doc["graph"]
        _require(
            isinstance(g, dict) and isinstance(g.get("n"), int) and isinstance(g.get("edges"), list),
            '"graph" must be {"n": int, "edges": [[u,v],...]}',
        )
    elif kind == "points":
        _require(isinstance(doc.get("points"), list) and doc["points"], '"points" must be a nonempty list')
    elif kind == "curve":
        _require(isinstance(doc.get("polynomial"), str), '"polynomial" must be a string')
    elif kind == "permutation":
        _require(isinstance(doc.get("n"), int) and doc["n"] >= 1, '"n" must be a positive integer')
        _require(isinstance(doc.get("generators"), list), '"generators" must be a list')
    if "objective" in doc:
        _require(
            isinstance(doc["objective"], list)
            and all(isinstance(v, (int, float)) for v in doc["objective"]),
            '"objective" must be a list of numbers',
        )
    return doc


def _parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise ProblemFileError(f"bad coordinate {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ValueError as e:
            raise ProblemFileError(f"bad rational {v!r}") from e
    if isinstance(v, float):
        return Fraction(v)
    raise ProblemFileError(f"bad coordinate {v!r}")


def build_points(doc: dict) -> list[tuple]:
    kind = doc["kind"]
    if kind == "points":
        return [tuple(_parse_rational(c) for c in p) for p in doc["points"]]
    if kind == "stable_set":
        graph = Graph.from_json(doc["graph"])
        oracle = basis_stable_set(graph, max(1, (graph.n + 1) // 2))
        return [
            tuple(Fraction(1) if v + 1 in s else Fraction(0) for v in range(graph.n))
            for s in oracle.basis.labels
        ]
    if kind == "permutation":
        return permutation_points(doc["n"], doc["generators"])
    raise ProblemFileError(f"kind {kind!r} has no associated point set")


def build_theta_problem(doc: dict) -> ThetaBodyProblem:
    kind = doc["kind"]
    k = doc.get("k", 1)
    if kind == "stable_set":
        return theta_problem(basis_stable_set(Graph.from_json(doc["graph"]), k), k)
    if kind == "maxcut":
        return theta_problem(basis_cut_ideal(Graph.from_json(doc["graph"]), k), k)
    if kind == "points":
        pts = [tuple(_parse_rational(c) for c in p) for p in doc["points"]]
        return theta_problem(basis_points(pts, doc.get("order", "grevlex")), k)
    if kind == "curve":
        h = parse_polynomial(doc["polynomial"], doc.get("nvars"))
        return theta_problem(basis_principal(h, doc.get("order", "grevlex"), k), k)
    if kind == "permutation":
        pts = permutation_points(doc["n"], doc["generators"])
        return theta_problem(basis_points(pts), k)
    raise ProblemFileError(f"unknown kind {kind!r}")


def read_config(path: str | None) -> dict:
    """TOML-like key=value file with solver options."""
    if not path:
        return {}
    out: dict = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ProblemFileError(f"bad config line: {raw.strip()!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                out[key.replace("-", "_")] = val
    except OSError as e:
        raise ProblemFileError(f"cannot read config {path}: {e}") from e
    return out


def make_options(args, config: dict) -> SdpOptions:
    def pick(name, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return cast(flag)
        if name in config:
            return cast(config[name])
        return default

    base = SdpOptions()
    return SdpOptions(
        gap_tol=pick("gap_tol", float, base.gap_tol),
        feas_tol=pick("feas_tol", float, base.feas_tol),
        max_iter=pick("max_iter", int, base.max_iter),
        unbounded_cap=pick("unbounded_cap", float, base.unbounded_cap),
    )


def _write_json(path: str | None, doc: dict) -> None:
    if not path:
        return
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_solve(args) -> int:
    config = read_config(args.config)
    doc = load_problem_file(args.file)
    opts = make_options(args, config)
    problem = build_theta_problem(doc)
    kind = doc["kind"]
    sense = doc.get("sense", "min" if kind == "maxcut" else "max")
    _require(sense in ("max", "min"), '"sense" must be "max" or "min"')
    objective = doc.get("objective")
    if objective is None:
        _require(
            kind in ("stable_set", "maxcut"),
            f'{kind} problems need an explicit "objective"',
        )
        objective = [1.0] * problem.nvars
    _require(len(objective) == problem.nvars, '"objective" length mismatch')
    c = objective if sense == "max" else [-v for v in objective]
    res = maximize_linear(problem, c, opts)
    value = res.value if sense == "max" else -res.value
    status = res.solution.status
    report = {
        "kind": kind,
        "k": doc.get("k", 1),
        "sense": sense,
        "objective": list(objective),
        "status": status.value,
        "value": None if value in (math.inf, -math.inf) else value,
        "unbounded": status == SdpStatus.UNBOUNDED,
        "optimizer": list(res.point) if res.point is not None else None,
        "iterations": res.solution.iterations,
        "gap": res.solution.gap,
        "primal_residual": res.solution.primal_residual,
        "dual_residual": res.solution.dual_residual,
        "phases": [asdict(ph) for ph in res.solution.phases],
    }
    if kind == "maxcut" and status == SdpStatus.OPTIMAL:
        report["cut_bound"] = (problem.nvars - value) / 2.0
    print(f"kind      : {kind} (level k={report['k']})")
    print(f"status    : {status.value}")
    print(f"{sense} value : {fmt9(value if report['value'] is not None else math.inf)}")
    if res.point is not None:
        print("optimizer : " + " ".join(fmt9(v) for v in res.point))
    if "cut_bound" in report:
        print(f"cut bound : {fmt9(report['cut_bound'])}")
    print(
        f"solver    : {res.solution.iterations} iterations, gap {fmt9(res.solution.gap)}, "
        f"residuals {fmt9(res.solution.primal_residual)}/{fmt9(res.solution.dual_residual)}"
    )
    _write_json(args.json, report)
    if status == SdpStatus.NUMERICAL_TROUBLE:
        return EXIT_NUMERICAL
    return EXIT_OK


def _svg_header(xmin, xmax, ymin, ymax) -> tuple[str, float]:
    spanx = max(xmax - xmin, 1e-9)
    spany = max(ymax - ymin, 1e-9)
    mx, my = 0.05 * spanx, 0.05 * spany
    xmin, xmax, ymin, ymax = xmin - mx, xmax + mx, ymin - my, ymax + my
    width = xmax - xmin
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{xmin:.6f} {(-ymax):.6f} '
        f'{width:.6f} {(ymax - ymin):.6f}">',
        width,
    )


def _polyline(points, color: str, width: float) -> str:
    pts = " ".join(f"{x:.6f},{-y:.6f}" for x, y in points)
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width:.6f}" points="{pts}"/>'
    )


def _polygon(points, color: str, width: float) -> str:
    pts = " ".join(f"{x:.6f},{-y:.6f}" for x, y in points)
    return (
        f'<polygon fill="none" stroke="{color}" stroke-width="{width:.6f}" points="{pts}"/>'
    )


def _segment(x1, y1, x2, y2, color: str, width: float) -> str:
    return (
        f'<line x1="{x1:.6f}" y1="{-y1:.6f}" x2="{x2:.6f}" y2="{-y2:.6f}" '
        f'stroke="{color}" stroke-width="{width:.6f}"/>'
    )


def cmd_trace(args) -> int:
    config = read_config(args.config)
    doc = load_problem_file(args.file)
    opts = make_options(args, config)
    problem = build_theta_problem(doc)
    _require(problem.nvars == 2, "tracing needs a 2-variable problem")
    samples = [(float(x), float(y)) for x, y in doc.get("samples", [])]
    num = args.num_dirs
    elements: list[str] = []
    extent: list[tuple[float, float]] = list(samples)
    if args.contour:
        dirs = [
            (math.cos(2 * math.pi * j / num), math.sin(2 * math.pi * j / num))
            for j in range(num)
        ]
        lines = support_contour(problem, dirs, opts)
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["theta", "lambda"])
                for j, line in enumerate(lines):
                    if line.unbounded:
                        lam = "inf"
                    elif line.value is None:
                        # the solve ended without a verdict (NumericalTrouble)
                        lam = "nan"
                    else:
                        lam = f"{line.value:.9g}"
                    w.writerow([f"{2 * math.pi * j / num:.9g}", lam])
        finite = [(d, v) for d, v in zip(dirs, (l.value for l in lines)) if v is not None]
        for (cx, cy), lam in finite:
            # tangent line c.x = lambda, drawn across the sample extent
            px, py = lam * cx, lam * cy
            tx, ty = -cy, cx
            span = 1.5 * max(
                (max(abs(x) for x, _ in extent + [(1, 1)])),
                (max(abs(y) for _, y in extent + [(1, 1)])),
            )
            elements.append(
                _segment(px - span * tx, py - span * ty, px + span * tx, py + span * ty, "#888888", 0.01)
            )
            extent.append((px, py))
        n_unbounded = sum(1 for line in lines if line.unbounded)
        n_failed = sum(1 for line in lines if line.value is None and not line.unbounded)
    else:
        trace = trace_boundary_2d(problem, num, opts)
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["theta", "t", "x", "y"])
                for pt in trace:
                    if pt.unbounded:
                        w.writerow([f"{pt.theta:.9g}", "inf", "inf", "inf"])
                    elif pt.t is None:
                        # the ray ended without a verdict (NumericalTrouble)
                        w.writerow([f"{pt.theta:.9g}", "nan", "nan", "nan"])
                    else:
                        w.writerow(
                            [f"{pt.theta:.9g}", f"{pt.t:.9g}", f"{pt.x:.9g}", f"{pt.y:.9g}"]
                        )
        finite_pts = [(pt.x, pt.y) for pt in trace if pt.t is not None]
        if finite_pts:
            elements.append(_polyline(finite_pts + finite_pts[:1], "#1f6fb2", 0.02))
            extent.extend(finite_pts)
        n_unbounded = sum(1 for pt in trace if pt.unbounded)
        n_failed = sum(1 for pt in trace if pt.t is None and not pt.unbounded)
    print(f"traced {num} directions, {n_unbounded} unbounded, {n_failed} NumericalTrouble")
    if samples:
        elements.insert(0, _polygon(samples, "#c23b22", 0.02))
    if args.svg:
        if extent:
            xmin = min(x for x, _ in extent)
            xmax = max(x for x, _ in extent)
            ymin = min(y for _, y in extent)
            ymax = max(y for _, y in extent)
        else:
            xmin = ymin = -1.0
            xmax = ymax = 1.0
        header, _ = _svg_header(xmin, xmax, ymin, ymax)
        with open(args.svg, "w") as fh:
            fh.write(header + "\n")
            for el in elements:
                fh.write(el + "\n")
            fh.write("</svg>\n")
    return EXIT_NUMERICAL if n_failed else EXIT_OK


def cmd_exactness(args) -> int:
    doc = load_problem_file(args.file)
    _require(
        doc["kind"] in ("points", "stable_set", "permutation"),
        "exactness reports need a points, stable_set or permutation problem",
    )
    pts = build_points(doc)
    rep = level_report(pts)
    report = {
        "kind": doc["kind"],
        "num_points": len(pts),
        "hull_dim": rep.hull_dim,
        "facets": [
            {
                "normal": [str(v) for v in f.normal],
                "offset": str(f.offset),
                "level": lv,
                "values": [str(v) for v in vals],
            }
            for f, lv, vals in zip(rep.facets, rep.levels, rep.facet_values)
        ],
        "overall_level": rep.overall_level,
        "is_2_level": rep.is_2_level,
        "th_k_bound": rep.th_k_bound,
        "th1_exact": rep.is_2_level,
    }
    print(f"points        : {len(pts)}")
    print(f"hull dim      : {rep.hull_dim}")
    print(f"facets        : {len(rep.facets)}")
    print(f"overall level : {rep.overall_level}")
    print(f"2-level       : {rep.is_2_level}")
    print(f"th_k bound    : {rep.th_k_bound}")
    _write_json(args.json, report)
    return EXIT_OK


def _facet_poly(facet, nvars: int) -> Polynomial:
    return linear_polynomial(facet.offset, [-n for n in facet.normal])


def _structural_squares(doc: dict, problem: ThetaBodyProblem, l: Polynomial):
    """Known square witnesses for stable-set facets, when they apply."""
    if doc["kind"] != "stable_set":
        return None
    graph = Graph.from_json(doc["graph"])
    n = graph.n
    coeffs = [None] * n
    c0 = l.coefficient(Monomial.one(n))
    for i in range(n):
        coeffs[i] = l.coefficient(Monomial.variable(i, n))
    support = [i for i in range(n) if coeffs[i]]
    non_linear = [m for m in l.terms if m.degree > 1]
    if non_linear:
        return None
    # x_i >= 0
    if c0 == 0 and len(support) == 1 and coeffs[support[0]] == 1:
        return [Polynomial.variable(support[0], n)]
    # 1 - x_i - x_j >= 0 over an edge
    if (
        c0 == 1
        and len(support) == 2
        and all(coeffs[i] == -1 for i in support)
        and graph.has_edge(support[0] + 1, support[1] + 1)
    ):
        return [l]
    # (n-1)/2 - sum x_i over an odd cycle on all vertices
    degs = {v: 0 for v in range(1, n + 1)}
    for u, v in graph.edges:
        degs[u] += 1
        degs[v] += 1
    is_cycle = (
        n >= 5
        and n % 2 == 1
        and len(graph.edges) == n
        and all(d == 2 for d in degs.values())
        and graph.is_connected()
    )
    if (
        is_cycle
        and len(support) == n
        and all(coeffs[i] == -1 for i in range(n))
        and c0 == Fraction(n - 1, 2)
        and problem.k >= 2
    ):
        order = _cycle_order(graph)
        relabeled = _relabel_squares(odd_cycle_sos_squares(n), order, n)
        return relabeled
    return None


def _cycle_order(graph: Graph) -> list[int]:
    """Vertices of a cycle graph in traversal order, starting at 1."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, graph.n + 1)}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [1, min(adj[1])]
    while len(order) < graph.n:
        nxt = [w for w in adj[order[-1]] if w != order[-2]]
        order.append(nxt[0])
    return order


def _relabel_squares(squares, order: list[int], n: int):
    """Map polynomials on cycle positions to the graph's vertex labels."""
    perm = {i: order[i] - 1 for i in range(n)}
    out = []
    for q in squares:
        terms = {}
        for m, c in q.terms.items():
            exps = [0] * n
            for pos, e in enumerate(m.exps):
                exps[perm[pos]] = e
            terms[Monomial(exps)] = c
        out.append(Polynomial(terms, n))
    return out


def cmd_certify(args) -> int:
    config = read_config(args.config)
    doc = load_problem_file(args.file)
    opts = make_options(args, config)
    problem = build_theta_problem(doc)
    if args.facet is not None:
        pts = build_points(doc)
        facets = enumerate_facets(pts)
        _require(0 <= args.facet < len(facets), f"facet index out of range (0..{len(facets) - 1})")
        l = _facet_poly(facets[args.facet], problem.nvars)
        c = list(facets[args.facet].normal)
        lam = facets[args.facet].offset
    else:
        _require(args.objective is not None and args.lam is not None,
                 "need either --facet or both --objective and --lam")
        c = [float(v) for v in args.objective.split(",")]
        _require(len(c) == problem.nvars, "--objective length mismatch")
        lam = args.lam
        l = linear_polynomial(Fraction(lam), [-Fraction(v) for v in c])
    squares = _structural_squares(doc, problem, l)
    if squares is not None:
        cert = certificate_from_squares(problem, l, squares)
    else:
        cert = extract_certificate(problem, c, lam, opts)
    report = {
        "target": format_polynomial(cert.linear_poly),
        "mode": cert.mode,
        "verified": cert.verified,
        "max_residual_coeff": cert.max_residual_coeff,
        "gram_dim": int(cert.gram.shape[0]) if cert.gram is not None else None,
        "psd_margin": cert.psd_margin,
        "residual": format_polynomial(cert.residual),
    }
    print(f"target    : {report['target']} >= 0")
    print(f"mode      : {cert.mode}")
    print(f"verified  : {cert.verified}")
    print(f"residual  : max coefficient {fmt9(cert.max_residual_coeff)}")
    print(f"gram      : {report['gram_dim']}x{report['gram_dim']}, min eigenvalue {fmt9(cert.psd_margin)}")
    _write_json(args.json, report)
    return EXIT_OK if cert.verified else EXIT_VERIFICATION


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta",
        description="Semidefinite outer approximations of convex hulls of algebraic sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--config", help="key=value options file")
        p.add_argument("--gap-tol", dest="gap_tol", type=float)
        p.add_argument("--feas-tol", dest="feas_tol", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--unbounded-cap", dest="unbounded_cap", type=float)
        p.add_argument("--json", help="write a JSON report here ('-' for stdout)")

    p_solve = sub.add_parser("solve", help="optimize a linear objective over the theta body")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_trace = sub.add_parser("trace", help="trace the planar boundary or support contour")
    common(p_trace)
    p_trace.add_argument("--num-dirs", dest="num_dirs", type=int, default=720)
    p_trace.add_argument("--csv", help="CSV output path")
    p_trace.add_argument("--svg", help="SVG output path")
    p_trace.add_argument("--contour", action="store_true", help="support lines instead of rays")
    p_trace.set_defaults(func=cmd_trace)

    p_exact = sub.add_parser("exactness", help="facet levels of a finite point set")
    common(p_exact)
    p_exact.set_defaults(func=cmd_exactness)

    p_cert = sub.add_parser("certify", help="extract/verify a sum-of-squares certificate")
    common(p_cert)
    p_cert.add_argument("--facet", type=int, help="facet index from the exactness report")
    p_cert.add_argument("--objective", help="comma-separated objective vector")
    p_cert.add_argument("--lam", type=float, help="offset of the target halfspace")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFileError, CapExceededError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
