"""Spans and counters recorded around the program's public functions.

The benchmark never edits the program.  ``Tracer.install`` replaces each
traced function in every thetabody module namespace that holds it, and each
traced method on its class, with a wrapper that records one span: name,
parent span, operation identifier, start, end and a small summary of the
result.  Spans stay in memory until the run writes them out.
``IterationCounter`` is the only wrapper present in untraced runs: it adds
up ``SdpSolution.iterations`` at the ``sdp.solve`` and
``sdp.phase1_interior`` boundary, which ``ray_shoot`` and
``extract_certificate`` do not expose to their callers.
"""

from __future__ import annotations

from collections import defaultdict

import thetabody
from thetabody import cli, exactness, moment, polycore, quotient, sdp, thetaops

MODULES = (thetabody, quotient, polycore, moment, sdp, thetaops, exactness, cli)


def _solve_info(sol):
    return sol.status.value, sol.iterations


def _phase1_info(res):
    sol = res.solution
    if not res.feasible:
        return "Infeasible", sol.iterations if sol else 0
    return (sol.status.value, sol.iterations) if sol else ("Optimal", 0)


# (owning module, function, span name, result summary)
FUNCTIONS = [
    (quotient, "basis_points", "quotient.build", None),
    (quotient, "basis_stable_set", "quotient.build", None),
    (quotient, "basis_cut_ideal", "quotient.build", None),
    (quotient, "basis_principal", "quotient.build", None),
    (polycore, "normal_form", "polycore.normal_form", None),
    (moment, "build_moment_template", "moment.template", None),
    (sdp, "solve", "sdp.solve", _solve_info),
    (sdp, "phase1_interior", "sdp.phase1", _phase1_info),
    (thetaops, "maximize_linear", "thetaops.maximize_linear", None),
    (thetaops, "ray_shoot", "thetaops.ray_shoot", None),
    (thetaops, "membership", "thetaops.membership", None),
    (thetaops, "extract_certificate", "thetaops.extract_certificate", lambda c: c.mode),
    (exactness, "level_report", "exactness.facets", lambda r: len(r.facets)),
    (exactness, "enumerate_facets", "exactness.facets", len),
    (cli, "main", "cli.certify", None),
]

METHODS = [
    (quotient.PointsOracle, "reduce_poly", "quotient.reduce"),
    (quotient.StableSetOracle, "reduce_poly", "quotient.reduce"),
    (quotient.CutIdealOracle, "reduce_poly", "quotient.reduce"),
    (quotient.ReducerOracle, "reduce_poly", "quotient.reduce"),
    (moment.MomentTemplate, "substituted", "moment.substitute"),
    (moment.MomentTemplate, "coefficient_matrix", "moment.coeff_matrix"),
]

# per-layer metrics, in the order BENCHMARK.json lists them: name -> unit
LAYER_METRICS = {
    "quotient.build_s": "s",
    "quotient.reduce_s": "s",
    "quotient.reduce_calls": "count",
    "polycore.normal_form_s": "s",
    "polycore.normal_form_calls": "count",
    "moment.template_s": "s",
    "moment.substitute_s": "s",
    "moment.substitute_calls": "count",
    "moment.coeff_matrix_s": "s",
    "moment.coeff_matrix_calls": "count",
    "sdp.solve_calls": "count",
    "sdp.solve_s": "s",
    "sdp.iter_ms": "ms",
    "sdp.unbounded_s": "s",
    "sdp.phase1_calls": "count",
    "sdp.phase1_s": "s",
    "sdp.ipm_iters": "count",
    "sdp.status.Optimal": "count",
    "sdp.status.Unbounded": "count",
    "sdp.status.Infeasible": "count",
    "sdp.status.NumericalTrouble": "count",
    "thetaops.maximize_linear_self_s": "s",
    "thetaops.ray_shoot_self_s": "s",
    "thetaops.membership_self_s": "s",
    "thetaops.extract_certificate_self_s": "s",
    "thetaops.exact_certs": "count",
    "exactness.facets_s": "s",
    "exactness.facets": "count",
    "cli.certify_s": "s",
    "cli.certify_calls": "count",
    "trace.overhead_s": "s",
}


class _Patcher:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _patch_function(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        wrapper = make(original)
        for mod in MODULES:
            if getattr(mod, name, None) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _patch_method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._saved):
            setattr(obj, name, original)
        self._saved.clear()


class IterationCounter(_Patcher):
    """Sum of SdpSolution.iterations over sdp.solve and sdp.phase1_interior."""

    def __init__(self):
        super().__init__()
        self.iterations = 0

    def install(self) -> None:
        def count(fn, summary):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.iterations += summary(out)[1]
                return out
            return counted

        self._patch_function(sdp, "solve", lambda fn: count(fn, _solve_info))
        self._patch_function(sdp, "phase1_interior", lambda fn: count(fn, _phase1_info))


class Tracer(_Patcher):
    """Spans at the layer boundaries, tagged with the current operation.

    ``now`` is the clock of the span boundaries; the benchmark passes one
    that stands still while its reference computation runs inside a span.
    """

    def __init__(self, now):
        super().__init__()
        self.now = now
        # [name, parent index, operation id, start, end, result summary]
        self.spans: list[list] = []
        self.op = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, summary):
        def make(fn):
            def traced(*args, **kwargs):
                index = len(self.spans)
                span = [name, self._stack[-1] if self._stack else None, self.op, 0.0, 0.0, None]
                self.spans.append(span)
                self._stack.append(index)
                span[3] = self.now()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[4] = self.now()
                    self._stack.pop()
                if summary is not None:
                    span[5] = summary(out)
                return out
            return traced
        return make

    def install(self) -> None:
        for owner, fn_name, span_name, summary in FUNCTIONS:
            self._patch_function(owner, fn_name, self._wrap(span_name, summary))
        for cls, attr, span_name in METHODS:
            self._patch_method(cls, attr, self._wrap(span_name, None))


def layer_metrics(spans: list[list], setups: int, rounds: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round.

    Spans whose operation id starts with "setup" are averaged over the set-up
    repetitions, the others over the rounds.  Times ending in ``_s`` are
    inclusive except the ``sdp.*_s`` and ``thetaops.*_self_s`` ones, which
    are self times: the span minus the spans it caused.  ``sdp.iter_ms``
    pools every Optimal ``sdp.solve``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, parent, op, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    totals = {"setup": defaultdict(float), "round": defaultdict(float)}
    optimal_s = optimal_iters = 0.0
    for index, (name, parent, op, t0, t1, info) in enumerate(spans):
        out = totals["setup" if op.startswith("setup") else "round"]
        dur = t1 - t0
        own = dur - child_time[index]
        if name.startswith("sdp."):
            status, iters = info or ("raised", 0)
            out["sdp.ipm_iters"] += iters
            out[f"sdp.status.{status}"] += 1
            if name == "sdp.solve":
                out["sdp.solve_calls"] += 1
                out["sdp.solve_s"] += own
                if status == "Optimal":
                    optimal_s += own
                    optimal_iters += iters
                elif status == "Unbounded":
                    out["sdp.unbounded_s"] += own
            else:
                out["sdp.phase1_calls"] += 1
                out["sdp.phase1_s"] += own
        elif name.startswith("thetaops."):
            out[f"{name}_self_s"] += own
            if info == "exact":
                out["thetaops.exact_certs"] += 1
        elif name == "exactness.facets":
            if parent is None or spans[parent][0] != name:
                out["exactness.facets_s"] += dur
                out["exactness.facets"] += info or 0
        elif name == "quotient.build":
            out["quotient.build_s"] += dur
        elif name == "cli.certify":
            out["cli.certify_s"] += dur
            out["cli.certify_calls"] += 1
        else:
            out[f"{name}_s"] += dur
            out[f"{name}_calls"] += 1
    metrics = {
        name: totals["setup"][name] / setups + totals["round"][name] / rounds
        for name in LAYER_METRICS
    }
    metrics["sdp.iter_ms"] = 1e3 * optimal_s / optimal_iters if optimal_iters else 0.0
    del metrics["trace.overhead_s"]
    return metrics
