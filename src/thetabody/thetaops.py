"""User-level operations on theta-body relaxations.

Linear optimization, membership, radial boundary tracing, support contours,
and sum-of-squares certificate extraction and verification, all driven by a
quotient oracle and its moment template at a fixed level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .moment import MomentTemplate, build_moment_template
from .polycore import Monomial, Polynomial, linear_polynomial
from .quotient import QuotientOracle
from .sdp import (
    Phase1Result,
    SdpOptions,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    phase1_interior,
    solve,
)

RATIONALIZE_DENOMINATOR = 10**6
NUMERIC_RESIDUAL_TOL = 1e-6


@dataclass
class ThetaBodyProblem:
    oracle: QuotientOracle
    k: int
    template: MomentTemplate

    @property
    def nvars(self) -> int:
        return self.oracle.nvars


def theta_problem(oracle: QuotientOracle, k: int) -> ThetaBodyProblem:
    return ThetaBodyProblem(oracle, k, build_moment_template(oracle, k))


@dataclass
class LinearOptResult:
    value: float
    point: tuple | None
    solution: SdpSolution


@dataclass
class MembershipResult:
    inside: bool
    margin: float
    phase1: Phase1Result | None = None


@dataclass
class RayShot:
    t: float | None
    unbounded: bool
    status: SdpStatus
    solution: SdpSolution | None = None


@dataclass
class TracePoint:
    theta: float
    t: float | None
    x: float | None
    y: float | None
    unbounded: bool


@dataclass
class SupportLine:
    direction: tuple
    value: float | None
    unbounded: bool


@dataclass
class Certificate:
    """Gram-matrix witness that linear_poly is a sum of squares modulo I.

    residual is the canonical form of linear_poly - f^T gram f; verification
    succeeds when it is exactly zero (mode "exact", rationalized Gram) or when
    every coefficient is below the numeric threshold (mode "numeric").
    """

    linear_poly: Polynomial
    gram: np.ndarray
    residual: Polynomial
    mode: str
    verified: bool
    max_residual_coeff: float
    gram_rational: list | None = None
    psd_margin: float = 0.0


def _objective_from_direction(p: ThetaBodyProblem, c: Sequence) -> dict[int, float]:
    if len(c) != p.nvars:
        raise ValueError(f"objective has {len(c)} entries, problem has {p.nvars} variables")
    obj: dict[int, float] = {}
    for i, ci in enumerate(c):
        if not ci:
            continue
        for l, coef in p.oracle.coord_form(i).items():
            obj[l] = obj.get(l, 0.0) + float(ci) * float(coef)
    return obj


def point_from_moment(p: ThetaBodyProblem, y: Sequence) -> tuple:
    """Reconstruct the ambient point from a moment vector's coordinates."""
    out = []
    for i in range(p.nvars):
        acc = 0.0
        for l, coef in p.oracle.coord_form(i).items():
            acc += float(coef) * float(y[l])
        out.append(acc)
    return tuple(out)


def maximize_linear(
    p: ThetaBodyProblem, c: Sequence, opts: SdpOptions | None = None
) -> LinearOptResult:
    """sup of c.x over the level-k theta body, with the optimizing point."""
    sol = solve(SdpProblem(p.template, _objective_from_direction(p, c), {0: 1.0}), opts)
    point = point_from_moment(p, sol.y.values) if sol.status == SdpStatus.OPTIMAL else None
    return LinearOptResult(sol.value, point, sol)


def membership(
    p: ThetaBodyProblem, x: Sequence, opts: SdpOptions | None = None
) -> MembershipResult:
    """Feasibility of pinning the coordinate slots to x, with margin."""
    opts = opts or SdpOptions()
    if len(x) != p.nvars:
        raise ValueError(f"point has {len(x)} coordinates, problem has {p.nvars}")
    fixed: dict[int, float] = {0: 1.0}
    slot_of_var: dict[int, int] = {}
    for i in range(p.nvars):
        form = p.oracle.coord_form(i)
        if len(form) == 1:
            (l, coef), = form.items()
            if l != 0 and coef == 1:
                fixed[l] = float(x[i])
                slot_of_var[i] = l
                continue
        # degenerate coordinate: consistency against the reconstruction
        acc = 0.0
        for l, coef in form.items():
            if l == 0:
                acc += float(coef)
            else:
                var = _var_of_slot(p, l)
                acc += float(coef) * float(x[var])
        if abs(float(x[i]) - acc) > 1e-9:
            return MembershipResult(False, -math.inf)
    res = phase1_interior(SdpProblem(p.template, {}, fixed), opts)
    return MembershipResult(res.feasible, res.margin, res)


def _var_of_slot(p: ThetaBodyProblem, l: int) -> int:
    m = p.oracle.basis.elements[l]
    if m.degree != 1:
        raise ValueError(f"coordinate {l} is not a variable slot")
    return next(i for i, e in enumerate(m.exps) if e)


def _ray_template(p: ThetaBodyProblem, direction: Sequence) -> MomentTemplate:
    """Template over (y_0, t, remaining coordinates) with slots tied to t*d."""
    slots = {}
    for i in range(p.nvars):
        form = p.oracle.coord_form(i)
        if len(form) == 1:
            (l, coef), = form.items()
            if l != 0 and coef == 1:
                slots[l] = i
                continue
        # a ray through a degenerate hull must stay inside it for every t:
        # the affine part must vanish and the direction must reconstruct
        const = float(form.get(0, 0))
        d_rec = sum(
            float(coef) * float(direction[_var_of_slot(p, l)])
            for l, coef in form.items()
            if l != 0
        )
        if abs(const) > 1e-12 or abs(d_rec - float(direction[i])) > 1e-9:
            raise ValueError(
                "ray direction leaves the affine hull of a degenerate oracle"
            )
    mapping: dict[int, dict[int, Fraction]] = {0: {0: Fraction(1)}}
    degrees = [0, 1]
    nxt = 2
    for l in range(1, p.template.nvars_y):
        if l in slots:
            mapping[l] = {1: Fraction(direction[slots[l]])}
        else:
            mapping[l] = {nxt: Fraction(1)}
            if p.template.coord_degrees is not None:
                degrees.append(p.template.coord_degrees[l])
            nxt += 1
    new_degrees = degrees if p.template.coord_degrees is not None else None
    return p.template.substituted(mapping, nxt, new_degrees)


def ray_shoot(
    p: ThetaBodyProblem, direction: Sequence, opts: SdpOptions | None = None
) -> RayShot:
    """max t with t*direction in the theta body, or an unbounded flag."""
    if len(direction) != p.nvars:
        raise ValueError("direction dimension mismatch")
    if all(d == 0 for d in direction):
        raise ValueError("direction must be nonzero")
    tpl = _ray_template(p, direction)
    sol = solve(SdpProblem(tpl, {1: 1.0}, {0: 1.0}), opts)
    if sol.status == SdpStatus.UNBOUNDED:
        return RayShot(None, True, sol.status, sol)
    if sol.status == SdpStatus.OPTIMAL:
        return RayShot(sol.value, False, sol.status, sol)
    return RayShot(None, False, sol.status, sol)


def trace_boundary_2d(
    p: ThetaBodyProblem,
    num_dirs: int,
    opts: SdpOptions | None = None,
) -> list[TracePoint]:
    """Radial boundary trace over equally spaced directions (plane only)."""
    if p.nvars != 2:
        raise ValueError("boundary tracing needs a 2-variable problem")
    if num_dirs < 1:
        raise ValueError("need at least one direction")
    thetas = [2.0 * math.pi * j / num_dirs for j in range(num_dirs)]

    def shoot(theta: float) -> TracePoint:
        d = (math.cos(theta), math.sin(theta))
        shot = ray_shoot(p, d, opts)
        if shot.t is None:
            return TracePoint(theta, None, None, None, shot.unbounded)
        return TracePoint(theta, shot.t, shot.t * d[0], shot.t * d[1], False)

    return [shoot(theta) for theta in thetas]


def support_contour(
    p: ThetaBodyProblem,
    directions: Sequence[Sequence],
    opts: SdpOptions | None = None,
) -> list[SupportLine]:
    """Supporting halfspaces c.x <= lambda(c) for every requested direction.

    A direction whose solve ends without an Optimal or Unbounded verdict gets
    no support: value None and unbounded False.
    """
    if not directions:
        raise ValueError("need at least one direction")
    for c in directions:
        if all(v == 0 for v in c):
            raise ValueError("directions must be nonzero")

    def one(c) -> SupportLine:
        res = maximize_linear(p, c, opts)
        status = res.solution.status
        if status == SdpStatus.UNBOUNDED:
            return SupportLine(tuple(c), None, True)
        return SupportLine(tuple(c), res.value if status == SdpStatus.OPTIMAL else None, False)

    return [one(c) for c in directions]


def _gram_product_poly(oracle: QuotientOracle, gram: Sequence[Sequence]) -> Polynomial:
    """The polynomial f_k^T gram f_k before reduction (exact Fractions)."""
    n = len(gram)
    elements = oracle.basis.elements
    terms: dict[Monomial, Fraction] = {}
    for i in range(n):
        for j in range(n):
            g = gram[i][j]
            if not g:
                continue
            m = elements[i] * elements[j]
            terms[m] = terms.get(m, Fraction(0)) + Fraction(g)
    return Polynomial(terms, oracle.nvars)


def verify_sos_identity(
    l: Polynomial, squares: Sequence[Polynomial], oracle: QuotientOracle
) -> Polynomial:
    """Canonical form of l - sum q^2 modulo the oracle's ideal (exact)."""
    acc = l
    for q in squares:
        acc = acc - q * q
    return oracle.reduce_poly(acc)


def certificate_from_squares(
    p: ThetaBodyProblem, l: Polynomial, squares: Sequence[Polynomial]
) -> Certificate:
    """Exact Gram certificate assembled from explicit square witnesses."""
    nk = p.template.dim
    elements = p.oracle.basis.elements
    index = {elements[i]: i for i in range(nk)}
    gram = [[Fraction(0)] * nk for _ in range(nk)]
    for q in squares:
        reduced = p.oracle.reduce_poly(q)
        vec = [Fraction(0)] * nk
        for m, c in reduced.terms.items():
            idx = index.get(m)
            if idx is None:
                raise ValueError(
                    f"square witness reduces outside the level-{p.k} basis: {m}"
                )
            vec[idx] = c
        for i in range(nk):
            if vec[i]:
                for j in range(nk):
                    if vec[j]:
                        gram[i][j] += vec[i] * vec[j]
    residual = p.oracle.reduce_poly(l - _gram_product_poly(p.oracle, gram))
    gram_f = np.array([[float(g) for g in row] for row in gram])
    psd_margin = float(np.linalg.eigvalsh((gram_f + gram_f.T) / 2)[0])
    # the Gram is a sum of outer products, PSD by construction; the margin is
    # informational and only sanity-checked against float roundoff
    verified = residual.is_zero and psd_margin >= -1e-9 * max(1.0, float(np.max(np.abs(gram_f))))
    maxc = max((abs(float(c)) for c in residual.terms.values()), default=0.0)
    return Certificate(l, gram_f, residual, "exact", verified, maxc, gram, psd_margin)


def extract_certificate(
    p: ThetaBodyProblem,
    c: Sequence,
    lam: float | Fraction,
    opts: SdpOptions | None = None,
) -> Certificate:
    """Certificate that lam - c.x is k-sos modulo the ideal, from the SDP dual.

    The dual matrix of the support optimization in direction c is the Gram
    candidate; the slack lam - sup(c.x) is absorbed on the constant-constant
    entry.  Verification first rationalizes the Gram (denominators bounded by
    RATIONALIZE_DENOMINATOR) and reduces exactly; when the snapped matrix does
    not reduce to zero, the float Gram is verified against the numeric
    threshold instead and the mode is reported.
    """
    opts = opts or SdpOptions()
    res = maximize_linear(p, c, opts)
    if res.solution.status == SdpStatus.UNBOUNDED:
        raise ValueError("objective is unbounded on the theta body: no certificate")
    if res.solution.status != SdpStatus.OPTIMAL:
        raise ValueError(f"support optimization failed: {res.solution.status.value}")
    Z = np.array(res.solution.dual_matrix, dtype=float)
    Z = (Z + Z.T) / 2
    Z[0, 0] += float(lam) - res.value
    lam_exact = lam if isinstance(lam, Fraction) else Fraction(float(lam))
    c_exact = [ci if isinstance(ci, Fraction) else Fraction(float(ci)) for ci in c]
    l_poly = linear_polynomial(lam_exact, [-ci for ci in c_exact])
    psd_margin = float(np.linalg.eigvalsh(Z)[0])
    psd_ok = psd_margin >= -1e-9 * max(1.0, float(np.max(np.abs(Z))))

    lam_snap = lam_exact.limit_denominator(RATIONALIZE_DENOMINATOR)
    c_snap = [ci.limit_denominator(RATIONALIZE_DENOMINATOR) for ci in c_exact]
    n = Z.shape[0]
    gram_snap = [
        [Fraction(Z[i, j]).limit_denominator(RATIONALIZE_DENOMINATOR) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            gram_snap[j][i] = gram_snap[i][j]
    l_snap = linear_polynomial(lam_snap, [-ci for ci in c_snap])
    residual_exact = p.oracle.reduce_poly(l_snap - _gram_product_poly(p.oracle, gram_snap))
    if residual_exact.is_zero and psd_ok and l_snap == l_poly:
        return Certificate(l_poly, Z, residual_exact, "exact", True, 0.0, gram_snap, psd_margin)

    gram_float = [[Fraction(Z[i, j]) for j in range(n)] for i in range(n)]
    residual_num = p.oracle.reduce_poly(l_poly - _gram_product_poly(p.oracle, gram_float))
    maxc = max((abs(float(v)) for v in residual_num.terms.values()), default=0.0)
    verified = psd_ok and maxc <= NUMERIC_RESIDUAL_TOL
    return Certificate(l_poly, Z, residual_num, "numeric", verified, maxc, None, psd_margin)


def odd_cycle_sos_squares(n: int) -> list[Polynomial]:
    """Degree-2 squares witnessing (n-1)/2 - sum x_i >= 0 on an odd cycle.

    For n = 2k+1 the witnesses are (1-x1)(1-x_{2i}-x_{2i+1}) for i = 1..k and
    x1(1-x_{2i+1}-x_{2i+2}) for i = 1..k-1, with vertices labeled around the
    cycle.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("need an odd cycle of length at least 5")
    k = (n - 1) // 2
    one = Polynomial.constant(1, n)
    x = [Polynomial.variable(i, n) for i in range(n)]
    squares = []
    for i in range(1, k + 1):
        squares.append((one - x[0]) * (one - x[2 * i - 1] - x[2 * i]))
    for i in range(1, k):
        squares.append(x[0] * (one - x[2 * i] - x[2 * i + 1]))
    return squares
