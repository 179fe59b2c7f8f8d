"""Dense primal-dual interior-point solver for linear matrix inequalities.

Problems have the shape: optimize a linear functional of y subject to
M(y) >= 0, where M is an affine symmetric-matrix map given by a moment
template, with a set of pinned coordinates (always containing y_0 = 1).
Pinned coordinates are substituted into the map before solving.

The algorithm is infeasible-start path following with Nesterov-Todd scaling;
a Mehrotra-style affine predictor step fixes the adaptive centering weight of
the actual step.  The Schur complement H_kl = <F_k, W^-1 F_l W^-1> is formed
densely in float64 with batched BLAS products, factored by LAPACK Cholesky
with a small diagonal regularization, and each direction takes one float64
solve with that factor.  Around the solve, the right-hand side and the primal
and dual directions dS and dZ are accumulated in extended precision (numpy
longdouble): with dS and dZ in float64, 17 tier-1 tests fail, nearly all on
a NumericalTrouble verdict where a decided one is expected, and with the
right-hand side in float64, 2 do.  A sweep of iterative refinement of the
Schur solve gained no verdict and cost 10-20 % of the solve time, so there
is none.  A moment matrix is built modulo the ideal, so each F_l has only a
few nonzeros; the extended-precision products with the F_l run over those
nonzeros in the order numpy's dense (BLAS-free) longdouble matmul adds them,
which gives the dense product bit for bit at O(nnz) instead of O(m d^2).
The step lengths reuse the iteration's Cholesky factors of S and Z.  At
convergence checks the dual iterate is additionally projected onto the
exact dual-feasibility subspace, which is a fixed well-conditioned system.
Everything is deterministic: identical inputs produce identical iterates.

Status classification.  Optimal rests on the gap and both residuals meeting
their tolerances.  Every Unbounded verdict rests on a verified certificate:
a point of the cap slice (feasible points with objective 2 * unbounded_cap)
whose smallest eigenvalue, computed directly, is at least 1e-7 of the slice
data's scale; or an improving recession ray from a converged solve with
objective above 1/2; or, inside the main solve, an iterate past the
objective cap with a verified eigenvalue margin.  The main solve carries a
divergence probe: every ten iterations it compares the iterate with the one
ten back, and when the iterate is primal feasible, the gap is outside its
tolerance and neither the gap nor the dual residual has fallen below a
quarter, and the objective has passed the earlier dual objective, it runs the
cap-slice test at once.  A certificate ends the solve Unbounded; otherwise
the solve goes on unchanged and the test is not repeated, since it does not
depend on the iterate.  Sub-solves that seek a witness (the cap slice's and
the classification's phase 1) stop at the first iterate whose margin is
verified.  A main solve that ends without a verdict is classified cheapest
first: its best iterate, when verified primal feasible, stands in for phase 1
(whose converged negative t is the Infeasible verdict); then the cap slice
unless the probe already ran it; then the recession ray; NumericalTrouble
when none of them decides.  Each core solve leaves a PhaseRecord.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .moment import MomentTemplate, MomentVector

_LD = np.longdouble

# Divergence probe of the main solve: every _PROBE_EVERY iterations the
# iterate is compared with the one _PROBE_EVERY iterations back; "shrinking"
# means falling below _PROBE_SHRINK times the earlier value.  A converging
# interior-point solve gains more than that in ten iterations.
_PROBE_EVERY = 10
_PROBE_SHRINK = 0.25
# the cap-slice certificate: a slice point whose smallest eigenvalue is at
# least this fraction of the slice data's scale
_SLICE_MARGIN = 1e-7
# fraction of the largest feasible step taken
_STEP_FRAC = 0.98
# diagonal regularization of the Schur complement's Cholesky factorization,
# relative to its mean diagonal
_SCHUR_REG = 1e-12


class SdpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    UNBOUNDED = "Unbounded"
    INFEASIBLE = "Infeasible"
    NUMERICAL_TROUBLE = "NumericalTrouble"


@dataclass(frozen=True)
class SdpOptions:
    gap_tol: float = 1e-9
    feas_tol: float = 1e-9
    max_iter: int = 200
    unbounded_cap: float = 1e8


@dataclass(frozen=True)
class IterateRecord:
    iteration: int
    primal_obj: float
    dual_obj: float
    gap: float
    primal_residual: float
    dual_residual: float


@dataclass(frozen=True)
class PhaseRecord:
    """One core interior-point solve run by solve() or phase1_interior().

    role is "main", "probe" (the cap-slice test run while the main solve
    shows the divergence signature), "phase1", "recession" or "cap_slice".
    stop is why it ended: "converged", "dual_projection" (converged after
    snapping the dual iterate onto the dual-feasibility subspace),
    "objective_cap", "probe" (the divergence probe certified), "witness"
    (first verified witness), "max_iter", "factorization", "non_finite" or
    "no_free_coordinates".  margin is what a classification solve is judged
    on: for phase1 its t (a lower bound on the smallest eigenvalue of M(y);
    Optimal and below -feas_tol means infeasible), for recession the ray's objective
    (Optimal and above 0.5 certifies), for probe and cap_slice the verified
    smallest eigenvalue of the slice point over the slice scale (at least
    1e-7 certifies); None for main.
    """

    role: str
    iterations: int
    stop: str
    margin: float | None = None


@dataclass
class SdpProblem:
    """Linear objective over the template coordinates with M(y) >= 0.

    fixed pins coordinates to numeric values and must contain y_0 = 1;
    membership queries additionally pin the coordinate slots.  interior_hint,
    when provided, is a full coordinate vector usable as a strictly feasible
    start by phase 1 (typically the barycenter of sampled variety points).
    """

    template: MomentTemplate
    objective: Mapping[int, float]
    fixed: Mapping[int, float]
    sense: str = "max"
    interior_hint: Sequence | None = None

    def __post_init__(self):
        if 0 not in self.fixed:
            raise ValueError("fixed coordinates must pin y_0")
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        n = self.template.nvars_y
        for l in list(self.objective) + list(self.fixed):
            if not 0 <= l < n:
                raise ValueError(f"coordinate index {l} out of range")


@dataclass
class SdpSolution:
    status: SdpStatus
    y: MomentVector | None
    value: float
    dual_matrix: np.ndarray | None
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    iterates: list[IterateRecord] = field(default_factory=list)
    phases: list[PhaseRecord] = field(default_factory=list)


@dataclass
class Phase1Result:
    feasible: bool
    margin: float
    y: MomentVector | None
    solution: SdpSolution | None


class _Compiled:
    """Pinned coordinates substituted away; dense float data for the core."""

    def __init__(self, problem: SdpProblem):
        t = problem.template
        d = t.dim
        free = [l for l in range(t.nvars_y) if l not in problem.fixed]
        basis_mats = t.coefficient_matrices()
        F0 = np.zeros((d, d))
        for l, v in problem.fixed.items():
            F0 += float(v) * basis_mats[l]
        Fs = basis_mats[free]
        sign = 1.0 if problem.sense == "max" else -1.0
        b = np.array([sign * float(problem.objective.get(l, 0.0)) for l in free])
        self.free = free
        self.F0 = F0
        self.Fs = Fs
        self.b = b
        self.sign = sign
        self.offset = sum(
            float(problem.objective.get(l, 0.0)) * float(v)
            for l, v in problem.fixed.items()
        )
        self.fixed = dict(problem.fixed)
        self.nvars_y = t.nvars_y
        self.row_degrees = list(t.row_degrees) if t.row_degrees is not None else None
        self.free_degrees = (
            [t.coord_degrees[l] for l in free] if t.coord_degrees is not None else None
        )

    def assemble_y(self, yfree: np.ndarray) -> MomentVector:
        vals = [0.0] * self.nvars_y
        for l, v in self.fixed.items():
            vals[l] = float(v)
        for l, v in zip(self.free, yfree):
            vals[l] = float(v)
        return MomentVector(tuple(vals))


class _CoreResult:
    def __init__(self, status, y, Z, pobj, gap, pr, dr, iterations, iterates, stop, probed=False):
        self.status = status
        self.y = y
        self.Z = Z
        self.pobj = pobj
        self.gap = gap
        self.pr = pr
        self.dr = dr
        self.iterations = iterations
        self.iterates = iterates
        self.stop = stop
        self.probed = probed


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _max_step(Linv: np.ndarray, dX: np.ndarray) -> float:
    """Largest a with X + a*dX still positive definite (inf if all a work).

    Linv is the inverse of the Cholesky factor of X.
    """
    lam = np.linalg.eigvalsh(_sym(Linv @ dX @ Linv.T))[0]
    if lam >= 0.0:
        return math.inf
    return -1.0 / lam


def _feasibility_margin(F0, Fs, yfree) -> float:
    M = F0 + (yfree @ Fs.reshape(len(Fs), F0.size)).reshape(F0.shape) if len(yfree) else F0.copy()
    return float(np.linalg.eigvalsh(_sym(M))[0])


class _SparseLD:
    """The nonzeros of a float64 matrix A, for products with A in longdouble.

    numpy's longdouble matmul runs without BLAS: every output entry starts at
    zero and adds its products in index order.  np.add.at over the nonzeros,
    kept in that order, does the same additions; each skipped term would have
    added a signed zero to a sum that starting from +0 never becomes -0.  So
    on finite data both products equal A.astype(longdouble) @ x and
    v @ A.astype(longdouble) bit for bit, at O(nnz) instead of O(size).
    """

    def __init__(self, A: np.ndarray):
        self.shape = A.shape
        rows, cols = np.nonzero(A)
        vals = A[rows, cols].astype(_LD)
        self.rows, self.cols, self.vals = rows, cols, vals
        by_col = np.lexsort((rows, cols))
        self.rows_t, self.cols_t, self.vals_t = rows[by_col], cols[by_col], vals[by_col]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x"""
        out = np.zeros(self.shape[0], dtype=_LD)
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """v @ A"""
        out = np.zeros(self.shape[1], dtype=_LD)
        np.add.at(out, self.cols_t, v[self.rows_t] * self.vals_t)
        return out


def _solve_core(F0, Fs, b, opts: SdpOptions, probe=None, witness=None) -> _CoreResult:
    """Maximize b.y subject to F0 + sum y_l F_l >= 0.

    probe, when given, is called at most once, the first time the iterates
    show the divergence signature, and returns True when it certifies
    unboundedness; otherwise the solve goes on unchanged.  witness, when
    given, is called on every iterate y, and the solve stops at the first
    one for which it returns True.
    """
    d = F0.shape[0]
    m = len(Fs)
    if m == 0:
        lam = float(np.linalg.eigvalsh(_sym(F0))[0])
        status = SdpStatus.OPTIMAL if lam >= -opts.feas_tol else SdpStatus.INFEASIBLE
        return _CoreResult(
            status, np.zeros(0), np.zeros((d, d)), 0.0, 0.0, 0.0, 0.0, 0, [], "no_free_coordinates"
        )

    Fflat = Fs.reshape(m, d * d)
    F_ld = _SparseLD(Fflat)
    gram = Fflat @ Fflat.T
    gram_cho = np.linalg.cholesky(gram + 1e-14 * np.trace(gram) / m * np.eye(m))

    def project_dual(Z):
        """Nearest matrix to Z satisfying the dual constraints exactly."""
        resid = -b - Fflat @ Z.reshape(d * d)
        u = np.linalg.solve(gram_cho, resid)
        nu = np.linalg.solve(gram_cho.T, u)
        return _sym(Z + (nu @ Fflat).reshape(d, d))

    eta = max(
        1.0,
        float(np.linalg.norm(F0)),
        float(max(np.linalg.norm(Fs[l]) for l in range(m))),
        float(np.max(np.abs(b))),
    )
    y = np.zeros(m)
    S = eta * np.eye(d)
    Z = eta * np.eye(d)

    iterates: list[IterateRecord] = []
    best = None
    best_merit = math.inf
    status = SdpStatus.NUMERICAL_TROUBLE
    stop = "max_iter"
    probed = False
    it = 0
    while it < opts.max_iter:
        it += 1
        My = F0 + (y @ Fflat).reshape(d, d)
        Rp = _sym(My - S)
        rd = -b - Fflat @ Z.reshape(d * d)
        gap = float(np.vdot(S, Z))
        pobj = float(b @ y)
        dobj = float(np.vdot(F0, Z)) - float(y @ rd) - float(np.vdot(Rp, Z))
        pr = float(np.max(np.abs(Rp)))
        dr = float(np.max(np.abs(rd)))
        iterates.append(IterateRecord(it, pobj, dobj, gap, pr, dr))

        if not np.isfinite(pobj) or not np.isfinite(gap):
            stop = "non_finite"
            break
        merit = max(pr, dr, abs(gap) / max(1.0, abs(pobj)))
        if merit < best_merit:
            best_merit = merit
            best = (y.copy(), Z.copy(), pobj, gap, pr, dr)

        gap_ok = gap <= opts.gap_tol * max(1.0, abs(pobj))
        feas_ok = pr <= opts.feas_tol and dr <= opts.feas_tol
        if gap_ok and feas_ok:
            status = SdpStatus.OPTIMAL
            stop = "converged"
            best = (y.copy(), Z.copy(), pobj, gap, pr, dr)
            break
        if gap_ok and pr <= opts.feas_tol:
            # the raw dual residual lags the gap: snap the dual iterate onto
            # the feasibility subspace.  Blending the PSD raw iterate with the
            # exactly-feasible projection trades dual residual against
            # eigenvalue and gap contamination linearly, so scan a few blend
            # weights for one meeting every tolerance at once.
            Zp = project_dual(Z)
            t_lo = 0.0 if dr <= opts.feas_tol else 1.0 - opts.feas_tol / dr
            candidates = sorted(
                {1.0, 0.5, 0.25, min(1.0, 1.5 * t_lo + 1e-3), min(1.0, 1.02 * t_lo + 1e-4)}
            )
            for frac in candidates:
                if frac < t_lo:
                    continue
                Zb = (1.0 - frac) * Z + frac * Zp
                dr_b = float(np.max(np.abs(-b - Fflat @ Zb.reshape(d * d))))
                if dr_b > opts.feas_tol:
                    continue
                gap_b = float(np.vdot(S, Zb))
                if abs(gap_b) > opts.gap_tol * max(1.0, abs(pobj)):
                    continue
                if float(np.linalg.eigvalsh(Zb)[0]) < -opts.feas_tol:
                    continue
                status = SdpStatus.OPTIMAL
                best = (y.copy(), Zb, pobj, gap_b, pr, dr_b)
                break
            if status == SdpStatus.OPTIMAL:
                stop = "dual_projection"
                break
        if pobj > opts.unbounded_cap and _feasibility_margin(F0, Fs, y) >= -1e-6 * eta:
            status = SdpStatus.UNBOUNDED
            stop = "objective_cap"
            best = (y.copy(), Z.copy(), pobj, gap, pr, dr)
            break
        if witness is not None and witness(y):
            stop = "witness"
            best = (y.copy(), Z.copy(), pobj, gap, pr, dr)
            break
        if probe is not None and it > _PROBE_EVERY and it % _PROBE_EVERY == 0:
            # divergence: primal feasible, neither the gap nor the dual
            # residual contracting, and the objective risen past the bound
            # the earlier dual iterate gave (which a nearly dual-feasible
            # iterate of a bounded problem does not allow)
            past = iterates[-1 - _PROBE_EVERY]
            if (
                pr <= opts.feas_tol
                and not gap_ok
                and gap > _PROBE_SHRINK * past.gap
                and dr > _PROBE_SHRINK * past.dual_residual
                and pobj > past.dual_obj
            ):
                probed = True
                if probe():
                    status = SdpStatus.UNBOUNDED
                    stop = "probe"
                    best = (y.copy(), Z.copy(), pobj, gap, pr, dr)
                    break
                # the probe's test does not depend on the iterate: it is
                # not repeated
                probe = None

        stop = "factorization"  # every break until the step is taken
        try:
            Ls = np.linalg.cholesky(S)
            Lz = np.linalg.cholesky(Z)
        except np.linalg.LinAlgError:
            break
        U, sv, Vt = np.linalg.svd(Lz.T @ Ls)
        if sv[-1] <= 0:
            break
        T = Ls @ Vt.T / np.sqrt(sv)
        try:
            Tinv = np.linalg.inv(T)
            # inverse Cholesky factors: Zinv, and the step lengths in S and Z
            Ls_inv = np.linalg.inv(Ls)
            Lz_inv = np.linalg.inv(Lz)
        except np.linalg.LinAlgError:
            break
        Winv = Tinv.T @ Tinv
        Winv_ld = Winv.astype(_LD)
        Zinv = (Lz_inv.T @ Lz_inv).astype(_LD)
        Rp_ld = Rp.astype(_LD)
        rd_ld = rd.astype(_LD)

        G = Winv @ Fs @ Winv
        H = Fflat @ G.reshape(m, d * d).T
        H = (H + H.T) / 2
        reg = _SCHUR_REG * max(1.0, np.trace(H) / m)
        cho = None
        for bump in range(6):
            shift = reg * 10.0**bump
            try:
                cho = np.linalg.cholesky(H + shift * np.eye(m))
                break
            except np.linalg.LinAlgError:
                continue
        if cho is None:
            break

        def directions(Rc_ld):
            rhs_mat = Winv_ld @ (Rc_ld - Rp_ld) @ Winv_ld
            rhs = F_ld.matvec(rhs_mat.reshape(d * d)) - rd_ld
            dy = np.linalg.solve(cho.T, np.linalg.solve(cho, rhs.astype(np.float64)))
            dS = F_ld.rmatvec(dy).reshape(d, d) + Rp_ld
            dZ = Winv_ld @ (Rc_ld - dS) @ Winv_ld
            dS = (dS + dS.T) / 2
            dZ = (dZ + dZ.T) / 2
            return dy, dS.astype(np.float64), dZ.astype(np.float64)

        S_ld = S.astype(_LD)
        mu = max(gap / d, 1e-300)
        try:
            if gap_ok and not feas_ok:
                # complementarity converged ahead of feasibility: hold the gap
                # with a centering step while the residuals contract
                dy, dS, dZ = directions(_LD(mu) * Zinv - S_ld)
            else:
                # predictor step fixes the centering weight for the real step
                dy_a, dS_a, dZ_a = directions(-S_ld)
                ap = min(1.0, _STEP_FRAC * _max_step(Ls_inv, dS_a))
                ad = min(1.0, _STEP_FRAC * _max_step(Lz_inv, dZ_a))
                mu_aff = float(np.vdot(S + ap * dS_a, Z + ad * dZ_a)) / d
                sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))
                dy, dS, dZ = directions(_LD(sigma * mu) * Zinv - S_ld)
            ap = min(1.0, _STEP_FRAC * _max_step(Ls_inv, dS))
            ad = min(1.0, _STEP_FRAC * _max_step(Lz_inv, dZ))
        except np.linalg.LinAlgError:
            break
        stop = "max_iter"

        y = y + ap * dy
        S = _sym(S + ap * dS)
        Z = _sym(Z + ad * dZ)

    if best is None:
        best = (y.copy(), Z.copy(), float(b @ y), math.inf, math.inf, math.inf)
    yb, Zb, pobj, gap, pr, dr = best
    return _CoreResult(status, yb, Zb, pobj, gap, pr, dr, it, iterates, stop, probed)


def _augment_phase1(F0, Fs, cap: float):
    """Matrices of: maximize t subject to M(y) - t*I >= 0 and t <= cap."""
    d = F0.shape[0]
    m = len(Fs)
    F0a = np.zeros((d + 1, d + 1))
    F0a[:d, :d] = F0
    F0a[d, d] = cap
    Fsa = np.zeros((m + 1, d + 1, d + 1))
    for l in range(m):
        Fsa[l, :d, :d] = Fs[l]
    Fsa[m, :d, :d] = -np.eye(d)
    Fsa[m, d, d] = -1.0
    ba = np.zeros(m + 1)
    ba[m] = 1.0
    return F0a, Fsa, ba


def _augment_recession(Fs, b):
    """Matrices of: maximize b.d subject to sum d_l F_l >= 0 and b.d <= 1."""
    d = Fs.shape[1]
    m = len(Fs)
    F0a = np.zeros((d + 1, d + 1))
    F0a[d, d] = 1.0
    Fsa = np.zeros((m, d + 1, d + 1))
    for l in range(m):
        Fsa[l, :d, :d] = Fs[l]
        Fsa[l, d, d] = -b[l]
    return F0a, Fsa, b.copy()


def _cap_slice_feasible(
    comp: "_Compiled", opts: SdpOptions, role: str, phases: list[PhaseRecord]
) -> bool:
    """True when a feasible point with objective 2 * unbounded_cap exists.

    Certifies unboundedness in the weak cases where the objective grows along
    a curved feasible path and no improving ray exists.  The slice problem is
    rescaled using the graded structure of the moment template (coordinate l
    scales like C^deg(l), rows are rescaled by a diagonal congruence), which
    keeps the data O(1) even though the witness lives at coordinate scale
    C^deg; without degree metadata the raw slice is attempted.  The slice's
    phase 1 stops at its first verified witness; its record, under role, is
    appended to phases.
    """
    b = comp.b
    nz = [l for l in range(len(b)) if b[l] != 0.0]
    if not nz:
        return False
    d = comp.F0.shape[0]
    target = 2.0 * opts.unbounded_cap
    if comp.free_degrees is not None and comp.row_degrees is not None:
        degs = comp.free_degrees
        rowdegs = comp.row_degrees
    else:
        degs = [1] * len(b)
        rowdegs = [0] * d
    dmin = min(max(degs[l], 1) for l in nz)
    denom = sum(abs(b[l]) for l in nz if max(degs[l], 1) == dmin)
    C = max(2.0, (target / denom) ** (1.0 / dmin))
    D = np.diag([C ** (-rd) for rd in rowdegs])
    F0s = D @ comp.F0 @ D
    Fss = np.array([(C ** max(degs[l], 1)) * (D @ comp.Fs[l] @ D) for l in range(len(b))])
    bs = np.array([b[l] * C ** max(degs[l], 1) for l in range(len(b))])
    lstar = max(nz, key=lambda l: abs(bs[l]))
    # substitute u_lstar = (target - sum_{l != lstar} bs_l u_l) / bs_lstar
    F0r = F0s + (target / bs[lstar]) * Fss[lstar]
    rest = [l for l in range(len(b)) if l != lstar]
    Fsr = np.array([Fss[l] - (bs[l] / bs[lstar]) * Fss[lstar] for l in rest]).reshape(
        len(rest), d, d
    )
    scale = max(1.0, float(np.max(np.abs(F0r))))
    t, yfree, res = _phase1_core(F0r, Fsr, opts, stop_margin=_SLICE_MARGIN * scale)
    # a strictly feasible iterate certifies the slice regardless of whether
    # the max-t problem itself converged (its optimum may not be attained);
    # the margin is verified directly, not trusted from the solver
    lam = _feasibility_margin(F0r, Fsr, yfree)
    phases.append(PhaseRecord(role, res.iterations, res.stop, lam / scale))
    return lam >= _SLICE_MARGIN * scale


def _phase1_core(F0, Fs, opts: SdpOptions, stop_margin: float | None = None):
    """Best t of the max-t problem, the matching y, and the core result.

    With stop_margin, the solve stops at the first iterate whose y has a
    verified smallest eigenvalue of at least stop_margin.
    """
    cap = 10.0 * max(1.0, float(np.max(np.abs(F0))))
    F0a, Fsa, ba = _augment_phase1(F0, Fs, cap)
    witness = None
    if stop_margin is not None:
        witness = lambda ya: _feasibility_margin(F0, Fs, ya[:-1]) >= stop_margin
    res = _solve_core(F0a, Fsa, ba, opts, witness=witness)
    return res.pobj, res.y[:-1], res


def _classify_failure(
    comp: _Compiled, opts: SdpOptions, main: _CoreResult, phases: list[PhaseRecord]
) -> SdpStatus:
    """Verdict for a main solve that ended without one, cheapest test first."""
    if _feasibility_margin(comp.F0, comp.Fs, main.y) < -opts.feas_tol:
        t, yfeas, p1 = _phase1_core(comp.F0, comp.Fs, opts, stop_margin=-opts.feas_tol)
        phases.append(PhaseRecord("phase1", p1.iterations, p1.stop, t))
        if p1.status == SdpStatus.OPTIMAL and t < -opts.feas_tol:
            return SdpStatus.INFEASIBLE
        primal_feasible = (
            p1.status == SdpStatus.OPTIMAL and t >= -opts.feas_tol
        ) or _feasibility_margin(comp.F0, comp.Fs, yfeas) >= -opts.feas_tol
        if not primal_feasible:
            return SdpStatus.NUMERICAL_TROUBLE
    # a probe that declined already ran the cap-slice test, which does not
    # depend on the main iterate
    if not main.probed and _cap_slice_feasible(comp, opts, "cap_slice", phases):
        return SdpStatus.UNBOUNDED
    F0r, Fsr, br = _augment_recession(comp.Fs, comp.b)
    rec = _solve_core(F0r, Fsr, br, opts)
    phases.append(PhaseRecord("recession", rec.iterations, rec.stop, rec.pobj))
    if rec.status == SdpStatus.OPTIMAL and rec.pobj > 0.5:
        return SdpStatus.UNBOUNDED
    return SdpStatus.NUMERICAL_TROUBLE


def solve(problem: SdpProblem, opts: SdpOptions | None = None) -> SdpSolution:
    """Optimize the problem; see SdpStatus for the possible outcomes.

    On OPTIMAL the reported value is the sense-corrected objective including
    the contribution of pinned coordinates, and dual_matrix is the PSD dual
    certificate paired with M(y).
    """
    opts = opts or SdpOptions()
    comp = _Compiled(problem)
    probes: list[PhaseRecord] = []
    res = _solve_core(
        comp.F0, comp.Fs, comp.b, opts,
        probe=lambda: _cap_slice_feasible(comp, opts, "probe", probes),
    )
    phases = [PhaseRecord("main", res.iterations, res.stop)] + probes
    status = res.status
    if status == SdpStatus.NUMERICAL_TROUBLE and len(comp.Fs):
        status = _classify_failure(comp, opts, res, phases)
    value = comp.sign * res.pobj + comp.offset
    if status == SdpStatus.UNBOUNDED:
        value = math.inf if comp.sign > 0 else -math.inf
    y = comp.assemble_y(res.y) if res.y is not None else None
    return SdpSolution(
        status=status,
        y=y,
        value=value,
        dual_matrix=res.Z,
        gap=res.gap,
        iterations=res.iterations,
        primal_residual=res.pr,
        dual_residual=res.dr,
        iterates=res.iterates,
        phases=phases,
    )


def phase1_interior(problem: SdpProblem, opts: SdpOptions | None = None) -> Phase1Result:
    """Strictly feasible point of {M(y) >= 0, pins} or an infeasibility verdict.

    When the problem carries an interior hint consistent with the pins and the
    hint is strictly feasible, it is returned directly without running an SDP;
    otherwise the max-t problem decides.  The reported margin is the best
    achievable smallest eigenvalue (capped for hints and by the phase-1 cap).
    """
    opts = opts or SdpOptions()
    comp = _Compiled(problem)
    hint = problem.interior_hint
    if hint is not None and len(hint) == comp.nvars_y:
        ok = all(
            abs(float(hint[l]) - float(v)) <= 1e-9 for l, v in comp.fixed.items()
        )
        if ok:
            yfree = np.array([float(hint[l]) for l in comp.free])
            lam = _feasibility_margin(comp.F0, comp.Fs, yfree)
            if lam > 0.0:
                return Phase1Result(True, lam, comp.assemble_y(yfree), None)
    t, yfree, res = _phase1_core(comp.F0, comp.Fs, opts)
    sol = SdpSolution(
        status=res.status,
        y=comp.assemble_y(yfree),
        value=t,
        dual_matrix=res.Z,
        gap=res.gap,
        iterations=res.iterations,
        primal_residual=res.pr,
        dual_residual=res.dr,
        iterates=res.iterates,
        phases=[PhaseRecord("phase1", res.iterations, res.stop, t)],
    )
    if res.status != SdpStatus.OPTIMAL:
        # fall back to the verified margin of the best iterate
        lam = _feasibility_margin(comp.F0, comp.Fs, yfree)
        feasible = lam >= -opts.feas_tol
        return Phase1Result(feasible, lam, sol.y if feasible else None, sol)
    feasible = t >= -opts.feas_tol
    return Phase1Result(feasible, t, sol.y if feasible else None, sol)
