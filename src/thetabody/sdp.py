"""Dense primal-dual interior-point solver for linear matrix inequalities.

Problems have the shape: optimize a linear functional of y subject to
M(y) >= 0, where M is an affine symmetric-matrix map given by a moment
template, with a set of pinned coordinates (always containing y_0 = 1).
Pinned coordinates are substituted into the map before solving.

The algorithm is infeasible-start path following with Nesterov-Todd scaling;
a Mehrotra-style affine predictor step fixes the adaptive centering weight of
the actual step.  The Schur complement H_kl = <F_k, W^-1 F_l W^-1> is formed
densely in float64 with batched BLAS products and factored by LAPACK Cholesky
with a small diagonal regularization.  Its condition number grows like the
square of the centrality parameter's inverse, and a direction computed wholly
in float64 leaves the dual residual stalled above the tolerance (near 2e-8 on
the level-1 7-cycle stable-set bound, which ends NumericalTrouble).  So the
right-hand sides and the primal and dual directions are accumulated in
extended precision (numpy longdouble), and each Schur solve gets exactly one
sweep of mixed-precision iterative refinement: the residual of the
regularized system is evaluated in extended precision by applying the
operator to the float64 solution without forming H, O(d^3 + m d^2) against
O(m d^3 + m^2 d^2) for forming it, and the correction reuses the factor.
At convergence checks the dual iterate is additionally projected onto the
exact dual-feasibility subspace, which is a fixed well-conditioned system.
Everything is deterministic: identical inputs produce identical iterates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .moment import MomentTemplate, MomentVector

_LD = np.longdouble


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
    step_frac: float = 0.98
    schur_reg: float = 1e-12


@dataclass(frozen=True)
class IterateRecord:
    iteration: int
    primal_obj: float
    dual_obj: float
    gap: float
    primal_residual: float
    dual_residual: float


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
    def __init__(self, status, y, Z, pobj, gap, pr, dr, iterations, iterates):
        self.status = status
        self.y = y
        self.Z = Z
        self.pobj = pobj
        self.gap = gap
        self.pr = pr
        self.dr = dr
        self.iterations = iterations
        self.iterates = iterates


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _max_step(X: np.ndarray, dX: np.ndarray) -> float:
    """Largest a with X + a*dX still positive definite (inf if all a work)."""
    L = np.linalg.cholesky(X)
    Linv = np.linalg.inv(L)
    lam = np.linalg.eigvalsh(_sym(Linv @ dX @ Linv.T))[0]
    if lam >= 0.0:
        return math.inf
    return -1.0 / lam


def _feasibility_margin(F0, Fs, yfree) -> float:
    M = F0 + np.tensordot(yfree, Fs, axes=1) if len(yfree) else F0.copy()
    return float(np.linalg.eigvalsh(_sym(M))[0])


def _solve_core(F0, Fs, b, opts: SdpOptions) -> _CoreResult:
    d = F0.shape[0]
    m = len(Fs)
    if m == 0:
        lam = float(np.linalg.eigvalsh(_sym(F0))[0])
        status = SdpStatus.OPTIMAL if lam >= -opts.feas_tol else SdpStatus.INFEASIBLE
        return _CoreResult(status, np.zeros(0), np.zeros((d, d)), 0.0, 0.0, 0.0, 0.0, 0, [])

    Fflat = Fs.reshape(m, d * d)
    Fflat_ld = Fflat.astype(_LD)
    gram = Fflat @ Fflat.T
    gram_cho = np.linalg.cholesky(gram + 1e-14 * np.trace(gram) / m * np.eye(m))

    def project_dual(Z):
        """Nearest matrix to Z satisfying the dual constraints exactly."""
        resid = -b - Fflat @ Z.reshape(d * d)
        u = np.linalg.solve(gram_cho, resid)
        nu = np.linalg.solve(gram_cho.T, u)
        return _sym(Z + np.tensordot(nu, Fs, axes=1))

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
    it = 0
    while it < opts.max_iter:
        it += 1
        My = F0 + np.tensordot(y, Fs, axes=1)
        Rp = _sym(My - S)
        rd = -b - Fflat @ Z.reshape(d * d)
        gap = float(np.tensordot(S, Z))
        pobj = float(b @ y)
        dobj = float(np.tensordot(F0, Z)) - float(y @ rd) - float(np.tensordot(Rp, Z))
        pr = float(np.max(np.abs(Rp)))
        dr = float(np.max(np.abs(rd)))
        iterates.append(IterateRecord(it, pobj, dobj, gap, pr, dr))

        if not np.isfinite(pobj) or not np.isfinite(gap):
            break
        merit = max(pr, dr, abs(gap) / max(1.0, abs(pobj)))
        if merit < best_merit:
            best_merit = merit
            best = (y.copy(), Z.copy(), pobj, gap, pr, dr)

        gap_ok = gap <= opts.gap_tol * max(1.0, abs(pobj))
        feas_ok = pr <= opts.feas_tol and dr <= opts.feas_tol
        if gap_ok and feas_ok:
            status = SdpStatus.OPTIMAL
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
                gap_b = float(np.tensordot(S, Zb))
                if abs(gap_b) > opts.gap_tol * max(1.0, abs(pobj)):
                    continue
                if float(np.linalg.eigvalsh(Zb)[0]) < -opts.feas_tol:
                    continue
                status = SdpStatus.OPTIMAL
                best = (y.copy(), Zb, pobj, gap_b, pr, dr_b)
                break
            if status == SdpStatus.OPTIMAL:
                break
        if pobj > opts.unbounded_cap and _feasibility_margin(F0, Fs, y) >= -1e-6 * eta:
            status = SdpStatus.UNBOUNDED
            best = (y.copy(), Z.copy(), pobj, gap, pr, dr)
            break

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
        except np.linalg.LinAlgError:
            break
        Winv = Tinv.T @ Tinv
        Winv_ld = Winv.astype(_LD)
        Lz_inv = np.linalg.inv(Lz)
        Zinv = (Lz_inv.T @ Lz_inv).astype(_LD)
        Rp_ld = Rp.astype(_LD)
        rd_ld = rd.astype(_LD)

        G = Winv @ Fs @ Winv
        H = Fflat @ G.reshape(m, d * d).T
        H = (H + H.T) / 2
        reg = opts.schur_reg * max(1.0, np.trace(H) / m)
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

        def schur_solve(r):
            return np.linalg.solve(cho.T, np.linalg.solve(cho, r))

        def directions(Rc_ld):
            rhs_mat = Winv_ld @ (Rc_ld - Rp_ld) @ Winv_ld
            rhs = Fflat_ld @ rhs_mat.reshape(d * d) - rd_ld
            dy = schur_solve(rhs.astype(np.float64)).astype(_LD)
            # one refinement sweep against the shifted Schur operator,
            # applied in extended precision without forming it
            dM = Winv_ld @ (dy @ Fflat_ld).reshape(d, d) @ Winv_ld
            resid = rhs - Fflat_ld @ dM.reshape(d * d) - _LD(shift) * dy
            dy = dy + schur_solve(resid.astype(np.float64))
            dS = (dy @ Fflat_ld).reshape(d, d) + Rp_ld
            dZ = Winv_ld @ (Rc_ld - dS) @ Winv_ld
            dS = (dS + dS.T) / 2
            dZ = (dZ + dZ.T) / 2
            return (
                dy.astype(np.float64),
                dS.astype(np.float64),
                dZ.astype(np.float64),
            )

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
                ap = min(1.0, opts.step_frac * _max_step(S, dS_a))
                ad = min(1.0, opts.step_frac * _max_step(Z, dZ_a))
                mu_aff = float(np.tensordot(S + ap * dS_a, Z + ad * dZ_a)) / d
                sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))
                dy, dS, dZ = directions(_LD(sigma * mu) * Zinv - S_ld)
            ap = min(1.0, opts.step_frac * _max_step(S, dS))
            ad = min(1.0, opts.step_frac * _max_step(Z, dZ))
        except np.linalg.LinAlgError:
            break

        y = y + ap * dy
        S = _sym(S + ap * dS)
        Z = _sym(Z + ad * dZ)

    if best is None:
        best = (y.copy(), Z.copy(), float(b @ y), math.inf, math.inf, math.inf)
    yb, Zb, pobj, gap, pr, dr = best
    return _CoreResult(status, yb, Zb, pobj, gap, pr, dr, it, iterates)


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


def _cap_slice_feasible(comp: "_Compiled", opts: SdpOptions) -> bool:
    """True when a feasible point with objective 2 * unbounded_cap exists.

    Certifies unboundedness in the weak cases where the objective grows along
    a curved feasible path and no improving ray exists.  The slice problem is
    rescaled using the graded structure of the moment template (coordinate l
    scales like C^deg(l), rows are rescaled by a diagonal congruence), which
    keeps the data O(1) even though the witness lives at coordinate scale
    C^deg; without degree metadata the raw slice is attempted.
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
    t, yfree, res = _phase1_core(F0r, Fsr, opts)
    scale = max(1.0, float(np.max(np.abs(F0r))))
    # a strictly feasible best iterate certifies the slice regardless of
    # whether the max-t problem itself converged (its optimum may not be
    # attained); the margin is verified directly, not trusted from the solver
    return _feasibility_margin(F0r, Fsr, yfree) >= 1e-7 * scale


def _phase1_core(F0, Fs, opts: SdpOptions):
    """Best t of the max-t problem, the matching y, and the core result."""
    cap = 10.0 * max(1.0, float(np.max(np.abs(F0))))
    F0a, Fsa, ba = _augment_phase1(F0, Fs, cap)
    res = _solve_core(F0a, Fsa, ba, opts)
    return res.pobj, res.y[:-1], res


def _classify_failure(comp: _Compiled, opts: SdpOptions) -> SdpStatus:
    t, yfeas, p1 = _phase1_core(comp.F0, comp.Fs, opts)
    if p1.status == SdpStatus.OPTIMAL and t < -opts.feas_tol:
        return SdpStatus.INFEASIBLE
    primal_feasible = (
        p1.status == SdpStatus.OPTIMAL and t >= -opts.feas_tol
    ) or _feasibility_margin(comp.F0, comp.Fs, yfeas) >= -opts.feas_tol
    if primal_feasible:
        F0r, Fsr, br = _augment_recession(comp.Fs, comp.b)
        rec = _solve_core(F0r, Fsr, br, opts)
        if rec.status == SdpStatus.OPTIMAL and rec.pobj > 0.5:
            return SdpStatus.UNBOUNDED
        if _cap_slice_feasible(comp, opts):
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
    res = _solve_core(comp.F0, comp.Fs, comp.b, opts)
    status = res.status
    if status == SdpStatus.NUMERICAL_TROUBLE and len(comp.Fs):
        status = _classify_failure(comp, opts)
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
    )
    if res.status != SdpStatus.OPTIMAL:
        # fall back to the verified margin of the best iterate
        lam = _feasibility_margin(comp.F0, comp.Fs, yfree)
        feasible = lam >= -opts.feas_tol
        return Phase1Result(feasible, lam, sol.y if feasible else None, sol)
    feasible = t >= -opts.feas_tol
    return Phase1Result(feasible, t, sol.y if feasible else None, sol)
