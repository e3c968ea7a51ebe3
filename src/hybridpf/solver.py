"""Unified Newton-Raphson solution of the hybrid AC/DC power flow.

The Jacobian is assembled analytically and sparse, with rows in the residual
block order and columns in state order (E' | E'' | E_dc).  Because residuals
are stored in mismatch form r = y* - F(x), the matrix built here is
J = dF/dx = -dr/dx and one iteration solves

    J dx = r,      x <- x + dx

which is the standard update x <- x + J^{-1} (y* - F(x)).  The AC nodal and DC
rows take their terms from the entries of the admittance matrices.  Each
converter row is a function of 12 quantities q linear in x (PfModel.conv_map =
dq/dx), so the converter rows enter J by the chain rule as (dF/dq) @ conv_map.

J's CSC pattern, the slot of every term in its data array and the node and
admittance value each term reads are compiled once per structure
(PfStructure.jac, built by compile_case on a structure-cache miss).
assemble_jacobian computes the term values only and writes them through those
slot maps: the AC cross terms E_r conj(Y_rc), the own-current and PV magnitude
diagonals, the E_dc setpoint and DC power rows, and the converter terms
dF/dq[k] * conv_map[k, col], which add up where they share an entry.  A solve
builds one CSC matrix and overwrites its data at each iteration
(assemble_jacobian's ``out``).  The linear system is solved by SuperLU with
COLAMD ordering, partial pivoting and a panel size of 1 (LU_PANEL_SIZE); no
explicit inverse is formed.  From flat_start (no ``init``), J at iteration 1
depends only on the structure, the slack phasors and the DC voltage setpoints,
so its factor is kept per structure (PfStructure.flat_factor, one entry) under
a key of the bytes of the slack entries of ``slack_voltage`` and of ``edc_set``
(48 bytes per slack bus and 8 per DC setpoint row); a solve whose key matches
takes its first step with that factor and neither assembles nor factors J0,
with the same bits.  Convergence is declared on the infinity norm of the
mismatch vector.  The solve has one Jacobian, the analytic one; its check
against central finite differences of the residuals (verify.fd_jacobian) is a
test, not a mode.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from .errors import SolverError
from .losses import LossBreakdown
from .network import ConverterMode
from .residuals import (
    CURRENT_EPS,
    OperatingPoint,
    Q_E0,
    Q_EK,
    Q_ENEG,
    Q_EPOS,
    Q_INEG,
    Q_IPOS,
    StateVector,
    as_model,
    assemble_residuals,
    feasible_dc_root,
    flat_start,
    operating_point,
)
from .sequence import FORTESCUE

logger = logging.getLogger(__name__)

# SuperLU's panel size (its default is 10 columns).  J is circuit-like, with LU
# fill about 1.5 and tiny supernodes, so wider panels only add work-array
# traffic (Davis & Palamadai Natarajan, "KLU", ACM TOMS 2010).
LU_PANEL_SIZE = 1


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the NR loop: the mismatch tolerance, the iteration cap, and
    the start (``init=None`` means flat start; otherwise a StateVector is used
    as given).
    """

    tolerance: float = 1e-8
    max_iterations: int = 50
    init: StateVector | None = None

    def __post_init__(self):
        if not self.tolerance > 0:     # NaN included
            raise SolverError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolveTimings:
    """Cumulative wall-clock seconds per NR stage (the iterative loop only)."""

    residual_s: float = 0.0
    jacobian_s: float = 0.0
    linear_s: float = 0.0
    total_s: float = 0.0


@dataclass(eq=False)
class Solution:
    """The final state of a solve and how it got there.  ``op`` is the operating
    point at ``x_final`` that the solve's last residual evaluation built.  Every
    result is derived from it on first access and kept: the voltages, slack
    injections and converter results directly, and the branch flows and sequence
    voltages from its voltages and the branch data."""

    converged: bool
    x_final: StateVector
    iterations: int
    residual_history: tuple
    trace: tuple
    timings: SolveTimings
    final_mismatch: float
    op: OperatingPoint
    diagnostics: str | None = None

    @property
    def n_states(self) -> int:
        return self.x_final.model.n_x

    @cached_property
    def ac_voltages(self) -> dict:          # bus id -> (3,) complex
        return dict(zip(self.x_final.model.ac_bus_ids, self.op.e_full.reshape(-1, 3).copy()))

    @cached_property
    def dc_voltages(self) -> dict:          # bus id -> float
        return dict(zip(self.x_final.model.dc_bus_ids, self.x_final.e_dc.tolist()))

    @cached_property
    def slack_injections(self) -> dict:     # bus id -> (3,) complex
        model, s_full = self.x_final.model, self.op.s_full
        return {model.ac_bus_ids[i]: s_full[3 * i : 3 * i + 3].copy()
                for i in np.flatnonzero(model.col_of_full[::3] < 0).tolist()}

    @cached_property
    def losses(self) -> dict:               # converter id -> LossBreakdown
        return {conv_id: LossBreakdown(s_loss=cop.s_loss_pos + cop.p_cond_neg,
                                       p_filter=cop.p_filter_total, e_c=cop.e_c, i_sw=cop.i_sw)
                for conv_id, cop in zip(self.x_final.model.case.converters.id, self.op.conv)}

    @cached_property
    def converter_power(self) -> dict:      # converter id -> dict(p_ac, q_ac, p_dc)
        model = self.x_final.model
        s_ac = self.op.s_full[model.conv_ac].sum(axis=1).tolist()
        return {conv_id: {"p_ac": s.real, "q_ac": s.imag, "p_dc": cop.p_k}
                for conv_id, s, cop in zip(model.case.converters.id, s_ac, self.op.conv)}

    @cached_property
    def ac_branch_flows(self) -> tuple:     # (s_from, s_to) of ac_flows, in case branch order
        return ac_flows(self.x_final.model, self.op.e_full)

    @cached_property
    def dc_branch_flows(self) -> tuple:     # (p_from, p_to) of dc_flows, in case branch order
        return dc_flows(self.x_final.model, self.x_final.e_dc)

    @cached_property
    def sequence_voltages(self) -> dict:    # bus id -> (3,) complex: zero, positive, negative
        model = self.x_final.model
        return dict(zip(model.ac_bus_ids, sequence_sets(model, self.op.e_full)))


def ac_flows(model, e_full) -> tuple:
    """The (n, 3) sending-end and receiving-end powers of every AC branch at the
    (3N,) bus-phase voltages ``e_full``."""
    frm, to, ys, ysh2 = model.adm.ac_branches
    ef = e_full[3 * frm[:, None] + np.arange(3)]     # (n, 3) end voltages
    et = e_full[3 * to[:, None] + np.arange(3)]
    i_from = (ys @ (ef - et)[..., None] + ysh2 @ ef[..., None])[..., 0]
    i_to = (ys @ (et - ef)[..., None] + ysh2 @ et[..., None])[..., 0]
    return ef * np.conj(i_from), et * np.conj(i_to)


def dc_flows(model, e_dc) -> tuple:
    """The sending-end and receiving-end powers of every DC branch at the DC bus
    voltages ``e_dc``."""
    dc_frm, dc_to, r = model.adm.dc_branches
    e_i, e_j = e_dc[dc_frm], e_dc[dc_to]
    cur = (e_i - e_j) / r
    return e_i * cur, -e_j * cur


def sequence_sets(model, e_full) -> np.ndarray:
    """The zero, positive and negative sequence voltages of every AC bus, one
    row each, at the (3N,) bus-phase voltages ``e_full``."""
    return e_full.reshape(-1, 3) @ FORTESCUE.T


# dF/dq of the converter rows as 12-entry lists of Python floats (a converter
# has few rows, and numpy's per-call cost would exceed their arithmetic); here
# the unit gradients of the four sequence constraint kinds, in one list
_CONSTRAINTS = np.eye(12)[[Q_E0, Q_E0 + 1, Q_ENEG, Q_ENEG + 1]].ravel().tolist()


def _grad(at, *values) -> list:
    """A 12-entry gradient holding ``values`` from position ``at`` on, else zeros."""
    grad = [0.0] * 12
    grad[at : at + len(values)] = values
    return grad


def _power_grad(e, i, e_at, i_at):
    """Gradients of Re and Im of S = 3 E conj(I) over the 12 converter quantities."""
    re, im = [0.0] * 12, [0.0] * 12
    re[e_at : e_at + 2] = 3.0 * i.real, 3.0 * i.imag
    re[i_at : i_at + 2] = 3.0 * e.real, 3.0 * e.imag
    im[e_at : e_at + 2] = -3.0 * i.imag, 3.0 * i.real
    im[i_at : i_at + 2] = 3.0 * e.imag, -3.0 * e.real
    return re, im


def _mag_grad(i, at, scale):
    """``scale`` times the gradient of |I| over the 12 converter quantities;
    zero below CURRENT_EPS."""
    s = abs(i)
    return _grad(at, i.real / s * scale, i.imag / s * scale) if s >= CURRENT_EPS else [0.0] * 12


def _converter_grads(model, op) -> np.ndarray:
    """dF/dq over the 12 quantities q of a converter of each of its 10 row kinds,
    in CONV_ROW_DEPS order, converter after converter and flattened: kind j of
    converter c is row g = 10 c + j, whose entry k the pattern reads at 12 g + k.
    A kind a converter has no row of is zero or unit and never read."""
    out = []
    for mode, wn, params, kappa, rho, cop in zip(model.conv_mode, model.conv_neg, model.conv_loss,
                                                 model.conv_kappa, model.conv_rho, op.conv):
        p_pos, q_pos = _power_grad(cop.e_pos, cop.i_pos, Q_EPOS, Q_IPOS)
        # conduction + switching and filter losses of the positive sequence
        s_pos = abs(cop.i_pos)
        loss_pos = _mag_grad(cop.i_pos, Q_IPOS, params.r_eq_slope(s_pos) * s_pos**2
                             + 2.0 * cop.r_now * s_pos + kappa * cop.e_k)
        loss_pos[Q_EK] += kappa * s_pos
        filt_pos = _mag_grad(cop.i_pos, Q_IPOS, 2.0 * rho * s_pos)
        p_k = _grad(Q_EK, cop.i_k, cop.e_k)     # P_k = E_k I_k over (E_k, I_k)
        if mode == ConverterMode.PAC_QAC:               # F = P+ - P+_loss
            p = [a - b for a, b in zip(p_pos, loss_pos)]
        else:  # the coupled balance F = P+ + P+_loss + P+_filter - P_k
            p = [a + b + c - d for a, b, c, d in zip(p_pos, loss_pos, filt_pos, p_k)]
        # F = P* + P_loss + P_filter - P_k, on the DC side of pac_* converters
        p_dc = [a + b - c for a, b, c in zip(loss_pos, filt_pos, p_k)]
        p_neg = q_neg = [0.0] * 12
        if wn:
            p_neg, q_neg = _power_grad(cop.e_neg, cop.i_neg, Q_ENEG, Q_INEG)
            s_neg = abs(cop.i_neg)
            loss_neg = _mag_grad(cop.i_neg, Q_INEG, params.r_eq_slope(s_neg) * s_neg**2
                                 + 2.0 * params.r_eq(s_neg) * s_neg)
            p_neg = [a - b for a, b in zip(p_neg, loss_neg)]
            filt_neg = _mag_grad(cop.i_neg, Q_INEG, 2.0 * rho * s_neg)
            p_dc = [a + (b + c) for a, b, c in zip(p_dc, loss_neg, filt_neg)]
        # F = Q+ - Q+_loss for q: the loss is Im{R |I|^2} = 0 for the real R_eq table
        for grad in (p, q_pos, _grad(Q_EPOS, 2.0 * cop.e_pos.real, 2.0 * cop.e_pos.imag),
                     p_neg, q_neg, _CONSTRAINTS, p_dc):
            out += grad
    return np.array(out, dtype=float)


def assemble_jacobian(case, x: StateVector, op=None, out=None) -> sp.csc_matrix:
    """Analytic Jacobian dF/dx (equal to minus the residual derivative).

    Row order matches assemble_residuals; column blocks are E', E'', E_dc.  The
    values are written through the slot maps of the model's compiled pattern
    (PfModel.jac), so every call returns the same CSC structure.  ``op`` is the
    operating point at x when the caller has it (ResidualVector.op).  ``out``,
    a matrix this function returned earlier for the same model, is overwritten
    and returned; without it the matrix is new, so one a caller keeps is never
    changed by a later call.
    """
    model = as_model(case)
    if op is None:
        op = operating_point(model, x)
    pat = model.jac
    if out is None:
        out = sp.csc_matrix((np.zeros(pat.indices.size), pat.indices, pat.indptr),
                            shape=(model.n_x, model.n_x))
    else:
        out.data.fill(0.0)
    data = out.data

    # AC P and Q rows: cross terms t = E_r conj(Y_rc) from the Y_ac entries, which
    # enter the Q rows turned by -j; then the own-current and PV magnitude terms.
    # Re goes to the E' column, Im to the E'' column.
    t = op.e_full[pat.ac_node] * pat.ac_y
    data[pat.ac_slot[0]] = t.real
    data[pat.ac_slot[1]] = t.imag
    own = np.concatenate([op.i_full[model.p_full], 1j * op.i_full[model.q_full],
                          2.0 * op.e_full[model.v_full]])
    data[pat.own_slot[0]] += own.real
    data[pat.own_slot[1]] += own.imag

    # DC voltage setpoint rows: unit diagonal in the own E_dc column
    data[pat.edc_slot] = 1.0

    # plain DC P rows: dP_j/dE_m = E_j Y_jm + delta_jm I_j
    data[pat.dc_slot] = x.e_dc[pat.dc_node] * pat.dc_y
    data[pat.dc_own_slot] += op.i_dc[model.pdc_node]

    # converter rows by the chain rule, dF/dx = dF/dq . dq/dx, over the 12
    # terminal quantities q of each converter (its rows of model.conv_map)
    np.add.at(data, pat.conv_slot, _converter_grads(model, op)[pat.conv_gk] * pat.conv_dq)
    return out


def nr_step(jacobian, mismatch, labels=None, iteration=None, keep=None) -> np.ndarray:
    """Solve J dx = dy by sparse LU factorization (no explicit inverse).
    ``keep``, when given, is called with the SuperLU factor once dx is finite."""
    J = jacobian if sp.issparse(jacobian) and jacobian.format == "csc" else sp.csc_matrix(jacobian)
    dy = np.asarray(mismatch, dtype=float)
    try:
        lu = sla.splu(J, panel_size=LU_PANEL_SIZE)
        dx = lu.solve(dy)
    except RuntimeError as exc:
        raise SolverError(
            f"singular Jacobian: {exc}", iteration=iteration,
            row_label=_worst_row_label(J, labels),
        ) from exc
    if not np.all(np.isfinite(dx)):
        raise SolverError(
            "linear solve produced non-finite values", iteration=iteration,
            row_label=_worst_row_label(J, labels),
        )
    if keep is not None:
        keep(lu)
    return dx


def _kept_flat_step(structure, key, r0):
    """J0^-1 r0 by the structure's kept flat-start factor when its key is ``key``,
    else None; None too for a step that is not finite, which nr_step then
    reports with a row label."""
    kept = structure.flat_factor
    if kept is None or kept[0] != key:
        return None
    dx = kept[1].solve(r0)
    return dx if np.isfinite(dx).all() else None


def _worst_row_label(J, labels):
    if labels is None or J.shape[0] == 0:
        return None
    row_max = np.abs(J).max(axis=1).toarray().ravel()
    return str(labels[int(np.argmin(row_max))])


def _check_finite(res, iteration: int) -> None:
    """SolverError naming the first row whose residual is NaN or infinite; the
    rows are scanned only when the residual's norm is not finite."""
    if not math.isfinite(res.max_abs()):
        label = str(res.labels[int(np.flatnonzero(~np.isfinite(res.values))[0])])
        raise SolverError(f"residual is not finite at {label}", iteration=iteration,
                          row_label=label)


def solve(case, options: SolverOptions | None = None, on_iteration=None) -> Solution:
    """Run the NR loop until max |y* - F(x)| < tolerance.

    Each line of ``Solution.trace`` (the start, each halved step and each
    iteration) is also passed to ``on_iteration``, when given, as it is made.

    Returns a Solution in all non-exceptional outcomes; ``converged`` is False
    when the iteration cap was reached, with the residual history preserved as
    the non-convergence diagnostic.  Raises SolverError on a singular Jacobian
    or a residual that is not finite.  The start is checked in this order: its
    residual (a SolverError at iteration 0), then at that residual's operating
    point the quadratic DC balance of each edc_qac converter (feasible_dc_root:
    InfeasibleError where it has no real root), then its trace line is made.
    """
    model = as_model(case)
    opts = options or SolverOptions()
    t_start = time.perf_counter()
    t_res = t_jac = t_lin = 0.0

    if opts.init is not None:
        x0 = opts.init.to_array()
        if x0.size != model.n_x:
            raise SolverError("provided initial state does not match the case dimensions")
        bad = np.flatnonzero(~np.isfinite(x0))
        if bad.size:
            raise SolverError(f"initial state is not finite at {model.x_labels()[bad[0]]}")
        x = StateVector.from_array(model, x0)
    else:
        x = flat_start(model)

    trace, history = [], []

    def emit(line: str) -> None:
        trace.append(line)
        if on_iteration is not None:
            on_iteration(line)

    t0 = time.perf_counter()
    res = assemble_residuals(model, x)
    t_res += time.perf_counter() - t0
    _check_finite(res, 0)
    # each edc_qac converter's quadratic DC balance at the start (InfeasibleError)
    for conv_id, mode in zip(model.case.converters.id, model.conv_mode):
        if mode == ConverterMode.EDC_QAC:
            feasible_dc_root(model, conv_id, res.op)

    emit(f"init max_mismatch={res.max_abs():.6e} worst={res.worst()}")
    converged, iterations, jac = False, 0, None
    # the key of J0 from flat_start, whose factor the structure keeps
    flat_key = (model.slack_voltage[model.col_of_full < 0].tobytes() + model.edc_set.tobytes()
                if opts.init is None else None)

    def keep_flat(lu) -> None:
        model.structure.flat_factor = (flat_key, lu)

    for it in range(1, opts.max_iterations + 1):
        flat = it == 1 and flat_key is not None
        t0 = time.perf_counter()
        dx = _kept_flat_step(model.structure, flat_key, res.values) if flat else None
        if dx is None:
            jac = assemble_jacobian(model, x, res.op, out=jac)
            t_jac += time.perf_counter() - t0
            t0 = time.perf_counter()
            dx = nr_step(jac, res.values, labels=model.labels, iteration=it,
                         keep=keep_flat if flat else None)
        t_lin += time.perf_counter() - t0

        # the first step scale whose residual is no worse (NaN is worse), else the last
        x_arr = x.to_array()
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            if scale < 1.0:
                logger.info("iteration %d: residual increased, halving step to %.3g", it, scale)
                emit(f"iter={it} step-halving scale={scale:g}")
            x_new = StateVector.from_array(model, x_arr + scale * dx)
            t0 = time.perf_counter()
            res_new = assemble_residuals(model, x_new)
            t_res += time.perf_counter() - t0
            if res_new.max_abs() <= res.max_abs():
                break

        _check_finite(res_new, it)
        x, res = x_new, res_new
        iterations = it
        history.append(res.max_abs())
        emit(f"iter={it} max_mismatch={res.max_abs():.6e} worst={res.worst()}")
        if res.max_abs() < opts.tolerance:
            converged = True
            break

    if len(history) >= 2 and history[-2] > 0:
        logger.debug("final residual drop factor %.3g", history[-2] / max(history[-1], 1e-300))

    timings = SolveTimings(residual_s=t_res, jacobian_s=t_jac, linear_s=t_lin,
                           total_s=time.perf_counter() - t_start)
    diagnostics = None
    if not converged:
        diagnostics = (
            f"did not converge within {opts.max_iterations} iterations; "
            f"final max mismatch {res.max_abs():.3e} at {res.worst()}"
        )
        logger.warning("%s", diagnostics)
    return Solution(converged=converged, x_final=x, iterations=iterations,
                    residual_history=tuple(history), trace=tuple(trace), timings=timings,
                    final_mismatch=res.max_abs(), op=res.op, diagnostics=diagnostics)
