"""Unified Newton-Raphson solution of the hybrid AC/DC power flow.

The Jacobian is assembled analytically and sparse, with rows in the residual
block order and columns in state order (E' | E'' | E_dc).  Because residuals
are stored in mismatch form r = y* - F(x), the matrix built here is
J = dF/dx = -dr/dx and one iteration solves

    J dx = r,      x <- x + dx

which is the standard update x <- x + J^{-1} (y* - F(x)).  The AC nodal and DC
rows are stamped from the admittance matrices.  Each converter row is a
function of 12 quantities q linear in x (PfModel.conv_map = dq/dx), so the
converter rows enter J by the chain rule as (dF/dq) @ conv_map.  The linear
system is solved by sparse LU with partial pivoting; no explicit inverse is
formed.
Convergence is declared on the infinity norm of the mismatch vector.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from .errors import SolverError
from .losses import LossBreakdown
from .network import AcBusKind, ConverterMode
from .residuals import (
    CURRENT_EPS,
    StateVector,
    as_model,
    assemble_residuals,
    feasible_dc_root,
    operating_point,
)
from .sequence import V_NEG, phase_to_sequence
from .verify import fd_jacobian

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the NR loop.

    ``init=None`` means flat start; otherwise a StateVector is used as given.
    ``jacobian_mode`` is "analytic" or "fd_check"; the latter still solves with
    the analytic matrix but cross-checks it against central finite differences
    of the residuals (step ``fd_step``) every iteration and logs deviations.
    """

    tolerance: float = 1e-8
    max_iterations: int = 50
    init: StateVector | None = None
    jacobian_mode: str = "analytic"
    fd_step: float = 1e-7

    def __post_init__(self):
        if self.tolerance <= 0:
            raise SolverError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        if self.jacobian_mode not in ("analytic", "fd_check"):
            raise SolverError(f"unknown jacobian_mode {self.jacobian_mode!r}")


@dataclass(frozen=True)
class SolveTimings:
    """Cumulative wall-clock seconds per NR stage (the iterative loop only)."""

    residual_s: float = 0.0
    jacobian_s: float = 0.0
    linear_s: float = 0.0
    total_s: float = 0.0


@dataclass(eq=False)
class AcBranchFlow:
    from_bus: str
    to_bus: str
    s_from: np.ndarray   # (3,) complex, sending-end injection into the branch
    s_to: np.ndarray


@dataclass(eq=False)
class DcBranchFlow:
    from_bus: str
    to_bus: str
    p_from: float
    p_to: float


@dataclass(eq=False)
class Solution:
    """Converged (or final) state plus derived per-element results."""

    converged: bool
    x_final: StateVector
    iterations: int
    residual_history: tuple
    losses: dict                 # converter id -> LossBreakdown
    converter_power: dict        # converter id -> dict(p_ac, q_ac, p_dc)
    ac_branch_flows: list
    dc_branch_flows: list
    slack_injections: dict       # bus id -> (3,) complex
    ac_voltages: dict            # bus id -> (3,) complex
    dc_voltages: dict            # bus id -> float
    sequence_voltages: dict      # bus id -> SequenceSet
    trace: tuple
    timings: SolveTimings
    n_states: int
    final_mismatch: float
    diagnostics: str | None = None


def flat_start(case) -> StateVector:
    """All voltage magnitudes at 1 p.u., nominal phase angles, DC at 1 p.u.

    DC terminals of edc_qac converters start at their voltage setpoint.
    """
    model = as_model(case)
    nominal = np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])
    phasors = np.tile(nominal, model.n_ac_nodes // 3) if model.n_ac_nodes else nominal[:0]
    e_unk = phasors[model.unknown_full]
    e_dc = np.ones(model.n_dc)
    for ctx in model.conv_ctx:
        if ctx.conv.mode == ConverterMode.EDC_QAC:
            e_dc[ctx.dc_node] = ctx.conv.e_dc_set
    return StateVector(e=e_unk.real.copy(), f=e_unk.imag.copy(), e_dc=e_dc, model=model)


# positions of E0, E+, E-, I+, I- (Re, Im each), E_k and I_k in a converter's
# 12 rows of PfModel.conv_map
_E0, _EPOS, _ENEG, _IPOS, _INEG, _EK, _IK = 0, 2, 4, 6, 8, 10, 11


def _power_grad(e, i, e_at, i_at):
    """Gradients of Re and Im of S = 3 E conj(I) over the 12 converter quantities."""
    re, im = np.zeros(12), np.zeros(12)
    re[[e_at, e_at + 1, i_at, i_at + 1]] = 3.0 * np.array([i.real, i.imag, e.real, e.imag])
    im[[e_at, e_at + 1, i_at, i_at + 1]] = 3.0 * np.array([-i.imag, i.real, e.imag, -e.real])
    return re, im


def _mag_grad(i, at):
    """Gradient of |I| over the 12 converter quantities; zero below CURRENT_EPS."""
    grad = np.zeros(12)
    s = abs(i)
    if s >= CURRENT_EPS:
        grad[at], grad[at + 1] = i.real / s, i.imag / s
    return grad


def assemble_jacobian(case, x: StateVector) -> sp.csr_matrix:
    """Analytic Jacobian dF/dx (equal to minus the residual derivative).

    Row order matches assemble_residuals; column blocks are E', E'', E_dc.
    """
    model = as_model(case)
    op = operating_point(model, x)
    n = model.n_unknown
    n_dc_off = 2 * n
    rows_l: list[np.ndarray] = []
    cols_l: list[np.ndarray] = []
    vals_l: list[np.ndarray] = []

    def push(r, c, v):
        r, c, v = np.broadcast_arrays(
            np.atleast_1d(np.asarray(r, dtype=np.int64)),
            np.atleast_1d(np.asarray(c, dtype=np.int64)),
            np.atleast_1d(np.asarray(v, dtype=float)),
        )
        if r.size:
            rows_l.append(r.copy())
            cols_l.append(c.copy())
            vals_l.append(v.copy())

    # nodal AC power rows: cross terms from Y nonzeros, then own-current terms
    if model.n_ac_nodes:
        y_coo = model.adm.y_ac.tocoo()
        r_full, c_full, y_val = y_coo.row, y_coo.col, y_coo.data
        c_pos = model.col_of_full[c_full]
        unk = c_pos >= 0
        t_val = op.e_full[r_full] * np.conj(y_val)

        for row_map, e_part, f_part in (
            (model.row_p_of_full, t_val.real, t_val.imag),
            (model.row_q_of_full, t_val.imag, -t_val.real),
        ):
            m = (row_map[r_full] >= 0) & unk
            push(row_map[r_full][m], c_pos[m], e_part[m])
            push(row_map[r_full][m], c_pos[m] + n, f_part[m])

        own_full = model.unknown_full
        own_pos = np.arange(n)
        c_own = np.conj(op.i_full[own_full])
        m = model.row_p_of_full[own_full] >= 0
        push(model.row_p_of_full[own_full][m], own_pos[m], c_own.real[m])
        push(model.row_p_of_full[own_full][m], own_pos[m] + n, -c_own.imag[m])
        m = model.row_q_of_full[own_full] >= 0
        push(model.row_q_of_full[own_full][m], own_pos[m], c_own.imag[m])
        push(model.row_q_of_full[own_full][m], own_pos[m] + n, c_own.real[m])
        m = model.row_v_of_full[own_full] >= 0
        e_v = op.e_full[own_full][m]
        push(model.row_v_of_full[own_full][m], own_pos[m], 2.0 * e_v.real)
        push(model.row_v_of_full[own_full][m], own_pos[m] + n, 2.0 * e_v.imag)

    # DC voltage setpoint rows: unit diagonal in the own E_dc column
    push(model.edc_rows, n_dc_off + model.edc_node, np.ones(model.edc_rows.size))

    # plain DC P rows: dP_j/dE_m = E_j Y_jm + delta_jm I_j
    if model.pdc_rows.size:
        row_pdc_of_node = np.full(model.n_dc, -1, dtype=int)
        row_pdc_of_node[model.pdc_node] = model.pdc_rows
        y_coo = model.adm.y_dc.tocoo()
        jr, jm, g = y_coo.row, y_coo.col, y_coo.data
        m = row_pdc_of_node[jr] >= 0
        push(row_pdc_of_node[jr][m], n_dc_off + jm[m], x.e_dc[jr][m] * g[m])
        push(model.pdc_rows, n_dc_off + model.pdc_node, op.i_dc[model.pdc_node])

    # converter rows by the chain rule, dF/dx = dF/dq . dq/dx, over the 12
    # terminal quantities q of each converter (its rows of model.conv_map)
    unit = np.eye(12)
    g_rows, g_cols, g_vals = [], [], []
    for c, (ctx, cop) in enumerate(zip(model.conv_ctx, op.conv)):
        conv, params, rows = ctx.conv, ctx.conv.loss, ctx.rows
        kappa = params.switching_factor
        rho = conv.filter_z.real
        p_pos, q_pos = _power_grad(cop.e_pos, cop.i_pos, _EPOS, _IPOS)
        # conduction + switching and filter losses of the positive sequence
        s_pos = abs(cop.i_pos)
        mag_pos = _mag_grad(cop.i_pos, _IPOS)
        loss_pos = mag_pos * (
            params.r_eq_slope(s_pos) * s_pos**2 + 2.0 * cop.r_now * s_pos + kappa * cop.e_k
        )
        loss_pos[_EK] += kappa * s_pos
        filt_pos = mag_pos * (2.0 * rho * s_pos)
        p_k = np.zeros(12)           # P_k = E_k I_k
        p_k[_EK], p_k[_IK] = op.i_dc[ctx.dc_node], cop.e_k

        grads = {"e0_re": unit[_E0], "e0_im": unit[_E0 + 1]}
        if conv.mode == ConverterMode.PAC_QAC:
            # F = P+ - P+_loss
            grads["p"] = p_pos - loss_pos
        else:
            # coupled balance F = P+ + P+_loss + P+_filter - P_k
            grads["p"] = p_pos + loss_pos + filt_pos - p_k
        if "q" in rows:
            # F = Q+ - Q+_loss; the loss is Im{R |I|^2} = 0 for the real R_eq table
            grads["q"] = q_pos
        if "vmag" in rows:
            grads["vmag"] = 2.0 * (cop.e_pos.real * unit[_EPOS] + cop.e_pos.imag * unit[_EPOS + 1])
        # F = P* + P_loss + P_filter - P_k, on the DC side of pac_* converters
        p_dc = loss_pos + filt_pos - p_k
        if ctx.with_negative:
            p_neg, grads["q_neg"] = _power_grad(cop.e_neg, cop.i_neg, _ENEG, _INEG)
            s_neg = abs(cop.i_neg)
            mag_neg = _mag_grad(cop.i_neg, _INEG)
            loss_neg = mag_neg * (
                params.r_eq_slope(s_neg) * s_neg**2 + 2.0 * params.r_eq(s_neg) * s_neg
            )
            grads["p_neg"] = p_neg - loss_neg
            p_dc += loss_neg + mag_neg * (2.0 * rho * s_neg)
        else:
            grads["eneg_re"], grads["eneg_im"] = unit[_ENEG], unit[_ENEG + 1]
        if "p_dc" in rows:
            grads["p_dc"] = p_dc
        for kind, grad in grads.items():
            g_rows.append(rows[kind])
            g_cols.append(12 * c)
            g_vals.append(grad)
    if g_rows:
        grad = sp.csr_matrix(
            (np.concatenate(g_vals),
             (np.repeat(g_rows, 12), (np.array(g_cols)[:, None] + np.arange(12)).ravel())),
            shape=(model.n_x, model.conv_map.shape[0]),
        )
        conv_part = (grad @ model.conv_map).tocoo()
        push(conv_part.row, conv_part.col, conv_part.data)

    if rows_l:
        rows = np.concatenate(rows_l)
        cols = np.concatenate(cols_l)
        vals = np.concatenate(vals_l)
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    jac = sp.csr_matrix((vals, (rows, cols)), shape=(model.n_x, model.n_x))
    jac.sum_duplicates()
    return jac


def nr_step(jacobian, mismatch, labels=None, iteration=None) -> np.ndarray:
    """Solve J dx = dy by sparse LU factorization (no explicit inverse)."""
    J = sp.csc_matrix(jacobian)
    dy = np.asarray(mismatch, dtype=float)
    try:
        lu = sla.splu(J)
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
    return dx


def _worst_row_label(J, labels):
    if labels is None or J.shape[0] == 0:
        return None
    row_max = np.abs(J).max(axis=1).toarray().ravel()
    return str(labels[int(np.argmin(row_max))])


def _apply_negative_sequence_seed(model, x, magnitude=1e-3):
    """Small E- component at with_negative converters; their first Jacobian row
    would otherwise be identically zero (S- = 3 E- conj(I-) vanishes at a
    balanced start)."""
    seeded = False
    for ctx in model.conv_ctx:
        if ctx.with_negative:
            pos = model.col_of_full[ctx.ac_full]
            bump = V_NEG * magnitude
            x.e[pos] += bump.real
            x.f[pos] += bump.imag
            seeded = True
    if seeded:
        logger.debug("applied negative-sequence start seed of %.3g p.u.", magnitude)
    return x


def solve(case, options: SolverOptions | None = None, on_iteration=None) -> Solution:
    """Run the NR loop until max |y* - F(x)| < tolerance.

    Returns a Solution in all non-exceptional outcomes; ``converged`` is False
    when the iteration cap was reached, with the residual history preserved as
    the non-convergence diagnostic.  Raises SolverError on a singular Jacobian
    and InfeasibleError when the initial state violates the quadratic DC
    transfer balance of an edc_qac converter.
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
        _apply_negative_sequence_seed(model, x)

    # infeasibility diagnostics before iterating (negative discriminant check)
    for ctx in model.conv_ctx:
        if ctx.conv.mode == ConverterMode.EDC_QAC:
            feasible_dc_root(model, ctx.conv.id, x)

    t0 = time.perf_counter()
    res = assemble_residuals(model, x)
    t_res += time.perf_counter() - t0

    trace = [f"init max_mismatch={res.max_abs():.6e} worst={res.worst()}"]
    history: list[float] = []
    converged = False
    iterations = 0

    for it in range(1, opts.max_iterations + 1):
        t0 = time.perf_counter()
        jac = assemble_jacobian(model, x)
        t_jac += time.perf_counter() - t0

        if opts.jacobian_mode == "fd_check":
            fd = -fd_jacobian(model, x, opts.fd_step)
            dev = np.max(np.abs(jac.toarray() - fd)) / max(1.0, np.max(np.abs(fd)))
            logger.info("iteration %d: analytic vs FD Jacobian deviation %.3e", it, dev)
            if dev > 1e-3:
                raise SolverError(f"analytic Jacobian deviates from FD by {dev:.3e}",
                                  iteration=it)

        t0 = time.perf_counter()
        dx = nr_step(jac, res.values, labels=model.labels, iteration=it)
        t_lin += time.perf_counter() - t0

        x_new = StateVector.from_array(model, x.to_array() + dx)
        t0 = time.perf_counter()
        res_new = assemble_residuals(model, x_new)
        t_res += time.perf_counter() - t0

        if res_new.max_abs() > res.max_abs():
            scale = 1.0
            for _ in range(4):
                scale *= 0.5
                x_try = StateVector.from_array(model, x.to_array() + scale * dx)
                res_try = assemble_residuals(model, x_try)
                logger.info(
                    "iteration %d: residual increased, halving step to %.3g", it, scale
                )
                trace.append(f"iter={it} step-halving scale={scale:g}")
                if res_try.max_abs() <= res.max_abs():
                    x_new, res_new = x_try, res_try
                    break
            else:
                x_new, res_new = x_try, res_try

        x, res = x_new, res_new
        iterations = it
        history.append(res.max_abs())
        line = f"iter={it} max_mismatch={res.max_abs():.6e} worst={res.worst()}"
        trace.append(line)
        if on_iteration is not None:
            on_iteration(it, res.max_abs(), str(res.worst()))
        if res.max_abs() < opts.tolerance:
            converged = True
            break

    if len(history) >= 2 and history[-2] > 0:
        logger.debug("final residual drop factor %.3g", history[-2] / max(history[-1], 1e-300))

    timings = SolveTimings(
        residual_s=t_res, jacobian_s=t_jac, linear_s=t_lin,
        total_s=time.perf_counter() - t_start,
    )
    diagnostics = None
    if not converged:
        diagnostics = (
            f"did not converge within {opts.max_iterations} iterations; "
            f"final max mismatch {res.max_abs():.3e} at {res.worst()}"
        )
        logger.warning("%s", diagnostics)
    return _summarize(model, x, converged, iterations, history, trace, timings,
                      res.max_abs(), diagnostics)


def _summarize(model, x, converged, iterations, history, trace, timings,
               final_mismatch, diagnostics) -> Solution:
    case = model.case
    op = operating_point(model, x)

    losses = {}
    converter_power = {}
    for ctx, cop in zip(model.conv_ctx, op.conv):
        losses[ctx.conv.id] = LossBreakdown(
            s_loss=cop.s_loss_pos + cop.p_cond_neg,
            p_filter=cop.p_filter_total,
            e_c=cop.e_c,
            i_sw=cop.i_sw,
        )
        s_l = op.s_full[ctx.ac_full].sum()
        converter_power[ctx.conv.id] = {
            "p_ac": float(s_l.real), "q_ac": float(s_l.imag), "p_dc": cop.p_k,
        }

    ac_flows = []
    for br in case.ac_branches:
        i = case.ac_pos[br.from_bus]
        j = case.ac_pos[br.to_bus]
        ef = op.e_full[3 * i : 3 * i + 3]
        et = op.e_full[3 * j : 3 * j + 3]
        ys = br.y_series()
        ysh2 = br.y_shunt / 2.0
        i_from = ys @ (ef - et) + ysh2 @ ef
        i_to = ys @ (et - ef) + ysh2 @ et
        ac_flows.append(AcBranchFlow(br.from_bus, br.to_bus,
                                     ef * np.conj(i_from), et * np.conj(i_to)))
    dc_flows = []
    for br in case.dc_branches:
        i = case.dc_pos[br.from_bus]
        j = case.dc_pos[br.to_bus]
        cur = (x.e_dc[i] - x.e_dc[j]) / br.r
        dc_flows.append(DcBranchFlow(br.from_bus, br.to_bus,
                                     float(x.e_dc[i] * cur), float(-x.e_dc[j] * cur)))

    slack_inj = {}
    ac_voltages = {}
    seq_voltages = {}
    for i, bus in enumerate(case.ac_buses):
        v = op.e_full[3 * i : 3 * i + 3]
        ac_voltages[bus.id] = v.copy()
        seq_voltages[bus.id] = phase_to_sequence(v)
        if bus.kind == AcBusKind.SLACK:
            slack_inj[bus.id] = op.s_full[3 * i : 3 * i + 3].copy()
    dc_voltages = {b.id: float(x.e_dc[j]) for j, b in enumerate(case.dc_buses)}

    return Solution(
        converged=converged,
        x_final=x,
        iterations=iterations,
        residual_history=tuple(history),
        losses=losses,
        converter_power=converter_power,
        ac_branch_flows=ac_flows,
        dc_branch_flows=dc_flows,
        slack_injections=slack_inj,
        ac_voltages=ac_voltages,
        dc_voltages=dc_voltages,
        sequence_voltages=seq_voltages,
        trace=tuple(trace),
        timings=timings,
        n_states=model.n_x,
        final_mismatch=final_mismatch,
        diagnostics=diagnostics,
    )
