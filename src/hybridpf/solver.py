"""Unified Newton-Raphson solution of the hybrid AC/DC power flow.

The Jacobian is assembled analytically and sparse, with rows in the residual
block order and columns in state order (E' | E'' | E_dc).  Because residuals
are stored in mismatch form r = y* - F(x), the matrix built here is
J = dF/dx = -dr/dx and one iteration solves

    J dx = r,      x <- x + dx

which is the standard update x <- x + J^{-1} (y* - F(x)).  The linear system
is solved by sparse LU with partial pivoting; no explicit inverse is formed.
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
from .sequence import V_NEG, W_NEG, W_POS, W_ZERO, phase_to_sequence
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
    step_halving: bool = True

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

    y_dc_csr = model.adm.y_dc
    for ctx, cop in zip(model.conv_ctx, op.conv):
        conv = ctx.conv
        own_pos = model.col_of_full[ctx.ac_full]
        g_pos_cols = model.col_of_full[ctx.g_pos_idx]
        g_unk = g_pos_cols >= 0
        gp_cols = g_pos_cols[g_unk]
        gp_val = ctx.g_pos_val[g_unk]

        def seq_power(row, wseq, e_seq, i_seq, g_cols, g_val, part, sign=1.0):
            # d(3 E conj(I)) via the admittance combination row and the own node
            t = 3.0 * e_seq * np.conj(g_val)
            o = 3.0 * wseq * np.conj(i_seq)
            if part == "re":
                push(row, g_cols, sign * t.real)
                push(row, g_cols + n, sign * t.imag)
                push(row, own_pos, sign * o.real)
                push(row, own_pos + n, -sign * o.imag)
            else:
                push(row, g_cols, sign * t.imag)
                push(row, g_cols + n, -sign * t.real)
                push(row, own_pos, sign * o.imag)
                push(row, own_pos + n, sign * o.real)

        def mag_sensitivity(i_seq, g_val):
            s = abs(i_seq)
            if s < CURRENT_EPS:
                return None
            u = np.conj(i_seq) * g_val
            return u.real / s, -u.imag / s

        def dc_balance(row, sign):
            # sign * dP_k/dE_m over the DC row of the converter terminal
            k = ctx.dc_node
            lo, hi = y_dc_csr.indptr[k], y_dc_csr.indptr[k + 1]
            cols = y_dc_csr.indices[lo:hi]
            vals = y_dc_csr.data[lo:hi]
            push(row, n_dc_off + cols, sign * cop.e_k * vals)
            push(row, n_dc_off + k, sign * op.i_dc[k])

        s_pos = abs(cop.i_pos)
        params = conv.loss
        kappa = params.switching_factor
        rho = conv.filter_z.real
        # d(conduction + switching)/d|I+| and the filter term
        dloss_ds = params.r_eq_slope(s_pos) * s_pos**2 + 2.0 * cop.r_now * s_pos + kappa * cop.e_k
        dfilt_ds = 2.0 * rho * s_pos

        p_row = ctx.rows["p"]
        if conv.mode == ConverterMode.PAC_QAC:
            # F = P+ - P+_loss
            seq_power(p_row, W_POS, cop.e_pos, cop.i_pos, gp_cols, gp_val, "re")
            sens = mag_sensitivity(cop.i_pos, gp_val)
            if sens is not None and dloss_ds != 0.0:
                push(p_row, gp_cols, -dloss_ds * sens[0])
                push(p_row, gp_cols + n, -dloss_ds * sens[1])
            if kappa != 0.0:
                push(p_row, n_dc_off + ctx.dc_node, -kappa * s_pos)
        else:
            # coupled balance F = P+ + P+_loss + P+_filter - P_k
            seq_power(p_row, W_POS, cop.e_pos, cop.i_pos, gp_cols, gp_val, "re")
            sens = mag_sensitivity(cop.i_pos, gp_val)
            coef = dloss_ds + dfilt_ds
            if sens is not None and coef != 0.0:
                push(p_row, gp_cols, coef * sens[0])
                push(p_row, gp_cols + n, coef * sens[1])
            if kappa != 0.0:
                push(p_row, n_dc_off + ctx.dc_node, kappa * s_pos)
            dc_balance(p_row, -1.0)

        if "q" in ctx.rows:
            # F = Q+ - Q+_loss; the loss is Im{R |I|^2} = 0 for the real R_eq table
            seq_power(ctx.rows["q"], W_POS, cop.e_pos, cop.i_pos, gp_cols, gp_val, "im")
        if "vmag" in ctx.rows:
            w = 2.0 * np.conj(cop.e_pos) * W_POS
            push(ctx.rows["vmag"], own_pos, w.real)
            push(ctx.rows["vmag"], own_pos + n, -w.imag)

        if ctx.with_negative:
            g_neg_cols = model.col_of_full[ctx.g_neg_idx]
            gn_unk = g_neg_cols >= 0
            gn_cols = g_neg_cols[gn_unk]
            gn_val = ctx.g_neg_val[gn_unk]
            s_neg = abs(cop.i_neg)
            dcond_neg = params.r_eq_slope(s_neg) * s_neg**2 + 2.0 * params.r_eq(s_neg) * s_neg
            seq_power(ctx.rows["p_neg"], W_NEG, cop.e_neg, cop.i_neg, gn_cols, gn_val, "re")
            sens_n = mag_sensitivity(cop.i_neg, gn_val)
            if sens_n is not None and dcond_neg != 0.0:
                push(ctx.rows["p_neg"], gn_cols, -dcond_neg * sens_n[0])
                push(ctx.rows["p_neg"], gn_cols + n, -dcond_neg * sens_n[1])
            seq_power(ctx.rows["q_neg"], W_NEG, cop.e_neg, cop.i_neg, gn_cols, gn_val, "im")

        # sequence constraint rows are linear with Fortescue coefficients
        push(ctx.rows["e0_re"], own_pos, W_ZERO.real)
        push(ctx.rows["e0_im"], own_pos + n, W_ZERO.real)
        if not ctx.with_negative:
            push(ctx.rows["eneg_re"], own_pos, W_NEG.real)
            push(ctx.rows["eneg_re"], own_pos + n, -W_NEG.imag)
            push(ctx.rows["eneg_im"], own_pos, W_NEG.imag)
            push(ctx.rows["eneg_im"], own_pos + n, W_NEG.real)

        if "p_dc" in ctx.rows:
            # F = P* + P_loss + P_filter - P_k
            row = ctx.rows["p_dc"]
            dc_balance(row, -1.0)
            sens = mag_sensitivity(cop.i_pos, gp_val)
            coef = dloss_ds + dfilt_ds
            if sens is not None and coef != 0.0:
                push(row, gp_cols, coef * sens[0])
                push(row, gp_cols + n, coef * sens[1])
            if kappa != 0.0:
                push(row, n_dc_off + ctx.dc_node, kappa * s_pos)
            if ctx.with_negative:
                s_neg = abs(cop.i_neg)
                coef_n = (
                    params.r_eq_slope(s_neg) * s_neg**2
                    + 2.0 * params.r_eq(s_neg) * s_neg
                    + 2.0 * rho * s_neg
                )
                sens_n = mag_sensitivity(cop.i_neg, gn_val)
                if sens_n is not None and coef_n != 0.0:
                    push(row, gn_cols, coef_n * sens_n[0])
                    push(row, gn_cols + n, coef_n * sens_n[1])

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
        if opts.init.to_array().size != model.n_x:
            raise SolverError("provided initial state does not match the case dimensions")
        x = StateVector.from_array(model, opts.init.to_array())
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

        if opts.step_halving and res_new.max_abs() > res.max_abs():
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
