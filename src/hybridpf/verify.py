"""Independent verification backends for the Newton solver.

``fixed_point_solve`` reaches the same fixed point as the NR solver through a
completely different route: successive substitution over the nodal equations,
with the AC and DC grids solved separately and linked through the converter
power balances in an outer loop (the classic sequential architecture).  Each
grid is solved by implicit Z-bus Gauss steps (Chen et al., "Distribution
system power flow analysis -- a rigid approach", IEEE TPWRD 1991): its reduced
admittance matrix is factored once per call, and every round solves it for
the current injections of the present state.  ``fd_jacobian`` provides
derivative ground truth by central differences, and ``quadratic_root_scan``
brackets polynomial roots by bisection.

This module must not import the Newton solver or its analytic Jacobian; the
whole point is an independent second route for tests and the ``verify`` CLI
command.  The residual evaluator is used only as the convergence check.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import HybridPfError
from .losses import converter_losses, filter_losses
from .network import PHASES, ConverterMode
from .residuals import StateVector, as_model, assemble_residuals
from .sequence import V_NEG, V_POS, W_NEG, W_POS

_NEG_SEED = 1e-3


class FixedPointError(HybridPfError):
    """The fixed-point iteration did not reach the tolerance."""


def _factor(a, row_names):
    """The solve function of the square sparse matrix ``a``, factored once.

    ``row_names()`` names a's rows; a singular matrix's error lists its empty ones.
    """
    if a.shape[0] == 0:
        return lambda b: b
    try:
        return spla.splu(sp.csc_matrix(a)).solve
    except RuntimeError as exc:
        names = row_names()
        empty = [names[i] for i in np.flatnonzero(abs(a).max(axis=1).toarray().ravel() == 0)]
        where = f" (empty rows: {', '.join(empty)})" if empty else ""
        raise FixedPointError(f"reduced admittance matrix is singular{where}: {exc}") from exc


def fixed_point_solve(case, tol=1e-10, max_sweeps=20000):
    """Solve the hybrid power flow by successive substitution, grid by grid.

    Each outer round refreshes the converter coupling targets, then makes one
    DC solve and one AC solve; a sweep is one such solve, so a round costs two
    sweeps.  Both solves are implicit Z-bus Gauss steps: the reduced admittance
    matrix of each grid is factored once per call, and each step solves it for
    the current injections of the present state.  PV nodes are held in the AC
    solve, and after it each gets one scalar update that holds P and |E|.

    Returns a StateVector whose residual infinity norm is <= tol.  Raises
    FixedPointError when max_sweeps is below 1, when a reduced admittance
    matrix is singular (naming its empty rows, if any), when a residual is not
    finite, or when the sweeps run out; the last two name the worst residual row.
    """
    if max_sweeps < 1:
        raise FixedPointError(f"max_sweeps must be at least 1, got {max_sweeps}")
    model = as_model(case)
    case = model.case
    y_ac = model.adm.y_ac
    y_dc = model.adm.y_dc

    e_full = model.slack_voltage.copy()
    e_full[model.unknown_full] = np.tile(V_POS, model.n_unknown // 3)
    e_dc = np.ones(model.n_dc)
    e_dc[model.edc_node] = model.edc_set

    # per-converter lagged coupling targets, refreshed every outer round
    s_pos_target = {c.id: 0j for c in case.converters}
    s_neg_target = {c.id: 0j for c in case.converters}
    p_dc_target = {c.id: 0.0 for c in case.converters}

    # AC unknowns: each PQ node, then E+ of each converter bus (column V_POS,
    # row W_POS); E0 = 0 and E- stay fixed within a solve, as do slack and PV nodes
    n_p = model.p_rows.size
    pq_full, pv_full = model.q_full, model.v_full
    s_pq = model.p_set[model.q_rows - n_p] + 1j * model.q_set
    p_pv, v_pv = model.p_set[model.v_rows - n_p], np.sqrt(model.v_set_sq)
    ctxs = model.conv_ctx
    conv_full = model.conv_ac
    neg = np.flatnonzero([ctx.with_negative for ctx in ctxs])
    e_full[conv_full[neg]] += V_NEG * _NEG_SEED
    vac = np.flatnonzero([ctx.mode == ConverterMode.PAC_VAC for ctx in ctxs])
    v_mag_set = model.conv_set[vac, 5]
    n_pq, n_conv = pq_full.size, len(ctxs)
    unk = np.concatenate([np.arange(n_pq), np.repeat(n_pq + np.arange(n_conv), 3)])
    node = np.concatenate([pq_full, conv_full.ravel()])
    shape = (n_pq + n_conv, model.n_ac_nodes)
    lift = sp.csr_matrix((np.concatenate([np.ones(n_pq), np.tile(V_POS, n_conv)]),
                          (node, unk)), shape=shape[::-1])
    project = sp.csr_matrix((np.concatenate([np.ones(n_pq), np.tile(W_POS, n_conv)]),
                             (unk, node)), shape=shape)
    solve_ac = _factor(project @ y_ac @ lift, lambda: [
        f"{model.ac_bus_ids[n // 3]}:{PHASES[n % 3]}" for n in pq_full.tolist()
    ] + [ctx.id for ctx in ctxs])
    y_pv = y_ac[pv_full]
    y_pv_diag = y_ac.diagonal()[pv_full]

    # DC unknowns: every node but the V nodes and edc_qac terminals
    dc_free = np.setdiff1d(np.arange(model.n_dc), model.edc_node)
    y_dc_free = y_dc[dc_free]
    solve_dc = _factor(y_dc_free[:, dc_free], lambda: [model.dc_bus_ids[j] for j in dc_free])
    y_dc_held = y_dc_free[:, model.edc_node]
    p_free = np.zeros(dc_free.size)
    p_free[np.searchsorted(dc_free, model.pdc_node)] = model.pdc_set
    pac = [(int(np.searchsorted(dc_free, ctx.dc_node)), ctx.id) for ctx in ctxs
           if ctx.mode != ConverterMode.EDC_QAC]

    def refresh_couplings():
        i_full = y_ac @ e_full
        i_dc_vec = y_dc @ e_dc if model.n_dc else np.zeros(0)
        for c in case.converters:
            i = case.ac_pos[c.ac_bus]
            il = i_full[3 * i : 3 * i + 3]
            i_pos = complex(W_POS @ il)
            k = case.dc_pos[c.dc_bus]
            e_k = e_dc[k]
            breakdown = converter_losses(i_pos, e_k, c.loss)
            p_loss_pos = breakdown.s_loss.real
            q_loss_pos = breakdown.s_loss.imag
            p_filt_pos = filter_losses(i_pos, c.filter_z)
            p_cond_neg = p_filt_neg = 0.0
            if c.sequence_policy.value == "with_negative":
                i_neg = complex(W_NEG @ il)
                p_cond_neg = c.loss.r_eq(abs(i_neg)) * abs(i_neg) ** 2
                p_filt_neg = filter_losses(i_neg, c.filter_z)
                s_neg_target[c.id] = (c.p_neg + p_cond_neg) + 1j * c.q_neg
            if c.mode == ConverterMode.EDC_QAC:
                p_k = e_dc[k] * i_dc_vec[k]
                s_pos_target[c.id] = (p_k - p_loss_pos - p_filt_pos) + 1j * (
                    c.q_pos_set + q_loss_pos
                )
            elif c.mode == ConverterMode.PAC_QAC:
                s_pos_target[c.id] = (c.p_pos_set + p_loss_pos) + 1j * (
                    c.q_pos_set + q_loss_pos
                )
                p_ref = c.p_pos_set + (
                    c.p_neg if c.sequence_policy.value == "with_negative" else 0.0
                )
                p_dc_target[c.id] = (
                    p_ref + p_loss_pos + p_cond_neg + p_filt_pos + p_filt_neg
                )
            else:  # PAC_VAC
                p_k = e_dc[k] * i_dc_vec[k]
                s_pos_target[c.id] = (p_k - p_loss_pos - p_filt_pos) + 0j
                p_dc_target[c.id] = c.p_pos_set + p_loss_pos + p_filt_pos

    def dc_step():
        for j, cid in pac:
            p_free[j] = p_dc_target[cid]
        rhs = p_free / e_dc[dc_free] - y_dc_held @ e_dc[model.edc_node]
        e_dc[dc_free] = solve_dc(rhs)

    def ac_step():
        i_full = y_ac @ e_full
        e_conv, i_conv = e_full[conv_full], i_full[conv_full]
        e_pos, i_pos = e_conv @ W_POS, i_conv @ W_POS
        s_pos = np.array([s_pos_target[ctx.id] for ctx in ctxs], dtype=complex)
        s_pos[vac] = s_pos[vac].real + 1j * (3.0 * e_pos[vac] * np.conj(i_pos[vac])).imag
        # current-division form of E-: contracts at the small-E- branch the
        # Newton path also selects (the admittance form repels there)
        e_neg = np.zeros(n_conv, dtype=complex)
        e_neg[neg] = e_conv[neg] @ W_NEG
        i_neg = i_conv[neg] @ W_NEG
        flowing = np.abs(i_neg) > 1e-12
        s_neg = np.array([s_neg_target[ctxs[c].id] for c in neg[flowing]], dtype=complex)
        e_neg[neg[flowing]] = s_neg / (3.0 * np.conj(i_neg[flowing]))
        inj = np.concatenate([np.conj(s_pq / e_full[pq_full]), np.conj(s_pos / (3.0 * e_pos))])
        held = e_full.copy()
        held[pq_full] = 0.0
        held[conv_full] = e_neg[:, None] * V_NEG
        u = solve_ac(inj - project @ (y_ac @ held))
        u[n_pq + vac] *= v_mag_set / np.abs(u[n_pq + vac])
        e_full[:] = held + lift @ u
        # PV: hold P and the magnitude, let Q float
        i_pv = y_pv @ e_full
        e_old = e_full[pv_full]
        s = p_pv + 1j * (e_old * np.conj(i_pv)).imag
        e_new = (np.conj(s / e_old) - (i_pv - y_pv_diag * e_old)) / y_pv_diag
        e_full[pv_full] = e_new * v_pv / np.abs(e_new)

    def current_state():
        unk = e_full[model.unknown_full]
        return StateVector(e=unk.real.copy(), f=unk.imag.copy(),
                           e_dc=e_dc.copy(), model=model)

    sweeps = 0
    while True:
        refresh_couplings()
        dc_step()
        ac_step()
        sweeps += 2
        res = assemble_residuals(model, current_state())
        worst = res.max_abs()
        if worst <= tol:
            return current_state()
        if not np.isfinite(worst) or sweeps >= max_sweeps:
            break
    raise FixedPointError(
        f"fixed-point iteration above tolerance after {sweeps} sweeps "
        f"(residual {worst:.3e} at row {res.worst()})"
    )


def fd_jacobian(case, x: StateVector, step: float) -> np.ndarray:
    """Central finite differences of assemble_residuals (the mismatch vector).

    Note the sign: this is d(residual)/dx, the negative of the matrix used by
    the Newton solver (which differentiates F = y* - residual).
    """
    if step <= 0:
        raise HybridPfError("fd step must be > 0")
    model = as_model(case)
    base = x.to_array()
    out = np.zeros((model.n_x, model.n_x))
    for c in range(model.n_x):
        xp = base.copy()
        xp[c] += step
        rp = assemble_residuals(model, StateVector.from_array(model, xp)).values
        xm = base.copy()
        xm[c] -= step
        rm = assemble_residuals(model, StateVector.from_array(model, xm)).values
        out[:, c] = (rp - rm) / (2.0 * step)
    return out


def quadratic_root_scan(coeffs, lo=-2.0, hi=2.0, n_grid=4001, tol=1e-12):
    """All real roots of a*E^2 + b*E + c in [lo, hi], by sign-change bisection."""
    a, b, c = (float(v) for v in coeffs)
    if a == 0:
        raise HybridPfError("leading coefficient must be nonzero")

    def p(x):
        return (a * x + b) * x + c

    xs = np.linspace(lo, hi, n_grid)
    ys = p(xs)
    roots = []
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if y0 == 0.0:
            roots.append(float(x0))
            continue
        if y0 * y1 < 0:
            left, right, fl = x0, x1, y0
            while right - left > tol:
                mid = 0.5 * (left + right)
                fm = p(mid)
                if fm == 0.0:
                    left = right = mid
                    break
                if fl * fm < 0:
                    right = mid
                else:
                    left, fl = mid, fm
            roots.append(0.5 * (left + right))
    if ys[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)
