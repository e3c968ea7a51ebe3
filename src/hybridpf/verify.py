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
# rounds without a new residual minimum after which fixed_point_solve gives up
STALL_ROUNDS = 20


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
    the current injections of the present state.

    PV phase nodes and the E+ of pac_vac converters are voltage-controlled
    unknowns of the AC solve: each injects with its own Q estimate, which starts
    at the flat start.  After each solve one first-order step moves their
    magnitudes m toward the setpoints V, dQ = G (V - m), and each is rescaled
    to V.  G inverts the sensitivities d|u_k|/dQ_j = Im(Z_kj exp(i(th_j -
    th_k))) / (s_j V_j), taken once per call at the flat-start angles th, with
    Z the inverse of the reduced AC matrix and s = 1 for a PV node and 3 for an
    E+.  For one node this is the Z-bus correction Q += s V (V - m) / Im(Z_kk)
    (Chen et al.).

    Returns a StateVector whose residual infinity norm is <= tol.  Raises
    FixedPointError when max_sweeps is below 1 or tol is not above 0, when a
    reduced admittance matrix (naming its empty rows, if any) or the
    sensitivity matrix of the voltage-controlled unknowns is singular, when a
    residual is not finite, when the sweeps run out, or when the residual has
    made no new minimum in STALL_ROUNDS rounds; the last three name the worst
    residual row.
    """
    if max_sweeps < 1:
        raise FixedPointError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if not tol > 0:     # NaN included
        raise FixedPointError(f"tol must be > 0, got {tol}")
    model = as_model(case)
    y_ac = model.adm.y_ac
    y_dc = model.adm.y_dc

    e_full = model.slack_voltage.copy()
    e_full[model.unknown_full] = np.tile(V_POS, model.n_unknown // 3)
    e_dc = np.ones(model.n_dc)
    e_dc[model.edc_node] = model.edc_set

    # AC unknowns: each PQ and PV phase node, then E+ of each converter bus
    # (column V_POS, row W_POS); E0 = 0 and E- stay fixed within a solve, as
    # do slack nodes
    n_p = model.p_rows.size
    load_full = model.p_full
    s_load = model.p_set.astype(complex)
    s_load.imag[model.q_rows - n_p] = model.q_set
    ctxs = model.conv_ctx
    conv_full = model.conv_ac
    neg = np.flatnonzero([ctx.with_negative for ctx in ctxs])
    e_full[conv_full[neg]] += V_NEG * _NEG_SEED
    vac = np.flatnonzero([ctx.mode == ConverterMode.PAC_VAC for ctx in ctxs])
    n_conv = len(ctxs)
    # the lagged coupling targets of each converter, refreshed every outer round
    s_pos_target, s_neg_target = np.zeros((2, n_conv), dtype=complex)
    p_dc_target = np.zeros(n_conv)
    unk = np.concatenate([np.arange(n_p), np.repeat(n_p + np.arange(n_conv), 3)])
    node = np.concatenate([load_full, conv_full.ravel()])
    shape = (n_p + n_conv, model.n_ac_nodes)
    lift = sp.csr_matrix((np.concatenate([np.ones(n_p), np.tile(V_POS, n_conv)]),
                          (node, unk)), shape=shape[::-1])
    project = sp.csr_matrix((np.concatenate([np.ones(n_p), np.tile(W_POS, n_conv)]),
                             (unk, node)), shape=shape)
    solve_ac = _factor(project @ y_ac @ lift, lambda: [
        f"{model.ac_bus_ids[n // 3]}:{PHASES[n % 3]}" for n in load_full.tolist()
    ] + [ctx.id for ctx in ctxs])

    # voltage-controlled unknowns: each PV phase node, then each pac_vac E+,
    # with their magnitude setpoints V, Q weights s and Q at the flat start
    ctl = np.concatenate([model.v_rows - n_p, n_p + vac])
    ctl_mag = np.concatenate([np.sqrt(model.v_set_sq), model.conv_set[vac, 5]])
    ctl_weight = np.concatenate([np.ones(model.v_rows.size), np.full(vac.size, 3.0)])
    e_unk, i_unk = project @ e_full, project @ (y_ac @ e_full)
    q_ctl = ctl_weight * (e_unk[ctl] * np.conj(i_unk[ctl])).imag
    # the sensitivities d|u_k|/dQ_j of the docstring, one solve per column of Z
    turn = np.exp(1j * np.angle(e_unk[ctl]))
    sens = np.zeros((ctl.size, ctl.size))
    unit = np.zeros(n_p + n_conv, dtype=complex)
    for j, k in enumerate(ctl):
        unit[k] = 1.0
        sens[:, j] = (solve_ac(unit)[ctl] * turn[j] / turn).imag
        unit[k] = 0.0
    try:
        gain = np.linalg.inv(sens / (ctl_weight * ctl_mag))
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(f"Q-V sensitivity of the controlled nodes: {exc}") from exc

    # DC unknowns: every node but the V nodes and edc_qac terminals
    dc_free = np.setdiff1d(np.arange(model.n_dc), model.edc_node)
    y_dc_free = y_dc[dc_free]
    solve_dc = _factor(y_dc_free[:, dc_free], lambda: [model.dc_bus_ids[j] for j in dc_free])
    y_dc_held = y_dc_free[:, model.edc_node]
    p_free = np.zeros(dc_free.size)
    p_free[np.searchsorted(dc_free, model.pdc_node)] = model.pdc_set
    pac = np.flatnonzero([ctx.mode != ConverterMode.EDC_QAC for ctx in ctxs])
    pac_free = np.searchsorted(dc_free, model.conv_dc[pac])

    def refresh_couplings():
        i_full = y_ac @ e_full
        i_dc_vec = y_dc @ e_dc if model.n_dc else np.zeros(0)
        for c, (ctx, (_, q_pos, p_pos, p_neg, q_neg, _)) in enumerate(
                zip(ctxs, model.conv_set.tolist())):
            il = i_full[ctx.ac_full]
            i_pos = complex(W_POS @ il)
            e_k = e_dc[ctx.dc_node]
            breakdown = converter_losses(i_pos, e_k, ctx.loss)
            p_loss_pos = breakdown.s_loss.real
            q_loss_pos = breakdown.s_loss.imag
            p_filt_pos = filter_losses(i_pos, ctx.filter_z)
            p_cond_neg = p_filt_neg = 0.0
            if ctx.with_negative:
                i_neg = complex(W_NEG @ il)
                p_cond_neg = ctx.loss.r_eq(abs(i_neg)) * abs(i_neg) ** 2
                p_filt_neg = filter_losses(i_neg, ctx.filter_z)
                s_neg_target[c] = (p_neg + p_cond_neg) + 1j * q_neg
            if ctx.mode == ConverterMode.EDC_QAC:
                p_k = e_k * i_dc_vec[ctx.dc_node]
                s_pos_target[c] = (p_k - p_loss_pos - p_filt_pos) + 1j * (q_pos + q_loss_pos)
            elif ctx.mode == ConverterMode.PAC_QAC:
                s_pos_target[c] = (p_pos + p_loss_pos) + 1j * (q_pos + q_loss_pos)
                p_ref = p_pos + (p_neg if ctx.with_negative else 0.0)
                p_dc_target[c] = p_ref + p_loss_pos + p_cond_neg + p_filt_pos + p_filt_neg
            else:  # PAC_VAC
                p_k = e_k * i_dc_vec[ctx.dc_node]
                s_pos_target[c] = (p_k - p_loss_pos - p_filt_pos) + 0j
                p_dc_target[c] = p_pos + p_loss_pos + p_filt_pos

    def dc_step():
        p_free[pac_free] = p_dc_target[pac]
        rhs = p_free / e_dc[dc_free] - y_dc_held @ e_dc[model.edc_node]
        e_dc[dc_free] = solve_dc(rhs)

    def ac_step():
        i_full = y_ac @ e_full
        e_conv, i_conv = e_full[conv_full], i_full[conv_full]
        e_pos = e_conv @ W_POS
        s = np.concatenate([s_load, s_pos_target])
        s.imag[ctl] = q_ctl
        # current-division form of E-: contracts at the small-E- branch the
        # Newton path also selects (the admittance form repels there)
        e_neg = np.zeros(n_conv, dtype=complex)
        e_neg[neg] = e_conv[neg] @ W_NEG
        i_neg = i_conv[neg] @ W_NEG
        flowing = np.abs(i_neg) > 1e-12
        e_neg[neg[flowing]] = s_neg_target[neg[flowing]] / (3.0 * np.conj(i_neg[flowing]))
        inj = np.conj(s / np.concatenate([e_full[load_full], 3.0 * e_pos]))
        held = e_full.copy()
        held[load_full] = 0.0
        held[conv_full] = e_neg[:, None] * V_NEG
        u = solve_ac(inj - project @ (y_ac @ held))
        # one first-order Q step toward the setpoints, then hold them
        mag = np.abs(u[ctl])
        q_ctl[:] += gain @ (ctl_mag - mag)
        u[ctl] *= ctl_mag / mag
        e_full[:] = held + lift @ u

    def current_state():
        return StateVector.from_full(model, e_full, e_dc)

    sweeps, best, best_round = 0, np.inf, 0
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
        if worst < best:
            best, best_round = worst, sweeps // 2
        elif sweeps // 2 - best_round >= STALL_ROUNDS:
            raise FixedPointError(
                f"fixed-point iteration stalled: no new residual minimum in {STALL_ROUNDS} "
                f"rounds (best {best:.3e} at round {best_round}; residual {worst:.3e} at "
                f"row {res.worst()} after {sweeps} sweeps)"
            )
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
