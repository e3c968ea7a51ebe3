"""Independent, slow verification backends for the Newton solver.

``fixed_point_solve`` reaches the same fixed point as the NR solver through a
completely different route: Gauss-Seidel successive substitution over the
nodal equations, with the AC and DC grids solved separately and linked
through the converter power balances in an outer loop (the classic sequential
architecture).  ``fd_jacobian`` provides derivative ground truth by central
differences, and ``quadratic_root_scan`` brackets polynomial roots by
bisection.

This module must not import the Newton solver or its analytic Jacobian; the
whole point is an independent second route for tests and the ``verify`` CLI
command.  The residual evaluator is used only as the convergence check.
"""

from __future__ import annotations

import numpy as np

from .errors import HybridPfError
from .losses import converter_losses, filter_losses
from .network import AcBusKind, ConverterMode, DcBusKind
from .residuals import StateVector, as_model, assemble_residuals
from .sequence import V_NEG, V_POS, W_NEG, W_POS

_NEG_SEED = 1e-3


class FixedPointError(HybridPfError):
    """The fixed-point iteration did not reach the tolerance."""


def _csr_row(y, r):
    lo, hi = y.indptr[r], y.indptr[r + 1]
    return y.indices[lo:hi], y.data[lo:hi]


def fixed_point_solve(case, tol=1e-10, max_sweeps=20000, ac_sweeps=4, dc_sweeps=4):
    """Solve the hybrid power flow by damped successive substitution.

    Returns a StateVector whose residual infinity norm is <= tol.  Small and
    medium cases only; complexity and robustness are traded for independence
    from the Newton machinery.  Raises FixedPointError when max_sweeps outer
    rounds are exhausted.
    """
    model = as_model(case)
    case = model.case
    y_ac = model.adm.y_ac
    y_dc = model.adm.y_dc

    e_full = model.slack_voltage.copy()
    nominal = np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])
    for i, bus in enumerate(case.ac_buses):
        if bus.kind != AcBusKind.SLACK:
            e_full[3 * i : 3 * i + 3] = nominal
    e_dc = np.ones(model.n_dc)

    conv_at_ac = {c.ac_bus: c for c in case.converters}
    conv_at_dc = {c.dc_bus: c for c in case.converters}

    # per-converter lagged coupling targets, refreshed every outer round
    s_pos_target = {c.id: 0j for c in case.converters}
    s_neg_target = {c.id: 0j for c in case.converters}
    p_dc_target = {c.id: 0.0 for c in case.converters}

    for c in case.converters:
        if c.mode == ConverterMode.EDC_QAC:
            e_dc[case.dc_pos[c.dc_bus]] = c.e_dc_set
        if c.sequence_policy.value == "with_negative":
            i = case.ac_pos[c.ac_bus]
            e_full[3 * i : 3 * i + 3] += V_NEG * _NEG_SEED

    # own-node sequence self-admittances w . Y_own . v per converter bus
    own_pos_adm = {}
    own_neg_adm = {}
    for c in case.converters:
        i = case.ac_pos[c.ac_bus]
        block = y_ac[3 * i : 3 * i + 3, 3 * i : 3 * i + 3].toarray()
        own_pos_adm[c.id] = complex(W_POS @ block @ V_POS)
        own_neg_adm[c.id] = complex(W_NEG @ block @ V_NEG)

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

    def dc_sweep():
        for j, bus in enumerate(case.dc_buses):
            if bus.kind == DcBusKind.V:
                e_dc[j] = bus.e_set
                continue
            if bus.kind == DcBusKind.CONVERTER:
                conv = conv_at_dc[bus.id]
                if conv.mode == ConverterMode.EDC_QAC:
                    e_dc[j] = conv.e_dc_set
                    continue
                p_target = p_dc_target[conv.id]
            else:
                p_target = bus.p_set
            cols, vals = _csr_row(y_dc, j)
            diag = vals[cols == j][0]
            ext = float(vals @ e_dc[cols]) - diag * e_dc[j]
            e_dc[j] = (p_target / e_dc[j] - ext) / diag

    def ac_sweep():
        for i, bus in enumerate(case.ac_buses):
            if bus.kind == AcBusKind.SLACK:
                continue
            if bus.kind == AcBusKind.CONVERTER:
                conv = conv_at_ac[bus.id]
                rows = range(3 * i, 3 * i + 3)
                il = np.array([_dot_row(r) for r in rows])
                el = e_full[3 * i : 3 * i + 3]
                e_pos = complex(W_POS @ el)
                e_neg = complex(W_NEG @ el)
                i_pos_full = complex(W_POS @ il)
                ext_pos = i_pos_full - own_pos_adm[conv.id] * e_pos
                if conv.mode == ConverterMode.PAC_VAC:
                    q_now = (3.0 * e_pos * np.conj(i_pos_full)).imag
                    s_target = complex(s_pos_target[conv.id].real, q_now)
                    e_new = (np.conj(s_target / (3.0 * e_pos)) - ext_pos) / own_pos_adm[conv.id]
                    e_pos = e_new * conv.v_mag_set / abs(e_new)
                else:
                    s_target = s_pos_target[conv.id]
                    e_pos = (np.conj(s_target / (3.0 * e_pos)) - ext_pos) / own_pos_adm[conv.id]
                if conv.sequence_policy.value == "with_negative":
                    # current-division form: contracts at the small-E- branch the
                    # Newton path also selects (the admittance form repels there)
                    i_neg_full = complex(W_NEG @ il)
                    sn = s_neg_target[conv.id]
                    if abs(i_neg_full) > 1e-12:
                        e_neg = sn / (3.0 * np.conj(i_neg_full))
                else:
                    e_neg = 0j
                e_full[3 * i : 3 * i + 3] = V_POS * e_pos + V_NEG * e_neg
                continue
            for p in range(3):
                r = 3 * i + p
                cols, vals = _csr_row(y_ac, r)
                diag = vals[cols == r][0]
                i_row = complex(vals @ e_full[cols])
                ext = i_row - diag * e_full[r]
                if bus.kind == AcBusKind.PQ:
                    s = complex(bus.p_set[p], bus.q_set[p])
                    e_full[r] = (np.conj(s / e_full[r]) - ext) / diag
                else:  # PV: hold P and the magnitude, let Q float
                    q_now = (e_full[r] * np.conj(i_row)).imag
                    s = complex(bus.p_set[p], q_now)
                    e_new = (np.conj(s / e_full[r]) - ext) / diag
                    e_full[r] = e_new * bus.v_set[p] / abs(e_new)

    def _dot_row(r):
        cols, vals = _csr_row(y_ac, r)
        return complex(vals @ e_full[cols])

    def current_state():
        unk = e_full[model.unknown_full]
        return StateVector(e=unk.real.copy(), f=unk.imag.copy(),
                           e_dc=e_dc.copy(), model=model)

    sweeps = 0
    while sweeps < max_sweeps:
        refresh_couplings()
        for _ in range(dc_sweeps):
            dc_sweep()
        for _ in range(ac_sweeps):
            ac_sweep()
        sweeps += ac_sweeps + dc_sweeps
        res = assemble_residuals(model, current_state())
        if res.max_abs() <= tol:
            return current_state()
    raise FixedPointError(
        f"fixed-point iteration above tolerance after {max_sweeps} sweeps "
        f"(residual {res.max_abs():.3e})"
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
