"""Independent verification backends for the Newton solver.

``fixed_point_solve`` reaches the same fixed point as the NR solver through a
completely different route: successive substitution over the nodal equations,
with the AC and DC grids solved separately and linked through the converter
power balances in an outer loop (the classic sequential architecture).  Each
grid is solved by implicit Z-bus Gauss steps (Chen et al., "Distribution
system power flow analysis -- a rigid approach", IEEE TPWRD 1991): its reduced
admittance matrix is factored once per compiled structure, and every round
solves it for the current injections of the present state.  ``fd_jacobian``
provides derivative ground truth by central differences.

This module must not import the Newton solver or its analytic Jacobian; the
whole point is an independent second route for tests and the ``verify`` CLI
command.  The routes share the equations, not the method: both start at
residuals.flat_start, and the residual evaluator is the convergence check.  The
operating point it builds there supplies the next round's voltages, Y E and
the converter powers and losses of the coupling targets, so this module
computes no loss of its own (the tests check the operating point's losses
against the loss model directly).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import HybridPfError, finite_number
from .network import PHASES, ConverterMode
from .residuals import StateVector, as_model, assemble_residuals, flat_start
from .sequence import V_NEG, V_POS, W_NEG, W_POS

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
        return splu(sp.csc_matrix(a)).solve
    except RuntimeError as exc:
        names = row_names()
        empty = [names[i] for i in np.flatnonzero(abs(a).max(axis=1).toarray().ravel() == 0)]
        where = f" (empty rows: {', '.join(empty)})" if empty else ""
        raise FixedPointError(f"reduced admittance matrix is singular{where}: {exc}") from exc


@dataclass(eq=False)
class _Operators:
    """What fixed_point_solve needs of a PfStructure and no setpoint: built on
    the structure's first call (_operators) and kept in its ``fixed_point``
    slot; every array in it is read-only."""

    neg: np.ndarray              # converters with a negative sequence
    vac: np.ndarray              # pac_vac converters
    pac: np.ndarray              # pac_qac and pac_vac converters
    # AC unknowns: each PQ and PV phase node, then E+ of each converter bus
    project: sp.csr_matrix       # AC nodes -> unknowns: E of a node, W_POS . E of a bus
    project_y: sp.csr_matrix     # project @ Y_ac
    solve_ac: object             # solve of the reduced AC matrix project @ Y_ac @ lift
    ctl: np.ndarray              # voltage-controlled unknowns: PV nodes, then pac_vac E+
    ctl_weight: np.ndarray       # their Q weights s
    z_ctl: np.ndarray            # Z[ctl, ctl], Z the inverse of the reduced AC matrix
    # DC unknowns: every node but the V nodes and edc_qac terminals
    dc_free: np.ndarray
    solve_dc: object             # solve of Y_dc[dc_free, dc_free]
    y_dc_held: sp.csr_matrix     # Y_dc[dc_free, edc_node]
    pdc_free: np.ndarray         # position in dc_free of each plain P node
    pac_free: np.ndarray         # position in dc_free of each pac_* terminal

    def __post_init__(self):
        for value in vars(self).values():
            for array in ((value.data, value.indices, value.indptr) if sp.issparse(value)
                          else (value,)):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False


def _operators(model) -> _Operators:
    """The fixed-point operators of model's structure, built on first use.

    They are stored only once complete, so a singular matrix raises on every call.
    """
    ops = model.structure.fixed_point
    if ops is not None:
        return ops
    n_p, n_conv = model.p_rows.size, len(model.conv_mode)
    vac = np.flatnonzero([mode == ConverterMode.PAC_VAC for mode in model.conv_mode])
    pac = np.flatnonzero([mode != ConverterMode.EDC_QAC for mode in model.conv_mode])

    unk = np.concatenate([np.arange(n_p), np.repeat(n_p + np.arange(n_conv), 3)])
    node = np.concatenate([model.p_full, model.conv_ac.ravel()])
    shape = (n_p + n_conv, model.n_ac_nodes)
    lift = sp.csr_matrix((np.concatenate([np.ones(n_p), np.tile(V_POS, n_conv)]),
                          (node, unk)), shape=shape[::-1])
    project = sp.csr_matrix((np.concatenate([np.ones(n_p), np.tile(W_POS, n_conv)]),
                             (unk, node)), shape=shape)
    project_y = project @ model.adm.y_ac
    solve_ac = _factor(project_y @ lift, lambda: [
        f"{model.ac_bus_ids[n // 3]}:{PHASES[n % 3]}" for n in model.p_full.tolist()
    ] + list(model.case.converters.id))
    ctl = np.concatenate([model.v_rows - n_p, n_p + vac])
    # the columns of Z at the controlled unknowns, one solve each
    z_ctl = np.zeros((ctl.size, ctl.size), dtype=complex)
    unit = np.zeros(n_p + n_conv, dtype=complex)
    for j, k in enumerate(ctl):
        unit[k] = 1.0
        z_ctl[:, j] = solve_ac(unit)[ctl]
        unit[k] = 0.0

    dc_free = np.setdiff1d(np.arange(model.n_dc), model.edc_node)
    y_dc_free = model.adm.y_dc[dc_free]
    solve_dc = _factor(y_dc_free[:, dc_free], lambda: [model.dc_bus_ids[j] for j in dc_free])
    ops = model.structure.fixed_point = _Operators(
        neg=np.flatnonzero(model.conv_neg), vac=vac, pac=pac,
        project=project, project_y=project_y, solve_ac=solve_ac, ctl=ctl,
        ctl_weight=np.concatenate([np.ones(model.v_rows.size), np.full(vac.size, 3.0)]),
        z_ctl=z_ctl, dc_free=dc_free, solve_dc=solve_dc,
        y_dc_held=y_dc_free[:, model.edc_node],
        pdc_free=np.searchsorted(dc_free, model.pdc_node),
        pac_free=np.searchsorted(dc_free, model.conv_dc[pac]))
    return ops


def fixed_point_solve(case, tol=1e-10, max_sweeps=20000):
    """Solve the hybrid power flow by successive substitution, grid by grid.

    The iteration starts at flat_start, where it evaluates the residual once.
    Each outer round reads the converter coupling targets (P_k, the losses) from
    the operating point of the last residual evaluation (ResidualVector.op),
    makes one DC solve and one AC solve from that evaluation's voltages and
    Y E, and checks the residual of the new state.  A sweep is one solve, so a
    round costs two sweeps.  Both solves are implicit Z-bus Gauss steps: the
    reduced admittance matrix of each grid is factored once per compiled
    structure (_operators, so cases that differ only in setpoints share the
    factors), and each step solves it for the current injections of the
    present state.

    PV phase nodes and the E+ of pac_vac converters are voltage-controlled
    unknowns of the AC solve: each injects with its own Q estimate, which starts
    at the flat start.  After each solve one first-order step moves their
    magnitudes m toward the setpoints V, dQ = G (V - m), and each is rescaled
    to V.  G inverts the sensitivities d|u_k|/dQ_j = Im(Z_kj exp(i(th_j -
    th_k))) / (s_j V_j), taken once per call at the flat-start angles th, with
    Z the inverse of the reduced AC matrix (its block at these unknowns is
    solved once per structure) and s = 1 for a PV node and 3 for an E+.  For
    one node this is the Z-bus correction Q += s V (V - m) / Im(Z_kk) (Chen
    et al.).

    Returns a StateVector whose residual infinity norm is <= tol.  Raises
    FixedPointError when max_sweeps is not an integer of at least 1 or tol not a
    finite number above 0, when a reduced admittance matrix (naming its empty
    rows, if any) or the sensitivity matrix of the voltage-controlled unknowns is
    singular, when a residual is not finite, when the sweeps run out, or when the
    residual has made no new minimum in STALL_ROUNDS rounds; the last three name
    the worst residual row.
    """
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, numbers.Integral):
        raise FixedPointError(f"max_sweeps must be an integer, not {max_sweeps!r}")
    if max_sweeps < 1:
        raise FixedPointError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if isinstance(tol, numbers.Real) and not isinstance(tol, bool) and not tol > 0:  # NaN too
        raise FixedPointError(f"tol must be > 0, got {tol}")
    finite_number(tol, "tol", FixedPointError)
    model = as_model(case)
    ops = _operators(model)
    conv_full, neg, ctl = model.conv_ac, ops.neg, ops.ctl
    n_p, load_full, n_conv = model.p_rows.size, model.p_full, len(model.conv_mode)
    x = flat_start(model)
    res = assemble_residuals(model, x)

    s_load = model.p_set.astype(complex)
    s_load.imag[model.q_rows - n_p] = model.q_set
    # the lagged coupling targets of each converter, refreshed every outer round
    s_pos_target, s_neg_target = np.zeros((2, n_conv), dtype=complex)
    p_dc_target = np.zeros(n_conv)

    # the voltage-controlled unknowns' magnitude setpoints V and Q at the flat start
    ctl_mag = np.concatenate([np.sqrt(model.v_set_sq), model.conv_set[ops.vac, 5]])
    e_unk, i_unk = ops.project @ res.op.e_full, ops.project @ res.op.i_full
    q_ctl = ops.ctl_weight * (e_unk[ctl] * np.conj(i_unk[ctl])).imag
    # the sensitivities d|u_k|/dQ_j of the docstring
    turn = np.exp(1j * np.angle(e_unk[ctl]))
    sens = (ops.z_ctl * turn / turn[:, None]).imag
    try:
        gain = np.linalg.inv(sens / (ops.ctl_weight * ctl_mag))
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(f"Q-V sensitivity of the controlled nodes: {exc}") from exc

    p_free = np.zeros(ops.dc_free.size)
    p_free[ops.pdc_free] = model.pdc_set
    i_held_dc = ops.y_dc_held @ x.e_dc[model.edc_node]

    def refresh_couplings(op):
        for c, (mode, wn, cop, (_, q_pos, p_pos, p_neg, q_neg, _)) in enumerate(
                zip(model.conv_mode, model.conv_neg, op.conv, model.conv_set.tolist())):
            p_loss_pos, q_loss_pos = cop.s_loss_pos.real, cop.s_loss_pos.imag
            if wn:
                s_neg_target[c] = (p_neg + cop.p_cond_neg) + 1j * q_neg
            if mode == ConverterMode.EDC_QAC:
                s_pos_target[c] = ((cop.p_k - p_loss_pos - cop.p_filt_pos)
                                   + 1j * (q_pos + q_loss_pos))
            elif mode == ConverterMode.PAC_QAC:
                s_pos_target[c] = (p_pos + p_loss_pos) + 1j * (q_pos + q_loss_pos)
                p_ref = p_pos + (p_neg if wn else 0.0)
                p_dc_target[c] = p_ref + p_loss_pos + cop.p_cond_neg + cop.p_filter_total
            else:  # PAC_VAC
                s_pos_target[c] = (cop.p_k - p_loss_pos - cop.p_filt_pos) + 0j
                p_dc_target[c] = p_pos + p_loss_pos + cop.p_filt_pos

    def dc_step(e_dc):
        p_free[ops.pac_free] = p_dc_target[ops.pac]
        e_dc[ops.dc_free] = ops.solve_dc(p_free / e_dc[ops.dc_free] - i_held_dc)

    def ac_step(e_full, i_full):
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
        # the voltages held within the solve (slack nodes, E0 = 0 and E-) alone,
        # then the unknowns scattered in
        e_full[load_full] = 0.0
        e_full[conv_full] = e_neg[:, None] * V_NEG
        u = ops.solve_ac(inj - ops.project_y @ e_full)
        # one first-order Q step toward the setpoints, then hold them
        mag = np.abs(u[ctl])
        q_ctl[:] += gain @ (ctl_mag - mag)
        u[ctl] *= ctl_mag / mag
        e_full[load_full] = u[:n_p]
        e_full[conv_full] += u[n_p:, None] * V_POS

    sweeps, best, best_round = 0, np.inf, 0
    # a residual that is not finite is reported below, so the overflow on the
    # way there is not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            refresh_couplings(res.op)
            # a round overwrites the checked state's voltages in place; from_full
            # copies them into the next state
            dc_step(x.e_dc)
            ac_step(res.op.e_full, res.op.i_full)
            sweeps += 2
            x = StateVector.from_full(model, res.op.e_full, x.e_dc)
            res = assemble_residuals(model, x)
            worst = res.max_abs()
            if worst <= tol:
                return x
            if not np.isfinite(worst):
                raise FixedPointError(f"fixed-point residual is not finite after {sweeps} sweeps "
                                      f"({worst} at row {res.worst()})")
            if sweeps >= max_sweeps:
                raise FixedPointError(
                    f"fixed-point iteration above tolerance after {sweeps} sweeps "
                    f"(residual {worst:.3e} at row {res.worst()})"
                )
            if worst < best:
                best, best_round = worst, sweeps // 2
            elif sweeps // 2 - best_round >= STALL_ROUNDS:
                raise FixedPointError(
                    f"fixed-point iteration stalled: no new residual minimum in {STALL_ROUNDS} "
                    f"rounds (best {best:.3e} at round {best_round}; residual {worst:.3e} at "
                    f"row {res.worst()} after {sweeps} sweeps)"
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

