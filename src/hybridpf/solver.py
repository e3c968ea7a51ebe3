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
dF/dq[k] * conv_map[k, col], which add up where they share an entry.  No
explicit inverse is formed.  A J of at most DENSE_LU_MAX_STATES states (every
bundled case) is factored by dense LAPACK LU with partial pivoting (getrf) and
solved by getrs: at these sizes a SuperLU factor is mostly fixed set-up cost.
A larger J is factored by SuperLU with COLAMD ordering, partial pivoting and a
panel size of 1 (LU_PANEL_SIZE).  A dense factor that is singular, or a dense
step that is not finite, is taken again by SuperLU, so every failure is raised
by the one sparse path.  Convergence is declared on the infinity norm of the
mismatch vector.  The solve has one Jacobian, the analytic one; its check
against central finite differences of the residuals (verify.fd_jacobian) is a
test, not a mode.

What no setpoint changes is kept on the structure, so a warm solve pays only
for its iterates:

* The flat start (no ``init``): its state, the operating point there and J0's
  factor depend only on the structure, the slack phasors, the DC voltage
  setpoints and the seeded E- of each with_negative converter (negative_seed,
  which the loads move).  PfStructure.flat_start keeps the latest as one
  FlatStart record (plain read-only arrays, no model) under a key of the bytes
  of the slack entries of ``slack_voltage``, of ``edc_set`` and of the seeds (48
  bytes per slack bus, 8 per DC setpoint row and 16 per with_negative
  converter).  A solve whose key matches evaluates its first residual
  at the kept state and operating point, takes its first step with the kept
  factor, and neither assembles nor factors J0, with the same bits.
* One J matrix on the compiled pattern (PfStructure.jacobians, a free list of
  at most one).  A solve takes it out with one ``pop`` (a new matrix when the
  list is empty, as when another solve holds it), overwrites its data at each
  iteration (assemble_jacobian's ``out``) and puts it back when it returns or
  raises, so no two running solves write the same matrix.

A solve reports through one IterationRecord per iterate and nothing else:
Solution.trace, ``residual_history`` and ``diagnostics`` are formatted from the
records on first access, and a SolverError raised inside the loop carries the
records made before it.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import SolverError, finite_number
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

# SuperLU's panel size (its default is 10 columns).  J is circuit-like, with LU
# fill about 1.5 and tiny supernodes, so wider panels only add work-array
# traffic (Davis & Palamadai Natarajan, "KLU", ACM TOMS 2010).
LU_PANEL_SIZE = 1

# The largest J factored by dense LAPACK LU; a larger one goes to SuperLU.  At
# 4-21 states getrf plus getrs take 3-7 us against SuperLU's 24-33 us, at 110
# (microgrid26) 72-74 against 85-93 us, at 124 (radial30) 97 against 82 us and
# at 544 (radial100) 3.4 ms against 0.29 ms.  The cut lies between 110 and 124.
DENSE_LU_MAX_STATES = 120
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)

# the step scales a solve tries in turn: the first whose residual is no worse
# is taken, else the last
STEP_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625)


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
        tol, cap = self.tolerance, self.max_iterations
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:   # NaN too
            raise SolverError("tolerance must be a number > 0")
        finite_number(tol, "tolerance", SolverError)
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise SolverError("max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class SolveTimings:
    """Cumulative wall-clock seconds per NR stage (the iterative loop only)."""

    residual_s: float = 0.0
    jacobian_s: float = 0.0
    linear_s: float = 0.0
    total_s: float = 0.0


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One iterate of a solve.  ``iteration`` 0 is the start, whose ``scale`` is
    None; after that ``scale`` is the accepted step scale.  ``max_mismatch`` is
    the residual's infinity norm and ``worst_row`` the row where it is reached
    (None for a model with no rows, whose mismatch line names none)."""

    iteration: int
    scale: float | None
    max_mismatch: float
    worst_row: int | None

    def lines(self, labels) -> list:
        """The iterate's trace lines: one per step scale tried below 1 (each
        halving), then its mismatch line; ``labels`` are the model's row labels."""
        mismatch = f"max_mismatch={self.max_mismatch:.6e}"
        if self.worst_row is not None:
            mismatch += f" worst={labels[self.worst_row]}"
        if self.scale is None:
            return [f"init {mismatch}"]
        return ([f"iter={self.iteration} step-halving scale={s:g}"
                 for s in STEP_SCALES[1:] if s >= self.scale]
                + [f"iter={self.iteration} {mismatch}"])


@dataclass(eq=False)
class Solution:
    """The final state of a solve and how it got there.  ``records`` holds one
    IterationRecord per iterate, from the start; the trace, the residual
    history, the iteration count, the final mismatch and the diagnostics are
    read from them.  ``op`` is the operating point at ``x_final`` that the
    solve's last residual evaluation built.  Every result is derived from it on
    first access and kept: the voltages, slack injections and converter results
    directly, and the branch flows and sequence voltages from its voltages and
    the branch data."""

    converged: bool
    x_final: StateVector
    records: tuple
    timings: SolveTimings
    op: OperatingPoint

    @property
    def n_states(self) -> int:
        return self.x_final.model.n_x

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    @property
    def final_mismatch(self) -> float:
        return self.records[-1].max_mismatch

    @cached_property
    def residual_history(self) -> tuple:    # the max mismatch after each iteration
        return tuple(rec.max_mismatch for rec in self.records[1:])

    @cached_property
    def trace(self) -> tuple:               # the start line, then each iteration's lines
        labels = self.x_final.model.labels
        return tuple(line for rec in self.records for line in rec.lines(labels))

    @cached_property
    def diagnostics(self) -> str | None:    # why the solve stopped unconverged, else None
        if self.converged:
            return None
        last = self.records[-1]     # an unconverged solve made all max_iterations
        return (f"did not converge within {last.iteration} iterations; final max mismatch "
                f"{last.max_mismatch:.3e} at {self.x_final.model.labels[last.worst_row]}")

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
    """Solve J dx = dy by LU factorization (no explicit inverse): dense LAPACK LU
    for a J of at most DENSE_LU_MAX_STATES states, else SuperLU.  A dense factor
    that is singular, or a dense dx that is not finite, is taken again by
    SuperLU, which raises the SolverError.  ``labels``, the labels of J's columns
    (or a callable giving them, called only on failure), name the state at fault
    in it (_state_at_fault).  ``keep``, when given, is called with the factor (a
    DenseLU or a SuperLU object) once dx is finite."""
    J = jacobian if sp.issparse(jacobian) and jacobian.format == "csc" else sp.csc_matrix(jacobian)
    dy = np.asarray(mismatch, dtype=float)
    if J.shape[0] <= DENSE_LU_MAX_STATES:
        lu, piv, info = _GETRF(J.toarray(), overwrite_a=True)     # toarray of CSC is Fortran-ordered
        if info == 0:
            dx = _GETRS(lu, piv, dy)[0]
            if np.isfinite(dx).all():
                if keep is not None:
                    keep(DenseLU(lu, piv))
                return dx
    try:
        lu = sla.splu(J, panel_size=LU_PANEL_SIZE)
        dx = lu.solve(dy)
    except RuntimeError as exc:
        raise SolverError(
            f"singular Jacobian: {exc}", iteration=iteration,
            state_label=_state_at_fault(J, None, labels),
        ) from exc
    if not np.all(np.isfinite(dx)):
        raise SolverError(
            "linear solve produced non-finite values", iteration=iteration,
            state_label=_state_at_fault(J, dx, labels),
        )
    if keep is not None:
        keep(lu)
    return dx


class DenseLU:
    """A dense LU factor of J as LAPACK getrf leaves it: L and U in one matrix
    and the row pivots, both marked read-only, solved through SuperLU's
    ``solve``.  scipy's getrs shifts the pivots it is given to LAPACK's 1-based
    form and back in place, whatever their flags say, so ``solve`` hands it a
    copy: two threads solving with one kept factor would corrupt each other's
    pivots."""

    __slots__ = ("lu", "piv")

    def __init__(self, lu: np.ndarray, piv: np.ndarray):
        lu.flags.writeable = piv.flags.writeable = False
        self.lu, self.piv = lu, piv

    def solve(self, rhs) -> np.ndarray:
        return _GETRS(self.lu, self.piv.copy(), rhs)[0]


@dataclass(frozen=True)
class FlatStart:
    """A structure's flat start under ``key`` (the slack phasors, the DC
    voltage setpoints and the negative-sequence seeds, which fix all of it):
    the state's ``e``, ``f`` and ``e_dc``, the operating point ``op`` there, and
    the factor ``lu`` of J0 (a DenseLU or a SuperLU object, as nr_step made
    it).  Kept in PfStructure.flat_start.  Plain arrays, all made read-only: a
    StateVector would refer back to its model, and through it to the case."""

    key: bytes
    e: np.ndarray
    f: np.ndarray
    e_dc: np.ndarray
    op: OperatingPoint
    lu: object

    def __post_init__(self):
        for array in (self.e, self.f, self.e_dc, *vars(self.op).values()):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


def _state_at_fault(J, dx, labels):
    """The label of the state a failed solve names: the first non-finite entry of
    ``dx``; or, for a singular J (no dx), the first column that a maximum matching
    of J's nonzero entries leaves unmatched, so that no pivot order can reach it.
    None when every column is matched (J is singular by its values alone)."""
    if labels is None:
        return None
    if dx is not None:
        k = np.flatnonzero(~np.isfinite(dx))[0]
    else:
        nonzero = J.copy()
        nonzero.eliminate_zeros()
        unmatched = np.flatnonzero(maximum_bipartite_matching(nonzero.tocsr(), perm_type="row") < 0)
        if not unmatched.size:
            return None
        k = unmatched[0]
    return str((labels() if callable(labels) else labels)[k])


def _check_finite(res, iteration: int) -> None:
    """SolverError naming the first row whose residual is NaN or infinite; the
    rows are scanned only when the residual's norm is not finite."""
    if not math.isfinite(res.max_abs()):
        label = str(res.labels[int(np.flatnonzero(~np.isfinite(res.values))[0])])
        raise SolverError(f"residual is not finite at {label}", iteration=iteration,
                          row_label=label)


def solve(case, options: SolverOptions | None = None) -> Solution:
    """Run the NR loop until max |y* - F(x)| < tolerance.

    Returns a Solution in all non-exceptional outcomes; ``converged`` is False
    when the iteration cap was reached, and ``diagnostics`` then says so.
    Raises SolverError on a singular Jacobian or a residual that is not finite;
    one raised after the start's record carries the records made before it
    (SolverError.records).  The start is checked in this order: its residual (a
    SolverError at iteration 0), then at that residual's operating point the
    quadratic DC balance of each edc_qac converter (feasible_dc_root:
    InfeasibleError where it has no real root), then its record is made.
    """
    model = as_model(case)
    opts = options or SolverOptions()
    t_start = time.perf_counter()
    t_res = t_jac = t_lin = 0.0
    structure, flat_key, kept, op = model.structure, None, None, None

    if opts.init is not None:
        x0 = opts.init.to_array()
        if x0.size != model.n_x:
            raise SolverError("provided initial state does not match the case dimensions")
        bad = np.flatnonzero(~np.isfinite(x0))
        if bad.size:
            raise SolverError(f"initial state is not finite at {model.x_labels()[bad[0]]}")
        x = StateVector.from_array(model, x0)
    else:
        # the key of the flat start the structure keeps
        flat_key = model.slack_voltage[model.col_of_full < 0].tobytes() + model.edc_set.tobytes()
        if any(model.conv_neg):
            flat_key += model.neg_seed.tobytes()
        kept = structure.flat_start
        if kept is not None and kept.key == flat_key:
            x, op = StateVector(kept.e, kept.f, kept.e_dc, model), kept.op
        else:
            kept, x = None, flat_start(model)

    def keep_flat(lu) -> None:      # called by nr_step at iteration 1: x and res are the start's
        structure.flat_start = FlatStart(flat_key, x.e, x.f, x.e_dc, res.op, lu)

    t0 = time.perf_counter()
    res = assemble_residuals(model, x, op)
    t_res += time.perf_counter() - t0
    _check_finite(res, 0)
    # each edc_qac converter's quadratic DC balance at the start (InfeasibleError)
    for conv_id, mode in zip(model.case.converters.id, model.conv_mode):
        if mode == ConverterMode.EDC_QAC:
            feasible_dc_root(model, conv_id, res.op)
    records = [IterationRecord(0, None, res.max_abs(), res.worst_row())]

    try:
        jac = structure.jacobians.pop()     # this solve's alone until it returns
    except IndexError:
        jac = None
    converged = model.n_x == 0      # with no unknowns the start is the solution
    try:
        for it in range(1, 1 if converged else opts.max_iterations + 1):
            t0 = time.perf_counter()
            # J0^-1 r0 by the kept factor; a step that is not finite is taken
            # again by nr_step, which names the state at fault
            dx = kept.lu.solve(res.values) if it == 1 and kept is not None else None
            if dx is None or not np.isfinite(dx).all():
                jac = assemble_jacobian(model, x, res.op, out=jac)
                t_jac += time.perf_counter() - t0
                t0 = time.perf_counter()
                dx = nr_step(jac, res.values, labels=model.x_labels, iteration=it,
                             keep=keep_flat if it == 1 and flat_key is not None else None)
            t_lin += time.perf_counter() - t0

            # the first step scale whose residual is no worse (NaN is worse), else the last
            x_arr = x.to_array()
            for scale in STEP_SCALES:
                x_new = StateVector.from_array(model, x_arr + scale * dx)
                t0 = time.perf_counter()
                res_new = assemble_residuals(model, x_new)
                t_res += time.perf_counter() - t0
                if res_new.max_abs() <= res.max_abs():
                    break

            _check_finite(res_new, it)
            x, res = x_new, res_new
            records.append(IterationRecord(it, scale, res.max_abs(), res.worst_row()))
            if res.max_abs() < opts.tolerance:
                converged = True
                break
    except SolverError as exc:
        exc.records = tuple(records)
        raise
    finally:    # J goes back after an error too: its data is overwritten when next used
        if jac is not None:
            structure.jacobians[:] = (jac,)

    timings = SolveTimings(residual_s=t_res, jacobian_s=t_jac, linear_s=t_lin,
                           total_s=time.perf_counter() - t_start)
    return Solution(converged=converged, x_final=x, records=tuple(records), timings=timings,
                    op=res.op)
