"""Mismatch equations F(x) and the residual vector y* - F(x) for the NR loop.

State vector layout (rectangular coordinates):

    x = [ E' of every non-slack (bus, phase) | E'' of the same | E_dc of every DC bus ]

Slack phases are eliminated; their fixed phasors enter the equations as
constants.  Residual rows are stacked in fixed blocks mirroring the Jacobian
layout used by the solver:

    P_ac | Q_ac (PV magnitude rows in place of Q) | E_dc setpoints |
    converter sequence-power rows (P+, Q+ / magnitude, P-, Q-) |
    converter sequence constraints (E0', E-', E0'', E-'') | P_dc

Converter balances use three-phase sequence powers S = 3 E_seq conj(I_seq)
so that per-phase, sequence and DC powers share one per-unit base, and the
active power balance per converter reads

    edc_qac / pac_vac:  P_dc = P+ + P+_loss + P+_filter      (coupled row)
    pac_qac:            P+ - P+_loss = P+*  on the AC side and
                        P_dc = P* + P_loss + P_filter         on the DC side

with converter power positive when flowing AC -> DC.  Conversion losses are
evaluated from the positive-sequence current; under the with_negative policy
the negative-sequence conduction and filter losses are charged to the
negative-sequence balance as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import HybridPfError, InfeasibleError, TopologyError
from .network import (
    AcBusKind,
    CompoundAdmittance,
    Converter,
    ConverterMode,
    DcBusKind,
    NetworkCase,
    PHASES,
    SequencePolicy,
    compound_admittance,
    validate_topology,
)
from .sequence import W_NEG, W_POS, W_ZERO

# below this current magnitude the |I| derivative is treated as zero (kink guard)
CURRENT_EPS = 1e-12


@dataclass(frozen=True)
class RowLabel:
    """Provenance of one residual row: equation kind, owning element, phase/sequence."""

    kind: str
    subject: str
    detail: str = ""

    def text(self) -> str:
        return f"{self.kind}:{self.subject}" + (f":{self.detail}" if self.detail else "")

    def __str__(self):
        return self.text()


@dataclass(eq=False)
class ConverterContext:
    """Precomputed indexing for one converter's residual and Jacobian rows."""

    conv: Converter
    ac_full: np.ndarray          # full (bus,phase) indices of the AC terminal
    dc_node: int                 # DC index of the DC terminal
    g_pos_idx: np.ndarray        # columns of w+ . Y_ac[l rows]
    g_pos_val: np.ndarray
    g_neg_idx: np.ndarray | None
    g_neg_val: np.ndarray | None
    rows: dict = field(default_factory=dict)   # row kind -> residual row index

    @property
    def with_negative(self) -> bool:
        return self.conv.sequence_policy == SequencePolicy.WITH_NEGATIVE


@dataclass(eq=False)
class PfModel:
    """A NetworkCase compiled for evaluation: admittances, index maps, row plan."""

    case: NetworkCase
    adm: CompoundAdmittance
    ac_bus_ids: tuple
    dc_bus_ids: tuple
    n_ac_nodes: int              # 3 * number of AC buses
    unknown_full: np.ndarray     # full indices of non-slack (bus, phase) nodes
    col_of_full: np.ndarray      # full index -> position in e-block, -1 for slack
    slack_voltage: np.ndarray    # (3N,) fixed phasors at slack entries, 0 elsewhere
    n_unknown: int
    n_dc: int
    n_x: int
    labels: tuple
    conv_ctx: tuple
    # vectorized row groups: (row indices, full/node indices, setpoints)
    p_rows: np.ndarray
    p_full: np.ndarray
    p_set: np.ndarray
    q_rows: np.ndarray
    q_full: np.ndarray
    q_set: np.ndarray
    v_rows: np.ndarray
    v_full: np.ndarray
    v_set_sq: np.ndarray
    edc_rows: np.ndarray
    edc_node: np.ndarray
    edc_set: np.ndarray
    pdc_rows: np.ndarray
    pdc_node: np.ndarray
    pdc_set: np.ndarray
    # reverse maps for Jacobian assembly (full AC index -> residual row or -1)
    row_p_of_full: np.ndarray
    row_q_of_full: np.ndarray
    row_v_of_full: np.ndarray

    def x_labels(self) -> list:
        """Column labels of the state vector, matching the Jacobian columns."""
        out = []
        for mark in ("E'", "E''"):
            for full in self.unknown_full:
                bus = self.ac_bus_ids[full // 3]
                out.append(f"{mark}:{bus}:{PHASES[full % 3]}")
        out += [f"Edc:{b}" for b in self.dc_bus_ids]
        return out


@dataclass(eq=False)
class StateVector:
    """NR unknowns: rectangular AC phase voltages plus DC voltages."""

    e: np.ndarray
    f: np.ndarray
    e_dc: np.ndarray
    model: PfModel

    def copy(self) -> "StateVector":
        return StateVector(self.e.copy(), self.f.copy(), self.e_dc.copy(), self.model)

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.e, self.f, self.e_dc])

    @classmethod
    def from_array(cls, model: PfModel, x: np.ndarray) -> "StateVector":
        n = model.n_unknown
        return cls(x[:n].copy(), x[n : 2 * n].copy(), x[2 * n :].copy(), model)

    def full_ac(self) -> np.ndarray:
        """Complete (3N,) complex AC voltage vector including slack phases."""
        e_full = self.model.slack_voltage.copy()
        e_full[self.model.unknown_full] = self.e + 1j * self.f
        return e_full

    def ac_voltage(self, bus_id: str) -> np.ndarray:
        i = self.model.case.ac_pos[bus_id]
        return self.full_ac()[3 * i : 3 * i + 3]

    def dc_voltage(self, bus_id: str) -> float:
        return float(self.e_dc[self.model.case.dc_pos[bus_id]])


@dataclass(frozen=True)
class ResidualVector:
    """Mismatch values y* - F(x) with one provenance label per entry."""

    values: np.ndarray
    labels: tuple

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def worst(self) -> RowLabel:
        return self.labels[int(np.argmax(np.abs(self.values)))]

    def by_label(self) -> dict:
        """Row values keyed by label text, such as ``"P:B2:a"`` or ``"Edc:VSC1:D1"``."""
        return {lab.text(): float(v) for lab, v in zip(self.labels, self.values)}


def _sparse_row_combo(y_csr: sp.csr_matrix, rows: np.ndarray, weights: np.ndarray):
    """Column indices and values of weights @ Y[rows, :] as dense-free arrays."""
    combo = sp.csr_matrix(weights.reshape(1, 3)) @ y_csr[rows, :]
    combo.sum_duplicates()
    return combo.indices.copy(), combo.data.copy()


@lru_cache(maxsize=64)
def compile_case(case: NetworkCase) -> PfModel:
    """Index a validated case for residual/Jacobian evaluation.

    Raises TopologyError when validate_topology reports problems.
    """
    diags = validate_topology(case)
    if diags:
        raise TopologyError("; ".join(str(d) for d in diags))
    adm = compound_admittance(case)
    ac_bus_ids = tuple(b.id for b in case.ac_buses)
    dc_bus_ids = tuple(b.id for b in case.dc_buses)
    n_ac_nodes = 3 * len(ac_bus_ids)
    n_dc = len(dc_bus_ids)

    slack_voltage = np.zeros(n_ac_nodes, dtype=complex)
    unknown = []
    for i, bus in enumerate(case.ac_buses):
        if bus.kind == AcBusKind.SLACK:
            slack_voltage[3 * i : 3 * i + 3] = bus.slack_phasors()
        else:
            unknown.extend(range(3 * i, 3 * i + 3))
    unknown_full = np.array(unknown, dtype=int)
    col_of_full = np.full(n_ac_nodes, -1, dtype=int)
    col_of_full[unknown_full] = np.arange(unknown_full.size)
    n_unknown = unknown_full.size
    n_x = 2 * n_unknown + n_dc

    conv_by_dc = {c.dc_bus: c for c in case.converters}

    labels: list[RowLabel] = []
    p_rows, p_full, p_set = [], [], []
    q_rows, q_full, q_set = [], [], []
    v_rows, v_full, v_set_sq = [], [], []
    edc_rows, edc_node, edc_set = [], [], []
    pdc_rows, pdc_node, pdc_set = [], [], []

    row_p_of_full = np.full(n_ac_nodes, -1, dtype=int)
    row_q_of_full = np.full(n_ac_nodes, -1, dtype=int)
    row_v_of_full = np.full(n_ac_nodes, -1, dtype=int)

    def add(label: RowLabel) -> int:
        labels.append(label)
        return len(labels) - 1

    # block 1: active power rows of PQ and PV buses, per phase
    for i, bus in enumerate(case.ac_buses):
        if bus.kind in (AcBusKind.PQ, AcBusKind.PV):
            for p, ph in enumerate(PHASES):
                r = add(RowLabel("P", bus.id, ph))
                p_rows.append(r)
                p_full.append(3 * i + p)
                p_set.append(bus.p_set[p])
                row_p_of_full[3 * i + p] = r

    # block 2: reactive power rows (PQ) and magnitude rows (PV)
    for i, bus in enumerate(case.ac_buses):
        if bus.kind == AcBusKind.PQ:
            for p, ph in enumerate(PHASES):
                r = add(RowLabel("Q", bus.id, ph))
                q_rows.append(r)
                q_full.append(3 * i + p)
                q_set.append(bus.q_set[p])
                row_q_of_full[3 * i + p] = r
        elif bus.kind == AcBusKind.PV:
            for p, ph in enumerate(PHASES):
                r = add(RowLabel("V", bus.id, ph))
                v_rows.append(r)
                v_full.append(3 * i + p)
                v_set_sq.append(bus.v_set[p] ** 2)
                row_v_of_full[3 * i + p] = r

    # block 3: DC voltage setpoint rows (V nodes and edc_qac converter terminals)
    edc_row_of_conv = {}
    for j, bus in enumerate(case.dc_buses):
        if bus.kind == DcBusKind.V:
            r = add(RowLabel("Edc", bus.id))
            edc_rows.append(r)
            edc_node.append(j)
            edc_set.append(bus.e_set)
        elif bus.kind == DcBusKind.CONVERTER:
            conv = conv_by_dc[bus.id]
            if conv.mode == ConverterMode.EDC_QAC:
                r = add(RowLabel("Edc", conv.id, bus.id))
                edc_rows.append(r)
                edc_node.append(j)
                edc_set.append(conv.e_dc_set)
                edc_row_of_conv[conv.id] = r

    # block 4: converter sequence-power rows
    ctxs: list[ConverterContext] = []
    for conv in case.converters:
        i = case.ac_pos[conv.ac_bus]
        ac_full = np.array([3 * i, 3 * i + 1, 3 * i + 2], dtype=int)
        g_pos_idx, g_pos_val = _sparse_row_combo(adm.y_ac, ac_full, W_POS)
        need_neg = conv.sequence_policy == SequencePolicy.WITH_NEGATIVE
        g_neg_idx, g_neg_val = (
            _sparse_row_combo(adm.y_ac, ac_full, W_NEG) if need_neg else (None, None)
        )
        ctx = ConverterContext(
            conv=conv,
            ac_full=ac_full,
            dc_node=case.dc_pos[conv.dc_bus],
            g_pos_idx=g_pos_idx,
            g_pos_val=g_pos_val,
            g_neg_idx=g_neg_idx,
            g_neg_val=g_neg_val,
        )
        ctx.rows["p"] = add(RowLabel("P+", conv.id))
        if conv.mode == ConverterMode.PAC_VAC:
            ctx.rows["vmag"] = add(RowLabel("V+", conv.id))
        else:
            ctx.rows["q"] = add(RowLabel("Q+", conv.id))
        if need_neg:
            ctx.rows["p_neg"] = add(RowLabel("P-", conv.id))
            ctx.rows["q_neg"] = add(RowLabel("Q-", conv.id))
        if conv.id in edc_row_of_conv:
            ctx.rows["e_dc"] = edc_row_of_conv[conv.id]
        ctxs.append(ctx)

    # block 5: sequence constraint rows (E0 always; E- unless with_negative)
    for ctx in ctxs:
        ctx.rows["e0_re"] = add(RowLabel("E0'", ctx.conv.id))
        if not ctx.with_negative:
            ctx.rows["eneg_re"] = add(RowLabel("E-'", ctx.conv.id))
        ctx.rows["e0_im"] = add(RowLabel("E0''", ctx.conv.id))
        if not ctx.with_negative:
            ctx.rows["eneg_im"] = add(RowLabel("E-''", ctx.conv.id))

    # block 6: DC power rows (plain P nodes and pac_* converter terminals)
    for j, bus in enumerate(case.dc_buses):
        if bus.kind == DcBusKind.P:
            r = add(RowLabel("Pdc", bus.id))
            pdc_rows.append(r)
            pdc_node.append(j)
            pdc_set.append(bus.p_set)
        elif bus.kind == DcBusKind.CONVERTER:
            conv = conv_by_dc[bus.id]
            if conv.mode in (ConverterMode.PAC_QAC, ConverterMode.PAC_VAC):
                ctx = next(c for c in ctxs if c.conv.id == conv.id)
                ctx.rows["p_dc"] = add(RowLabel("Pdc", conv.id, bus.id))

    if len(labels) != n_x:
        raise HybridPfError(
            f"internal consistency error: {len(labels)} residual rows for {n_x} unknowns"
        )

    def arr(v, dt=float):
        return np.array(v, dtype=dt)

    return PfModel(
        case=case,
        adm=adm,
        ac_bus_ids=ac_bus_ids,
        dc_bus_ids=dc_bus_ids,
        n_ac_nodes=n_ac_nodes,
        unknown_full=unknown_full,
        col_of_full=col_of_full,
        slack_voltage=slack_voltage,
        n_unknown=n_unknown,
        n_dc=n_dc,
        n_x=n_x,
        labels=tuple(labels),
        conv_ctx=tuple(ctxs),
        p_rows=arr(p_rows, int), p_full=arr(p_full, int), p_set=arr(p_set),
        q_rows=arr(q_rows, int), q_full=arr(q_full, int), q_set=arr(q_set),
        v_rows=arr(v_rows, int), v_full=arr(v_full, int), v_set_sq=arr(v_set_sq),
        edc_rows=arr(edc_rows, int), edc_node=arr(edc_node, int), edc_set=arr(edc_set),
        pdc_rows=arr(pdc_rows, int), pdc_node=arr(pdc_node, int), pdc_set=arr(pdc_set),
        row_p_of_full=row_p_of_full,
        row_q_of_full=row_q_of_full,
        row_v_of_full=row_v_of_full,
    )


def as_model(case) -> PfModel:
    return case if isinstance(case, PfModel) else compile_case(case)


@dataclass(eq=False)
class ConverterOp:
    """Sequence-domain operating quantities of one converter at a state x."""

    e_zero: complex
    e_pos: complex
    e_neg: complex
    i_pos: complex
    i_neg: complex
    s_pos: complex               # 3 E+ conj(I+)
    s_neg: complex
    e_k: float
    p_k: float                   # DC-side nodal injection E_k (Y_dc E)_k
    r_now: float                 # R_eq(|I+|)
    e_c: complex
    i_sw: float
    s_loss_pos: complex          # E_c conj(I+) + I_sw E_k
    p_filt_pos: float
    p_cond_neg: float
    p_filt_neg: float

    @property
    def p_loss_pos(self) -> float:
        return self.s_loss_pos.real

    @property
    def q_loss_pos(self) -> float:
        return self.s_loss_pos.imag

    @property
    def p_loss_total(self) -> float:
        return self.s_loss_pos.real + self.p_cond_neg

    @property
    def p_filter_total(self) -> float:
        return self.p_filt_pos + self.p_filt_neg


@dataclass(eq=False)
class OperatingPoint:
    """Network-wide quantities shared by residual and Jacobian evaluation."""

    e_full: np.ndarray
    i_full: np.ndarray
    s_full: np.ndarray
    i_dc: np.ndarray
    p_dc_nodal: np.ndarray
    conv: list


def operating_point(model: PfModel, x: StateVector) -> OperatingPoint:
    e_full = x.full_ac()
    i_full = model.adm.y_ac @ e_full if model.n_ac_nodes else np.zeros(0, dtype=complex)
    s_full = e_full * np.conj(i_full)
    i_dc = model.adm.y_dc @ x.e_dc if model.n_dc else np.zeros(0)
    p_dc_nodal = x.e_dc * i_dc

    conv_ops = []
    for ctx in model.conv_ctx:
        el = e_full[ctx.ac_full]
        il = i_full[ctx.ac_full]
        e_zero = complex(W_ZERO @ el)
        e_pos = complex(W_POS @ el)
        e_neg = complex(W_NEG @ el)
        i_pos = complex(W_POS @ il)
        s_pos = 3.0 * e_pos * i_pos.conjugate()
        params = ctx.conv.loss
        s_mag = abs(i_pos)
        r_now = params.r_eq(s_mag)
        e_c = r_now * i_pos
        i_sw = params.switching_factor * s_mag
        e_k = float(x.e_dc[ctx.dc_node])
        s_loss_pos = e_c * i_pos.conjugate() + i_sw * e_k
        p_filt_pos = ctx.conv.filter_z.real * s_mag**2
        if ctx.with_negative:
            i_neg = complex(W_NEG @ il)
            s_neg = 3.0 * e_neg * i_neg.conjugate()
            sn = abs(i_neg)
            p_cond_neg = params.r_eq(sn) * sn**2
            p_filt_neg = ctx.conv.filter_z.real * sn**2
        else:
            i_neg = 0j
            s_neg = 0j
            p_cond_neg = 0.0
            p_filt_neg = 0.0
        conv_ops.append(
            ConverterOp(
                e_zero=e_zero, e_pos=e_pos, e_neg=e_neg,
                i_pos=i_pos, i_neg=i_neg,
                s_pos=s_pos, s_neg=s_neg,
                e_k=e_k, p_k=float(p_dc_nodal[ctx.dc_node]),
                r_now=r_now, e_c=e_c, i_sw=i_sw,
                s_loss_pos=s_loss_pos,
                p_filt_pos=p_filt_pos,
                p_cond_neg=p_cond_neg, p_filt_neg=p_filt_neg,
            )
        )
    return OperatingPoint(
        e_full=e_full, i_full=i_full, s_full=s_full, i_dc=i_dc,
        p_dc_nodal=p_dc_nodal, conv=conv_ops,
    )


def assemble_residuals(case, x: StateVector) -> ResidualVector:
    """Evaluate the full mismatch vector y* - F(x) in the documented block order."""
    model = as_model(case)
    op = operating_point(model, x)
    values = np.zeros(model.n_x)

    if model.p_rows.size:
        values[model.p_rows] = model.p_set - op.s_full[model.p_full].real
    if model.q_rows.size:
        values[model.q_rows] = model.q_set - op.s_full[model.q_full].imag
    if model.v_rows.size:
        values[model.v_rows] = model.v_set_sq - np.abs(op.e_full[model.v_full]) ** 2
    if model.edc_rows.size:
        values[model.edc_rows] = model.edc_set - x.e_dc[model.edc_node]
    if model.pdc_rows.size:
        values[model.pdc_rows] = model.pdc_set - op.p_dc_nodal[model.pdc_node]

    for ctx, cop in zip(model.conv_ctx, op.conv):
        conv = ctx.conv
        if conv.mode == ConverterMode.PAC_QAC:
            values[ctx.rows["p"]] = conv.p_pos_set - (cop.s_pos.real - cop.p_loss_pos)
            values[ctx.rows["q"]] = conv.q_pos_set - (cop.s_pos.imag - cop.q_loss_pos)
        elif conv.mode == ConverterMode.EDC_QAC:
            values[ctx.rows["p"]] = (
                cop.p_k - cop.s_pos.real - cop.p_loss_pos - cop.p_filt_pos
            )
            values[ctx.rows["q"]] = conv.q_pos_set - (cop.s_pos.imag - cop.q_loss_pos)
        else:  # PAC_VAC: coupled balance row plus magnitude row
            values[ctx.rows["p"]] = (
                cop.p_k - cop.s_pos.real - cop.p_loss_pos - cop.p_filt_pos
            )
            values[ctx.rows["vmag"]] = conv.v_mag_set**2 - abs(cop.e_pos) ** 2
        if ctx.with_negative:
            values[ctx.rows["p_neg"]] = conv.p_neg - (cop.s_neg.real - cop.p_cond_neg)
            values[ctx.rows["q_neg"]] = conv.q_neg - cop.s_neg.imag
        values[ctx.rows["e0_re"]] = -cop.e_zero.real
        values[ctx.rows["e0_im"]] = -cop.e_zero.imag
        if not ctx.with_negative:
            values[ctx.rows["eneg_re"]] = -cop.e_neg.real
            values[ctx.rows["eneg_im"]] = -cop.e_neg.imag
        if "p_dc" in ctx.rows:
            p_ref = conv.p_pos_set + (conv.p_neg if ctx.with_negative else 0.0)
            values[ctx.rows["p_dc"]] = cop.p_k - (
                p_ref + cop.p_loss_total + cop.p_filter_total
            )
    return ResidualVector(values=values, labels=model.labels)


def feasible_root_from_coeffs(y_kk: float, b: float, p_pos: float) -> float:
    """Root of y_kk E^2 + b E - p_pos = 0 nearer to 1 p.u. (stable evaluation)."""
    if y_kk <= 0:
        raise HybridPfError("feasible_dc_root requires Y_dc[k,k] > 0")
    disc = b * b + 4.0 * y_kk * p_pos
    if disc < 0:
        raise InfeasibleError(
            f"quadratic DC balance has no real root (discriminant {disc:.3g} < 0)"
        )
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b if b != 0 else 1.0))
    r1 = q / y_kk
    r2 = (-p_pos) / q if q != 0 else 0.0
    return r1 if abs(r1 - 1.0) <= abs(r2 - 1.0) else r2


def feasible_dc_root(case, conv_id: str, x) -> float:
    """DC voltage solving the converter's quadratic power balance at state x.

    Used for initialisation and feasibility diagnostics only; the NR residual
    keeps the explicit balance form.  Raises InfeasibleError when the
    requested AC power exceeds the DC transfer capability (negative
    discriminant).
    """
    model = as_model(case)
    pos, ctx = next((i, c) for i, c in enumerate(model.conv_ctx) if c.conv.id == conv_id)
    op = operating_point(model, x)
    cop = op.conv[pos]
    k = ctx.dc_node
    y_kk = float(model.adm.y_dc[k, k])
    b = float(op.i_dc[k] - y_kk * x.e_dc[k])  # sum over m != k of Y_km E_m
    try:
        return feasible_root_from_coeffs(y_kk, b, cop.s_pos.real)
    except InfeasibleError as exc:
        raise InfeasibleError(f"converter {conv_id}: {exc}") from exc
