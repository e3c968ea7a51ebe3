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
from .sequence import FORTESCUE, W_NEG, W_POS, W_ZERO

# below this current magnitude the |I| derivative is treated as zero (kink guard)
CURRENT_EPS = 1e-12

# positions of E0, E+, E- (Re, Im each), I+, I- (Re, Im each), E_k and I_k in a
# converter's 12 rows of PfModel.conv_map
Q_E0, Q_EPOS, Q_ENEG, Q_IPOS, Q_INEG, Q_EK, Q_IK = 0, 2, 4, 6, 8, 10, 11

# the conv_map rows each converter row kind depends on, in ascending order; the
# key order is the order of a converter's rows in the Jacobian's converter terms
CONV_ROW_DEPS = {
    "p": (Q_EPOS, Q_EPOS + 1, Q_IPOS, Q_IPOS + 1),    # and E_k, I_k: conv_row_deps
    "q": (Q_EPOS, Q_EPOS + 1, Q_IPOS, Q_IPOS + 1),
    "vmag": (Q_EPOS, Q_EPOS + 1),
    "p_neg": (Q_ENEG, Q_ENEG + 1, Q_INEG, Q_INEG + 1),
    "q_neg": (Q_ENEG, Q_ENEG + 1, Q_INEG, Q_INEG + 1),
    "e0_re": (Q_E0,),
    "e0_im": (Q_E0 + 1,),
    "eneg_re": (Q_ENEG,),
    "eneg_im": (Q_ENEG + 1,),
    "p_dc": (Q_IPOS, Q_IPOS + 1, Q_INEG, Q_INEG + 1, Q_EK, Q_IK),
}


def conv_row_deps(ctx: "ConverterContext") -> list:
    """(row kind, conv_map rows it depends on) for each Jacobian row of one
    converter, in the order of the pattern's converter terms.

    The P+ row depends on E_k through the switching loss, and on E_k and I_k
    through P_k = E_k I_k where it is the coupled balance (edc_qac, pac_vac).
    """
    if ctx.conv.mode != ConverterMode.PAC_QAC:
        p_deps = (Q_EK, Q_IK)
    elif ctx.conv.loss.switching_factor != 0.0:
        p_deps = (Q_EK,)
    else:
        p_deps = ()
    return [(kind, deps + p_deps if kind == "p" else deps)
            for kind, deps in CONV_ROW_DEPS.items() if kind in ctx.rows]


@dataclass(frozen=True, slots=True)
class RowLabel:
    """Provenance of one residual row: equation kind, owning element, phase/sequence.

    Slotted: a compiled model holds one per row, and compiled models are cached.
    """

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
    rows: dict = field(default_factory=dict)   # row kind -> residual row index

    @property
    def with_negative(self) -> bool:
        return self.conv.sequence_policy == SequencePolicy.WITH_NEGATIVE


@dataclass(eq=False)
class JacobianPattern:
    """The CSC pattern of J, compiled once per model, and the slot of every term.

    A slot is a position in J's data array.  Each ``*_slot`` array (int32, as
    are all index arrays here) lists the slots of one term group in the order
    in which assemble_jacobian computes the group's values; the ``(2, n)`` slot
    arrays of the AC groups hold the E' column in row 0 and the E'' column in
    row 1.
    """

    indptr: np.ndarray
    indices: np.ndarray
    ac_k: np.ndarray            # Y_ac entry of each AC cross term: P rows, then Q rows
    n_p_terms: int              # how many of them lie in P rows
    ac_slot: np.ndarray         # (2, ac_k.size)
    own_slot: np.ndarray        # (2, P + Q + V rows): own-current and magnitude terms
    edc_slot: np.ndarray        # unit entries of the E_dc setpoint rows
    dc_k: np.ndarray            # Y_dc entry of each cross term of a plain DC P row
    dc_slot: np.ndarray
    dc_own_slot: np.ndarray     # own-current term of each plain DC P row
    conv_gk: np.ndarray         # dF/dq entry 12 g + k of each converter term
    conv_m: np.ndarray          # conv_map entry of each converter term
    conv_slot: np.ndarray       # slot of each converter term, repeated where terms add up


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
    conv_pos: dict               # converter id -> position in conv_ctx
    conv_map: sp.csr_matrix      # dq/dx of the converter terminal quantities (_converter_map)
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
    jac: JacobianPattern = field(init=False, repr=False)   # _jacobian_pattern

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

    def ac_at(self, full: np.ndarray) -> np.ndarray:
        """Complex AC voltages at the given full (bus, phase) indices."""
        out = self.model.slack_voltage[full]
        pos = self.model.col_of_full[full]
        unk = pos >= 0
        out[unk] = self.e[pos[unk]] + 1j * self.f[pos[unk]]
        return out

    def ac_voltage(self, bus_id: str) -> np.ndarray:
        i = self.model.case.ac_pos[bus_id]
        return self.ac_at(np.arange(3 * i, 3 * i + 3))

    def dc_voltage(self, bus_id: str) -> float:
        return float(self.e_dc[self.model.case.dc_pos[bus_id]])


@dataclass(frozen=True)
class ResidualVector:
    """Mismatch values y* - F(x) with one provenance label per entry.

    ``op`` is the operating point the values were evaluated at, for callers
    that need more of it at the same state (the Jacobian, the solve summary).
    """

    values: np.ndarray
    labels: tuple
    op: OperatingPoint | None = field(default=None, repr=False, compare=False)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def worst(self) -> RowLabel:
        return self.labels[int(np.argmax(np.abs(self.values)))]

    def by_label(self) -> dict:
        """Row values keyed by label text, such as ``"P:B2:a"`` or ``"Edc:VSC1:D1"``."""
        return {lab.text(): float(v) for lab, v in zip(self.labels, self.values)}


def _expand_rows(indptr: np.ndarray, rows: np.ndarray):
    """The entries of the given rows of a CSR structure, row after row.

    Returns, per entry, the position of its row in ``rows`` and its index into
    the row-major entry arrays (``indices``, ``data``).
    """
    first = indptr[rows]
    lens = indptr[rows + 1] - first
    which = np.repeat(np.arange(rows.size, dtype=np.int32), lens)
    k = (first - (np.cumsum(lens) - lens))[which] + np.arange(which.size)
    return which, k.astype(np.int32)


def _converter_map(ctxs, adm: CompoundAdmittance, col_of_full, n, n_x) -> sp.csr_matrix:
    """Sparse dq/dx of the quantities the converter rows are functions of.

    Converter c owns rows 12c .. 12c+11: Re and Im of E0, E+, E-, I+ and I- at
    its AC terminal, then E_k and I_k = (Y_dc E_dc)_k at its DC terminal.  All
    are linear in x; the slack phasors only add constants, which drop out.
    ``n`` is the number of non-slack AC nodes, the width of the E' and E'' blocks.
    """
    n_conv = len(ctxs)
    ac = np.array([c.ac_full for c in ctxs], dtype=int).reshape(n_conv, 3)
    dc = np.array([c.dc_node for c in ctxs], dtype=int)
    # complex coefficients: E_t = sum_p FORTESCUE[t, p] E_p (t = 0, 1, 2), and
    # I+, I- the same sums over the terminal rows of Y_ac E
    conv_e, seq_e, ph_e = np.indices((n_conv, 3, 3)).reshape(3, -1)
    y_row, y_k = _expand_rows(adm.y_ac.indptr, ac.ravel())
    conv_i, ph_i = np.divmod(np.tile(y_row, 2), 3)
    seq_i = np.repeat([1, 2], y_k.size)
    seq, ph = np.concatenate([seq_e, seq_i]), np.concatenate([ph_e, ph_i])
    y_val = np.tile(adm.y_ac.data[y_k], 2)
    val = FORTESCUE[seq, ph] * np.concatenate([np.ones(seq_e.size), y_val])
    col = col_of_full[np.concatenate([ac[conv_e, ph_e], np.tile(adm.y_ac.indices[y_k], 2)])]
    row = 12 * np.concatenate([conv_e, conv_i]) + 2 * np.concatenate([seq_e, seq_i + 2])
    unk = col >= 0
    row, col, val = row[unk], col[unk], val[unk]
    dc_row, dc_k = _expand_rows(adm.y_dc.indptr, dc)
    rows = [row, row, row + 1, row + 1, 12 * np.arange(n_conv) + 10, 12 * dc_row + 11]
    cols = [col, col + n, col, col + n, 2 * n + dc, 2 * n + adm.y_dc.indices[dc_k]]
    vals = [val.real, -val.imag, val.imag, val.real, np.ones(n_conv), adm.y_dc.data[dc_k]]
    dq_dx = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(12 * n_conv, n_x),
    )
    # exact zeros, such as Im W_ZERO, would only widen the Jacobian's pattern
    dq_dx.eliminate_zeros()
    return dq_dx


def _jacobian_pattern(m: PfModel) -> JacobianPattern:
    """Compile J's sparsity pattern and the slot of every term assemble_jacobian fills.

    The pattern is laid out row by row first: the P or Q row of an AC node
    takes the node's Y_ac entries in unknown columns (E' block, then E''
    block), a plain DC P row its node's Y_dc row, and a converter row the
    union of the conv_map rows it depends on (conv_row_deps).  A transpose
    then gives the CSC layout, carrying each row-wise position to its slot.
    Nothing here depends on a state value.
    """
    i32 = np.int32
    n, n_x, off = m.n_unknown, m.n_x, 2 * m.n_unknown
    y, y_dc, cmap = m.adm.y_ac, m.adm.y_dc, m.conv_map
    row_len = np.zeros(n_x, dtype=i32)

    # AC P and Q rows: the Y_ac entries in unknown columns, row by row (kept_ptr)
    ac_col = m.col_of_full[y.indices]
    kept = np.flatnonzero(ac_col >= 0).astype(i32)
    kept_ptr = np.searchsorted(kept, y.indptr).astype(i32)
    ac_rows = np.concatenate([m.p_rows, m.q_rows])
    ac_nodes = np.concatenate([m.p_full, m.q_full])
    ac_which, ac_kk = _expand_rows(kept_ptr, ac_nodes)
    ac_k = kept[ac_kk]
    ac_len = kept_ptr[ac_nodes + 1] - kept_ptr[ac_nodes]
    row_len[ac_rows] = 2 * ac_len
    row_len[m.v_rows] = 2
    row_len[m.edc_rows] = 1
    dc_which, dc_k = _expand_rows(y_dc.indptr, m.pdc_node)
    row_len[m.pdc_rows] = y_dc.indptr[m.pdc_node + 1] - y_dc.indptr[m.pdc_node]

    # converter rows: terms (g, k, conv_map entry) for row g of dF/dq and each
    # quantity k it depends on; g counts the converter rows in conv_row_deps order
    g_row, pair_g, pair_k, pair_q = [], [], [], []
    for c, ctx in enumerate(m.conv_ctx):
        for kind, deps in conv_row_deps(ctx):
            pair_g += [len(g_row)] * len(deps)
            pair_k += deps
            pair_q += [12 * c + k for k in deps]
            g_row.append(ctx.rows[kind])
    pair, conv_m = _expand_rows(cmap.indptr, np.array(pair_q, dtype=i32))
    conv_gk = (12 * np.array(pair_g, dtype=i32) + np.array(pair_k, dtype=i32))[pair]
    term_g = np.array(pair_g, dtype=i32)[pair]
    # one J entry per distinct (row g, column), sorted; terms of one entry add up
    entry, conv_entry = np.unique(term_g.astype(np.int64) * n_x + cmap.indices[conv_m],
                                  return_inverse=True)
    entry_g, entry_col = (a.astype(i32) for a in np.divmod(entry, n_x))
    g_count = np.bincount(entry_g, minlength=len(g_row)).astype(i32)
    g_row = np.array(g_row, dtype=i32)
    row_len[g_row] = g_count

    # row-wise positions and columns of every group
    indptr = np.zeros(n_x + 1, dtype=i32)
    np.cumsum(row_len, out=indptr[1:])
    cols = np.empty(indptr[-1], dtype=i32)
    ac_e = indptr[ac_rows][ac_which] + ac_kk - kept_ptr[ac_nodes][ac_which]
    ac_pos = np.stack([ac_e, ac_e + ac_len[ac_which]])
    cols[ac_pos[0]] = ac_col[ac_k]
    cols[ac_pos[1]] = ac_col[ac_k] + n
    v_pos = indptr[m.v_rows] + np.array([[0], [1]], dtype=i32)
    cols[v_pos[0]] = m.col_of_full[m.v_full]
    cols[v_pos[1]] = m.col_of_full[m.v_full] + n
    edc_pos = indptr[m.edc_rows]
    cols[edc_pos] = off + m.edc_node
    dc_pos = indptr[m.pdc_rows][dc_which] + dc_k - y_dc.indptr[m.pdc_node][dc_which]
    cols[dc_pos] = off + y_dc.indices[dc_k]
    entry_first = indptr[g_row] - (np.cumsum(g_count) - g_count)
    entry_pos = entry_first[entry_g] + np.arange(entry.size)
    cols[entry_pos] = entry_col
    # own-current terms sit on the admittance diagonal of their node's row
    own_pos = ac_pos[:, y.indices[ac_k] == ac_nodes[ac_which]]
    dc_own_pos = dc_pos[y_dc.indices[dc_k] == m.pdc_node[dc_which]]
    if own_pos.shape[1] != ac_rows.size or dc_own_pos.size != m.pdc_rows.size:
        raise HybridPfError("internal consistency error: a power row has no admittance diagonal")

    # transpose to CSC, carrying every row-wise position along to its slot
    csc = sp.csr_matrix((np.arange(cols.size, dtype=i32), cols, indptr), shape=(n_x, n_x)).tocsc()
    slot = np.empty(cols.size, dtype=i32)
    slot[csc.data] = np.arange(cols.size, dtype=i32)
    return JacobianPattern(
        indptr=csc.indptr.astype(i32, copy=False),
        indices=csc.indices.astype(i32, copy=False),
        ac_k=ac_k,
        n_p_terms=int(ac_len[: m.p_rows.size].sum()),
        ac_slot=slot[ac_pos],
        own_slot=slot[np.concatenate([own_pos, v_pos], axis=1)],
        edc_slot=slot[edc_pos],
        dc_k=dc_k,
        dc_slot=slot[dc_pos],
        dc_own_slot=slot[dc_own_pos],
        conv_gk=conv_gk,
        conv_m=conv_m,
        conv_slot=slot[entry_pos][conv_entry],
    )


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
    conv_pos = {c.id: pos for pos, c in enumerate(case.converters)}

    labels: list[RowLabel] = []
    p_rows, p_full, p_set = [], [], []
    q_rows, q_full, q_set = [], [], []
    v_rows, v_full, v_set_sq = [], [], []
    edc_rows, edc_node, edc_set = [], [], []
    pdc_rows, pdc_node, pdc_set = [], [], []

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

    # block 2: reactive power rows (PQ) and magnitude rows (PV)
    for i, bus in enumerate(case.ac_buses):
        if bus.kind == AcBusKind.PQ:
            for p, ph in enumerate(PHASES):
                r = add(RowLabel("Q", bus.id, ph))
                q_rows.append(r)
                q_full.append(3 * i + p)
                q_set.append(bus.q_set[p])
        elif bus.kind == AcBusKind.PV:
            for p, ph in enumerate(PHASES):
                r = add(RowLabel("V", bus.id, ph))
                v_rows.append(r)
                v_full.append(3 * i + p)
                v_set_sq.append(bus.v_set[p] ** 2)

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
        need_neg = conv.sequence_policy == SequencePolicy.WITH_NEGATIVE
        ctx = ConverterContext(conv=conv, ac_full=ac_full, dc_node=case.dc_pos[conv.dc_bus])
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
                ctxs[conv_pos[conv.id]].rows["p_dc"] = add(RowLabel("Pdc", conv.id, bus.id))

    if len(labels) != n_x:
        raise HybridPfError(
            f"internal consistency error: {len(labels)} residual rows for {n_x} unknowns"
        )

    def arr(v, dt=float):
        return np.array(v, dtype=dt)

    model = PfModel(
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
        conv_pos=conv_pos,
        conv_map=_converter_map(ctxs, adm, col_of_full, n_unknown, n_x),
        p_rows=arr(p_rows, int), p_full=arr(p_full, int), p_set=arr(p_set),
        q_rows=arr(q_rows, int), q_full=arr(q_full, int), q_set=arr(q_set),
        v_rows=arr(v_rows, int), v_full=arr(v_full, int), v_set_sq=arr(v_set_sq),
        edc_rows=arr(edc_rows, int), edc_node=arr(edc_node, int), edc_set=arr(edc_set),
        pdc_rows=arr(pdc_rows, int), pdc_node=arr(pdc_node, int), pdc_set=arr(pdc_set),
    )
    model.jac = _jacobian_pattern(model)
    return model


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
    return ResidualVector(values=values, labels=model.labels, op=op)


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
    discriminant).  Reads only the converter's three Y_ac rows and its Y_dc
    row, so its cost follows the degree of the two terminals.
    """
    model = as_model(case)
    if conv_id not in model.conv_pos:
        raise HybridPfError(f"feasible_dc_root: no converter with id {conv_id!r}")
    ctx = model.conv_ctx[model.conv_pos[conv_id]]
    y = model.adm.y_ac
    lo, hi = y.indptr[ctx.ac_full[0]], y.indptr[ctx.ac_full[-1] + 1]
    phase = np.repeat(np.arange(3), np.diff(y.indptr[ctx.ac_full[0] : ctx.ac_full[-1] + 2]))
    i_pos = W_POS[phase] @ (y.data[lo:hi] * x.ac_at(y.indices[lo:hi]))
    s_pos = 3.0 * (W_POS @ x.ac_at(ctx.ac_full)) * np.conj(i_pos)
    k = ctx.dc_node
    lo, hi = model.adm.y_dc.indptr[k : k + 2]
    cols, vals = model.adm.y_dc.indices[lo:hi], model.adm.y_dc.data[lo:hi]
    y_kk = float(vals[cols == k].sum())
    b = float(vals[cols != k] @ x.e_dc[cols[cols != k]])  # sum over m != k of Y_km E_m
    try:
        return feasible_root_from_coeffs(y_kk, b, float(s_pos.real))
    except InfeasibleError as exc:
        raise InfeasibleError(f"converter {conv_id}: {exc}") from exc
