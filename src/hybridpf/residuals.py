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

import hashlib
import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import HybridPfError, InfeasibleError, TopologyError
from .network import (
    AcBusKind,
    CompoundAdmittance,
    ConverterMode,
    DcBusKind,
    NetworkCase,
    PHASES,
    SequencePolicy,
    compound_admittance,
    slack_phasors,
    validate_topology,
)
from .sequence import FORTESCUE, V_NEG, W_NEG

# below this current magnitude the |I| derivative is treated as zero (kink guard)
CURRENT_EPS = 1e-12

# positions of E0, E+, E- (Re, Im each), I+, I- (Re, Im each), E_k and I_k in a
# converter's 12 rows of PfModel.conv_map
Q_E0, Q_EPOS, Q_ENEG, Q_IPOS, Q_INEG, Q_EK, Q_IK = 0, 2, 4, 6, 8, 10, 11

# the conv_map rows each converter row kind depends on, in ascending order; the
# key order is the column order of PfStructure.conv_rows
CONV_ROW_DEPS = {
    "p": (Q_EPOS, Q_EPOS + 1, Q_IPOS, Q_IPOS + 1),    # and E_k, I_k: _jacobian_pattern
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

# the RowLabel kind of each converter row kind; the Edc and Pdc rows of a
# converter's DC terminal take the DC bus id as their detail
CONV_ROW_LABEL = {"p": "P+", "q": "Q+", "vmag": "V+", "p_neg": "P-", "q_neg": "Q-",
                  "e0_re": "E0'", "eneg_re": "E-'", "e0_im": "E0''", "eneg_im": "E-''",
                  "e_dc": "Edc", "p_dc": "Pdc"}

# how many structures compile_case keeps
CACHE_SIZE = 16

# flat_start's E- at the AC terminal of a with_negative converter whose
# negative-sequence two-bus equation has no root
NEG_SEED = 1e-3

# the balanced phasors of flat_start at every AC node
NOMINAL = np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])


@dataclass(frozen=True, slots=True)
class RowLabel:
    """Provenance of one residual row: equation kind, owning element, phase/sequence.

    Slotted: RowLabels makes them on access, and callers may keep many.
    """

    kind: str
    subject: str
    detail: str = ""

    def text(self) -> str:
        return f"{self.kind}:{self.subject}" + (f":{self.detail}" if self.detail else "")

    def __str__(self):
        return self.text()


class RowLabels(Sequence):
    """The labels of a model's residual rows, each made when it is read (by an
    integer index) from one kind, subject and detail per row in object arrays:
    compiling a large case allocates no RowLabel."""

    def __init__(self, *parts: np.ndarray):     # kind, subject, detail
        self._parts = parts

    def __len__(self) -> int:
        return len(self._parts[0])

    def __getitem__(self, row: int) -> RowLabel:
        return RowLabel(*(part[row] for part in self._parts))


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
    ac_node: np.ndarray         # row node r of each AC cross term: P rows, then Q rows
    ac_y: np.ndarray            # its conj(Y_rc), turned by -j in the Q rows
    ac_slot: np.ndarray         # (2, ac_node.size)
    own_slot: np.ndarray        # (2, P + Q + V rows): own-current and magnitude terms
    edc_slot: np.ndarray        # unit entries of the E_dc setpoint rows
    dc_node: np.ndarray         # row node j of each cross term of a plain DC P row
    dc_y: np.ndarray            # its Y_dc value
    dc_slot: np.ndarray
    dc_own_slot: np.ndarray     # own-current term of each plain DC P row
    conv_gk: np.ndarray         # dF/dq entry 12 g + k of each converter term
    conv_dq: np.ndarray         # conv_map value of each converter term
    conv_slot: np.ndarray       # slot of each converter term, repeated where terms add up


@dataclass(eq=False)
class PfStructure:
    """The part of a compiled case that depends only on its structure: bus ids
    and kinds, branch ends and impedances, and each converter's id, buses,
    mode, sequence policy, filter and loss table (_structure_key).  Cases that
    differ only in setpoints share one; no setpoint is in it.  A ``conv_*`` field
    is a column over the converters (ids: case.converters.id); the scalars the
    per-converter loops read are Python objects, cheaper there than numpy's.

    Three slots are filled by the solvers, not by compile_case, and hold no
    reference to a model or a case: ``fixed_point``, the fixed-point route's
    operators; ``flat_start``, the latest flat start of the NR solver with its
    operating point and J0 factor (solver.FlatStart, the one slot keyed by
    setpoints: the slack phasors, the DC voltage setpoints and the seeded E-
    of each with_negative converter fix all three);
    and ``jacobians``, a free list of at most one J matrix on ``jac``'s pattern,
    which a solve takes out with one ``pop`` and puts back when it returns, so a
    matrix is written by one solve at a time.
    """

    adm: CompoundAdmittance
    ac_bus_ids: tuple
    dc_bus_ids: tuple
    n_ac_nodes: int              # 3 * number of AC buses
    unknown_full: np.ndarray     # full indices of non-slack (bus, phase) nodes
    col_of_full: np.ndarray      # full index -> position in e-block, -1 for slack
    n_unknown: int
    n_dc: int
    n_x: int
    labels: RowLabels
    conv_map: sp.csr_matrix      # dq/dx of the converter terminal quantities (_converter_map)
    conv_ac: np.ndarray          # (n_conv, 3) full indices of each converter's AC terminal
    conv_dc: np.ndarray          # DC index of each converter's DC terminal
    conv_rows: np.ndarray        # (n_conv, len(CONV_ROW_DEPS)) row of each kind, in key order
    conv_out: np.ndarray         # the rows of conv_rows, converter by converter
    conv_mode: tuple             # ConverterMode
    conv_neg: tuple              # bool: the with_negative policy
    conv_loss: tuple             # LossParams
    conv_kappa: tuple            # loss.switching_factor
    conv_rho: tuple              # filter resistance, Re filter_z
    # vectorized row groups: row indices and the full/node index each row reads
    p_rows: np.ndarray
    p_full: np.ndarray
    q_rows: np.ndarray
    q_full: np.ndarray
    v_rows: np.ndarray
    v_full: np.ndarray
    edc_rows: np.ndarray         # DC V nodes and edc_qac terminals
    edc_node: np.ndarray
    pdc_rows: np.ndarray         # plain DC P nodes
    pdc_node: np.ndarray
    jac: JacobianPattern = field(init=False, repr=False)   # _jacobian_pattern
    # flat_start's negative-sequence Thevenin rows and impedances (_negative_thevenin),
    # compiled only when a converter has the with_negative policy
    neg_thevenin: tuple | None = field(default=None, init=False, repr=False)
    fixed_point: object = field(default=None, init=False, repr=False)
    flat_start: object = field(default=None, init=False, repr=False)
    jacobians: list = field(default_factory=list, init=False, repr=False)

    def x_labels(self) -> list:
        """Column labels of the state vector, matching the Jacobian columns."""
        nodes = [f"{self.ac_bus_ids[full // 3]}:{PHASES[full % 3]}" for full in self.unknown_full]
        return ([f"{mark}:{node}" for mark in ("E'", "E''") for node in nodes]
                + [f"Edc:{b}" for b in self.dc_bus_ids])


class PfModel(PfStructure):
    """A NetworkCase compiled for evaluation: the ``structure`` it shares with
    every case of the same structural content (its attributes are that
    structure's own objects) plus the ``case``'s setpoints, one per row of each
    row group: ``p_set``, ``q_set``, ``v_set_sq``, ``edc_set`` and ``pdc_set``;
    ``slack_voltage``, the (3N,) fixed phasors at slack entries and 0 elsewhere;
    ``conv_set``, (n_conv, 6) of e_dc, q_pos, p_pos, p_neg, q_neg and v_mag, NaN where absent.
    """

    def __init__(self, structure: PfStructure, case: NetworkCase):
        self.__dict__.update(structure.__dict__, structure=structure, case=case)
        ac, dc = case.ac_buses, case.dc_buses
        # (bus, phase) full index 3 i + p is the flat position of p_set[i, p]
        self.p_set, self.q_set = ac.p_set.ravel()[self.p_full], ac.q_set.ravel()[self.q_full]
        # Python's float power, bit for bit as before: numpy's v * v differs from
        # v**2 in the last bit for some v
        self.v_set_sq = np.array([v**2 for v in ac.v_set.ravel()[self.v_full].tolist()],
                                 dtype=float)
        self.slack_voltage = np.zeros(self.n_ac_nodes, dtype=complex)
        slack = np.flatnonzero(self.col_of_full[::3] < 0)   # the slack buses, one per island
        for i, v_mag, v_angle in zip(slack.tolist(), ac.v_mag[slack].tolist(),
                                     ac.v_angle[slack].tolist()):
            self.slack_voltage[3 * i : 3 * i + 3] = slack_phasors(v_mag, v_angle)
        conv = case.converters
        self.conv_set = np.array([getattr(conv, name) for name in conv.setpoints]).T
        dc_set = np.where(dc.mask("kind", DcBusKind.V), dc.e_set, dc.p_set)
        dc_set[self.conv_dc] = self.conv_set[:, 0]
        self.edc_set, self.pdc_set = dc_set[self.edc_node], dc_set[self.pdc_node]

    @cached_property
    def neg_seed(self) -> np.ndarray:     # negative_seed, computed once per model
        return negative_seed(self)


@dataclass(eq=False)
class StateVector:
    """NR unknowns: rectangular AC phase voltages plus DC voltages."""

    e: np.ndarray
    f: np.ndarray
    e_dc: np.ndarray
    model: PfModel

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.e, self.f, self.e_dc])

    @classmethod
    def from_array(cls, model: PfModel, x: np.ndarray) -> "StateVector":
        n = model.n_unknown
        return cls(x[:n].copy(), x[n : 2 * n].copy(), x[2 * n :].copy(), model)

    @classmethod
    def from_full(cls, model: PfModel, e_full: np.ndarray, e_dc: np.ndarray) -> "StateVector":
        """The state at the (3N,) complex AC voltages ``e_full``, whose slack
        entries are not read, and the DC voltages ``e_dc`` (copied)."""
        e = e_full[model.unknown_full]
        return cls(e.real.copy(), e.imag.copy(), e_dc.copy(), model)

    def full_ac(self) -> np.ndarray:
        """Complete (3N,) complex AC voltage vector including slack phases."""
        e_full = self.model.slack_voltage.copy()
        e_full[self.model.unknown_full] = self.e + 1j * self.f
        return e_full


@dataclass(frozen=True)
class ResidualVector:
    """Mismatch values y* - F(x) with one provenance label per entry.

    ``op`` is the operating point the values were evaluated at, for callers
    that need more of it at the same state (the Jacobian).
    """

    values: np.ndarray
    labels: RowLabels
    op: OperatingPoint | None = field(default=None, repr=False, compare=False)

    def max_abs(self) -> float:
        """The infinity norm of the values (NaN if one is NaN), computed once."""
        return self._max_abs

    @cached_property
    def _max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def worst_row(self) -> int | None:     # None when there are no rows
        return int(np.argmax(np.abs(self.values))) if self.values.size else None

    def worst(self) -> RowLabel:
        return self.labels[self.worst_row()]

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


def _converter_map(ac, dc, adm: CompoundAdmittance, col_of_full, n, n_x) -> sp.csr_matrix:
    """Sparse dq/dx of the quantities the converter rows are functions of.

    Converter c owns rows 12c .. 12c+11: Re and Im of E0, E+, E-, I+ and I- at
    its AC terminal, then E_k and I_k = (Y_dc E_dc)_k at its DC terminal.  All
    are linear in x; the slack phasors only add constants, which drop out.
    ``ac`` and ``dc`` are the terminals (PfStructure.conv_ac, conv_dc); ``n`` is
    the number of non-slack AC nodes, the width of the E' and E'' blocks.
    """
    n_conv = len(dc)
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


def _jacobian_pattern(m: PfStructure) -> JacobianPattern:
    """Compile J's sparsity pattern and the slot of every term assemble_jacobian fills.

    The pattern is laid out row by row first: the P or Q row of an AC node
    takes the node's Y_ac entries in unknown columns (E' block, then E''
    block), a plain DC P row its node's Y_dc row, and a converter row the
    union of the conv_map rows it depends on (CONV_ROW_DEPS).  A transpose
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

    # converter rows: a term (12 g + k, conv_map entry) for row g = 10 c + j of
    # _converter_grads (kind j of converter c) and each quantity k the row depends
    # on, in ascending 12 g + k.  The P+ row (kind 0) also depends on E_k through
    # the switching loss, and on E_k and I_k through P_k = E_k I_k where it is the
    # coupled balance (edc_qac, pac_vac).
    deps = np.array([np.isin(np.arange(12), ks) for ks in CONV_ROW_DEPS.values()])
    deps = (m.conv_rows >= 0)[:, :, None] & deps               # (n_conv, 10, 12)
    coupled = np.array([mode != ConverterMode.PAC_QAC for mode in m.conv_mode], dtype=bool)
    deps[:, 0, Q_EK] |= coupled | (np.array(m.conv_kappa, dtype=float) != 0.0)
    deps[:, 0, Q_IK] |= coupled
    pair_gk = np.flatnonzero(deps)
    pair_g, pair_k = np.divmod(pair_gk, 12)
    pair, conv_m = _expand_rows(cmap.indptr, 12 * (pair_g // len(CONV_ROW_DEPS)) + pair_k)
    # one J entry per distinct (row, column), sorted; terms of one entry add up
    entry, conv_entry = np.unique(m.conv_rows.ravel()[pair_g[pair]] * n_x
                                  + cmap.indices[conv_m], return_inverse=True)
    entry_row, entry_col = (a.astype(i32) for a in np.divmod(entry, n_x))
    row_len[m.conv_out] = np.bincount(entry_row, minlength=n_x)[m.conv_out]

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
    entry_pos = indptr[entry_row] + np.arange(entry.size) - np.searchsorted(entry_row, entry_row)
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
    ac_y = np.conj(y.data[ac_k])
    ac_y[int(ac_len[: m.p_rows.size].sum()) :] *= -1j     # the Q rows' terms
    return JacobianPattern(
        indptr=csc.indptr.astype(i32, copy=False),
        indices=csc.indices.astype(i32, copy=False),
        ac_node=ac_nodes[ac_which],
        ac_y=ac_y,
        ac_slot=slot[ac_pos],
        own_slot=slot[np.concatenate([own_pos, v_pos], axis=1)],
        edc_slot=slot[edc_pos],
        dc_node=m.pdc_node[dc_which],
        dc_y=y_dc.data[dc_k],
        dc_slot=slot[dc_pos],
        dc_own_slot=slot[dc_own_pos],
        conv_gk=pair_gk[pair].astype(i32),
        conv_dq=cmap.data[conv_m],
        conv_slot=slot[entry_pos][conv_entry],
    )


def _compile_structure(case: NetworkCase) -> PfStructure:
    """Validate a case (TopologyError on a problem) and compile its structure:
    admittances, index maps, the row plan in the block order of the module
    docstring, labels, conv_map and the Jacobian pattern."""
    diags = validate_topology(case)
    if diags:
        raise TopologyError("; ".join(str(d) for d in diags))
    adm = compound_admittance(case)
    ac, dc = case.ac_buses, case.dc_buses
    n_ac_nodes, n_dc = 3 * len(ac), len(dc)
    # the full (bus, phase) indices of the non-slack buses, bus by bus
    unknown_full = (3 * np.flatnonzero(~ac.mask("kind", AcBusKind.SLACK))[:, None]
                    + np.arange(3)).ravel()
    col_of_full = np.full(n_ac_nodes, -1, dtype=int)
    col_of_full[unknown_full] = np.arange(unknown_full.size)
    n_x = 2 * unknown_full.size + n_dc

    # blocks 1 and 2: a P row per phase of each PQ and PV bus, then in the same
    # order a Q row (PQ) or a magnitude row (PV)
    p_bus = np.flatnonzero(ac.mask("kind", AcBusKind.PQ, AcBusKind.PV))
    p_full, n_p = (3 * p_bus[:, None] + np.arange(3)).ravel(), 3 * p_bus.size
    pv = np.repeat(ac.mask("kind", AcBusKind.PV)[p_bus], 3)
    # blocks 3 and 6: one DC row per DC bus, an E_dc setpoint row (V nodes and
    # edc_qac terminals) or a power row (P nodes and pac_* terminals)
    convs = case.converters
    conv_dc = np.array([case.dc_pos[b] for b in convs.dc_bus], dtype=int)
    conv_ac = 3 * np.array([case.ac_pos[b] for b in convs.ac_bus], int)[:, None] + np.arange(3)
    edc_conv = convs.mask("mode", ConverterMode.EDC_QAC)
    neg = convs.mask("sequence_policy", SequencePolicy.WITH_NEGATIVE)
    edc_bus = dc.mask("kind", DcBusKind.V)
    edc_bus[conv_dc[edc_conv]] = True
    n_edc = int(edc_bus.sum())
    n4, n5 = 2 + 2 * neg, 4 - 2 * neg    # rows in blocks 4, 5: with_negative has P-, Q-, no E-
    b4 = 2 * n_p + n_edc                                  # converter sequence-power rows
    b5 = b4 + int(n4.sum())                               # sequence constraint rows
    b6 = b5 + int(n5.sum())                               # DC power rows
    if b6 + n_dc - n_edc != n_x:
        raise HybridPfError(f"internal consistency error: {b6 + n_dc - n_edc} rows for "
                            f"{n_x} unknowns")
    row_of_dc = np.empty(n_dc, dtype=int)
    row_of_dc[edc_bus] = 2 * n_p + np.arange(n_edc)
    row_of_dc[~edc_bus] = b6 + np.arange(n_dc - n_edc)

    # the row of each converter row kind (CONV_ROW_DEPS order: p, q, vmag, p_neg,
    # q_neg, e0_re, e0_im, eneg_re, eneg_im, p_dc), -1 where a converter has none
    at4, at5 = b4 + np.cumsum(n4) - n4, b5 + np.cumsum(n5) - n5
    vac, every = convs.mask("mode", ConverterMode.PAC_VAC), np.ones(len(convs), dtype=bool)
    conv_rows = np.where(
        np.stack([every, ~vac, vac, neg, neg, every, every, ~neg, ~neg, ~edc_conv], axis=-1),
        np.stack([at4, at4 + 1, at4 + 1, at4 + 2, at4 + 3, at5, at5 + 2 - neg, at5 + 1,
                  at5 + 3, row_of_dc[conv_dc]], axis=-1), -1)
    conv_c, conv_j = np.nonzero(conv_rows >= 0)

    ac_bus_ids, dc_bus_ids = ac.id, dc.id
    pdc_node = np.flatnonzero(dc.mask("kind", DcBusKind.P))
    groups = dict(p_rows=np.arange(n_p), p_full=p_full,
                  q_rows=n_p + np.flatnonzero(~pv), q_full=p_full[~pv],
                  v_rows=n_p + np.flatnonzero(pv), v_full=p_full[pv],
                  edc_rows=row_of_dc[edc_bus], edc_node=np.flatnonzero(edc_bus),
                  pdc_rows=row_of_dc[pdc_node], pdc_node=pdc_node)

    # row labels: kind, subject and detail of every row
    kind, subject, detail = (np.full(n_x, "", dtype=object) for _ in range(3))
    ac_ids = np.array(ac_bus_ids, dtype=object)
    for name in ("p", "q", "v"):
        rows, full = groups[f"{name}_rows"], groups[f"{name}_full"]
        kind[rows], subject[rows] = name.upper(), ac_ids[full // 3]
        detail[rows] = np.array(PHASES, dtype=object)[full % 3]
    kind[row_of_dc] = np.where(edc_bus, "Edc", "Pdc")
    subject[row_of_dc] = np.array(dc_bus_ids, dtype=object)
    conv_ids, conv_dc_rows = np.array(convs.id, dtype=object), row_of_dc[conv_dc]
    detail[conv_dc_rows], subject[conv_dc_rows] = subject[conv_dc_rows], conv_ids
    conv_out = conv_rows[conv_c, conv_j]
    kind[conv_out] = np.array([CONV_ROW_LABEL[k] for k in CONV_ROW_DEPS], dtype=object)[conv_j]
    subject[conv_out] = conv_ids[conv_c]

    structure = PfStructure(
        adm=adm, ac_bus_ids=ac_bus_ids, dc_bus_ids=dc_bus_ids, n_ac_nodes=n_ac_nodes,
        unknown_full=unknown_full, col_of_full=col_of_full, n_unknown=unknown_full.size,
        n_dc=n_dc, n_x=n_x, labels=RowLabels(kind, subject, detail),
        conv_map=_converter_map(conv_ac, conv_dc, adm, col_of_full, unknown_full.size, n_x),
        conv_ac=conv_ac, conv_dc=conv_dc, conv_rows=conv_rows, conv_out=conv_out,
        conv_mode=tuple(list(ConverterMode)[code] for code in convs.mode.tolist()),
        conv_neg=tuple(neg.tolist()), conv_loss=convs.loss,
        conv_kappa=tuple(loss.switching_factor for loss in convs.loss),
        conv_rho=tuple(convs.filter_z.real.tolist()), **groups)
    structure.jac = _jacobian_pattern(structure)
    if neg.any():
        structure.neg_thevenin = _negative_thevenin(structure)
    return structure


def _negative_thevenin(m: PfStructure) -> tuple | None:
    """The negative-sequence Thevenin equivalent at the AC terminal of each
    with_negative converter, from one factor of the non-slack block Y_uu of Y_ac.

    Returns ``(rows, p_conv, q_conv, z_th)``.  Row c of ``rows`` maps a model's
    [p_set, q_set, p_pos of the p_conv converters, q_pos of the q_conv ones,
    slack_voltage] to c's E-_th: W_NEG . E at its terminal, where E_u = Y_uu^-1
    (I_u - Y_us E_s) and I_u are the currents conj(S/E) these setpoints inject
    at flat_start's E (S+/3 per phase at a converter's terminal).  ``z_th[c]``
    is the terminal's E- per unit negative-sequence current, phase currents
    V_NEG.  None when Y_uu is singular.  The fixed point's reduced AC matrix
    cannot serve: its unknown at a converter bus is E+, and E- is held.
    """
    neg = np.flatnonzero(m.conv_neg)
    y_u = m.adm.y_ac[m.unknown_full]
    term = m.col_of_full[m.conv_ac[neg]]            # (n_neg, 3) terminal columns
    at = np.arange(neg.size)[:, None]
    w = np.zeros((m.n_unknown, neg.size), dtype=complex)
    w[term, at] = W_NEG
    try:    # W_NEG at each terminal times Y_uu^-1: a transposed solve
        r = splu(sp.csc_matrix(y_u[:, m.unknown_full])).solve(w, trans="T").T
    except RuntimeError:
        return None
    # E-_th per unit of conj(S) at each node: I = conj(S) / conj(E)
    g = np.zeros((neg.size, m.n_ac_nodes), dtype=complex)
    g[:, m.unknown_full] = r / np.conj(NOMINAL[m.unknown_full % 3])
    p_conv = np.flatnonzero([mode != ConverterMode.EDC_QAC for mode in m.conv_mode])
    q_conv = np.flatnonzero([mode != ConverterMode.PAC_VAC for mode in m.conv_mode])
    rows = np.concatenate([g[:, m.p_full], -1j * g[:, m.q_full],
                           g[:, m.conv_ac[p_conv]].sum(axis=2) / 3.0,
                           -1j * g[:, m.conv_ac[q_conv]].sum(axis=2) / 3.0,
                           -(r @ y_u)], axis=1)    # slack_voltage is 0 at the unknowns
    z_th = r[at, term] @ V_NEG
    for array in (rows, p_conv, q_conv, z_th):
        array.flags.writeable = False
    return rows, p_conv, q_conv, z_th


def _structure_key(case: NetworkCase) -> tuple:
    """Everything a case's PfStructure depends on, compared by value: the id
    columns themselves, the codes, the filters' bytes, the loss tables' repr, and
    impedances and resistances bit for bit as one digest of the bytes of their
    columns (each branch's z_series and y_shunt in turn, then every r)."""
    ac, dc, ac_br, dc_br = case.ac_buses, case.dc_buses, case.ac_branches, case.dc_branches
    conv = case.converters
    digest = hashlib.sha256(np.stack([ac_br.z_series, ac_br.y_shunt], axis=1))
    digest.update(dc_br.r)
    return (
        ac.id, ac.kind.tobytes(), dc.id, dc.kind.tobytes(),
        ac_br.from_bus, ac_br.to_bus, dc_br.from_bus, dc_br.to_bus,
        conv.id, conv.ac_bus, conv.dc_bus, conv.mode.tobytes(), conv.sequence_policy.tobytes(),
        conv.filter_z.tobytes(), tuple(map(repr, conv.loss)),
        digest.digest(),
    )


_structures: OrderedDict = OrderedDict()   # _structure_key(case) -> PfStructure


def compile_case(case: NetworkCase) -> PfModel:
    """Compile a case for residual/Jacobian evaluation: its structure plus its setpoints.

    The structure is looked up by structural content (_structure_key): a case
    that matches a recent one, or differs from it only in setpoints, reuses it
    and builds only its setpoint arrays, and only a miss validates the case and
    compiles one.  The cache keeps the CACHE_SIZE newest structures and no case;
    ``cache_clear()`` empties it.  Raises TopologyError when validate_topology
    reports problems.
    """
    key = _structure_key(case)
    structure = _structures.pop(key, None) or _compile_structure(case)
    _structures[key] = structure
    if len(_structures) > CACHE_SIZE:
        _structures.popitem(last=False)
    return PfModel(structure, case)


compile_case.cache_clear = _structures.clear


def as_model(case) -> PfModel:
    return case if isinstance(case, PfModel) else compile_case(case)


@dataclass(eq=False)
class ConverterOp:
    """Sequence-domain operating quantities of one converter at a state x; all
    NaN where their arithmetic overflows the float range."""

    e_zero: complex
    e_pos: complex
    e_neg: complex
    i_pos: complex
    i_neg: complex
    s_pos: complex               # 3 E+ conj(I+)
    s_neg: complex
    e_k: float
    i_k: float                   # DC-side nodal current (Y_dc E)_k
    p_k: float                   # DC-side nodal injection E_k I_k
    r_now: float                 # R_eq(|I+|)
    e_c: complex
    i_sw: float
    s_loss_pos: complex          # E_c conj(I+) + I_sw E_k
    p_filt_pos: float
    p_cond_neg: float
    p_filt_neg: float

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


def negative_seed(model: PfModel) -> np.ndarray:
    """flat_start's E- at the AC terminal of each with_negative converter, in
    converter order: the smaller-|E-| root of its two-bus equation.

    The terminal sees the negative-sequence Thevenin equivalent of the network
    (PfStructure.neg_thevenin): E-_th, the E- that the flat-start injections
    conj(S/E) of the PQ and PV setpoints and of the converters' S+ setpoints
    make with the slack phasors, and Z-_th.  The converter's S- = 3 E-
    conj((E- - E-_th) / Z-_th) then reads E- conj(E- - E-_th) = k with k = S-
    conj(Z-_th) / 3.  With b = E- - E-_th/2 this is |b|^2 = Re k + |E-_th|^2/4
    and Im(b conj E-_th) = -Im k; b pointing against E-_th gives the smaller
    root, taken here in a form free of cancellation.  It is the root the fixed
    point's current division E- = S- / (3 conj I-) contracts to.  A converter
    whose equation has no root (|E-_th| at most 1e-12 p.u., as under balanced
    loads, or a negative discriminant) keeps E- = NEG_SEED, as does every one
    when Y_uu is singular.
    """
    neg = np.flatnonzero(model.conv_neg)
    if model.neg_thevenin is None:
        return np.full(neg.size, NEG_SEED, dtype=complex)
    rows, p_conv, q_conv, z_th = model.neg_thevenin
    conv = model.conv_set
    e_th = rows @ np.concatenate([model.p_set, model.q_set, conv[p_conv, 2], conv[q_conv, 1],
                                  model.slack_voltage])
    seed = []
    for t, z, (p_neg, q_neg) in zip(e_th.tolist(), z_th.tolist(), conv[neg, 3:5].tolist()):
        k = complex(p_neg, q_neg) * z.conjugate() / 3.0
        mag = abs(t)
        # an E-_th at rounding level, as balanced loads leave it, gives no direction
        q = k.real - (k.imag / mag) ** 2 if mag > 1e-12 else -math.inf
        disc = mag * mag / 4.0 + q
        seed.append(t / mag * (-q / (mag / 2.0 + math.sqrt(disc)) - 1j * k.imag / mag)
                    if disc >= 0 else NEG_SEED)
    return np.array(seed, dtype=complex)


def flat_start(case) -> StateVector:
    """All voltage magnitudes at 1 p.u. with nominal phase angles, DC at 1 p.u.

    DC V nodes and edc_qac converter terminals start at their voltage setpoint.
    The AC terminal of each with_negative converter gets the E- of
    negative_seed on top: at a balanced start S- = 3 E- conj(I-) and its
    derivatives vanish, so the Newton solver's P- and Q- rows would be
    identically zero, and the fixed point's current-division E- would have no
    current to divide.
    """
    model = as_model(case)
    e_full = np.tile(NOMINAL, model.n_ac_nodes // 3)
    if any(model.conv_neg):
        e_full[model.conv_ac[list(model.conv_neg)]] += V_NEG * model.neg_seed[:, None]
    e_dc = np.ones(model.n_dc)
    e_dc[model.edc_node] = model.edc_set
    return StateVector.from_full(model, e_full, e_dc)


def operating_point(model: PfModel, x: StateVector) -> OperatingPoint:
    e_full = x.full_ac()
    i_full = model.adm.y_ac @ e_full if model.n_ac_nodes else np.zeros(0, dtype=complex)
    s_full = e_full * np.conj(i_full)
    i_dc = model.adm.y_dc @ x.e_dc if model.n_dc else np.zeros(0)
    p_dc_nodal = x.e_dc * i_dc

    # the converters' terminal quantities in one Fortescue product each, then
    # their losses on Python scalars
    seq_e, seq_i = ((v[model.conv_ac] @ FORTESCUE.T).tolist() for v in (e_full, i_full))
    conv_ops = []
    for wn, loss, kappa, rho, (e_zero, e_pos, e_neg), (_, i_pos, i_neg), e_k, i_k in zip(
            model.conv_neg, model.conv_loss, model.conv_kappa, model.conv_rho, seq_e, seq_i,
            x.e_dc[model.conv_dc].tolist(), i_dc[model.conv_dc].tolist()):
        try:
            s_pos = 3.0 * e_pos * i_pos.conjugate()
            s_mag = abs(i_pos)
            r_now = loss.r_eq(s_mag)
            e_c = r_now * i_pos
            i_sw = kappa * s_mag
            i_neg = i_neg if wn else 0j
            sn = abs(i_neg)
            # the fields in their order: 17 keywords would cost a microsecond a converter
            conv_ops.append(ConverterOp(
                e_zero, e_pos, e_neg, i_pos, i_neg, s_pos, 3.0 * e_neg * i_neg.conjugate(), e_k,
                i_k, e_k * i_k, r_now, e_c, i_sw, e_c * i_pos.conjugate() + i_sw * e_k,
                rho * s_mag**2, loss.r_eq(sn) * sn**2, rho * sn**2))
        except OverflowError:   # Python's float power and abs raise where numpy gives inf
            conv_ops.append(ConverterOp(*[math.nan] * 17))
    return OperatingPoint(e_full=e_full, i_full=i_full, s_full=s_full, i_dc=i_dc,
                          p_dc_nodal=p_dc_nodal, conv=conv_ops)


def assemble_residuals(case, x: StateVector, op: OperatingPoint | None = None) -> ResidualVector:
    """Evaluate the full mismatch vector y* - F(x) in the documented block order.
    ``op`` is the operating point at x when the caller has it; it is built otherwise."""
    model = as_model(case)
    if op is None:
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

    # each converter's rows in conv_rows' column order, written at conv_out
    conv = []
    for mode, wn, cop, (_, q_pos, p_pos, p_neg, q_neg, v_mag) in zip(
            model.conv_mode, model.conv_neg, op.conv, model.conv_set.tolist()):
        p_loss = cop.s_loss_pos.real
        if mode == ConverterMode.PAC_QAC:
            conv.append(p_pos - (cop.s_pos.real - p_loss))
        else:  # the coupled balance row of edc_qac and pac_vac
            conv.append(cop.p_k - cop.s_pos.real - p_loss - cop.p_filt_pos)
        if mode == ConverterMode.PAC_VAC:  # the magnitude row
            conv.append(v_mag**2 - abs(cop.e_pos) ** 2)
        else:
            conv.append(q_pos - (cop.s_pos.imag - cop.s_loss_pos.imag))
        if wn:
            conv += (p_neg - (cop.s_neg.real - cop.p_cond_neg), q_neg - cop.s_neg.imag,
                     -cop.e_zero.real, -cop.e_zero.imag)
        else:
            conv += (-cop.e_zero.real, -cop.e_zero.imag, -cop.e_neg.real, -cop.e_neg.imag)
        if mode != ConverterMode.EDC_QAC:
            p_ref = p_pos + (p_neg if wn else 0.0)
            conv.append(cop.p_k - (p_ref + (p_loss + cop.p_cond_neg) + cop.p_filter_total))
    values[model.conv_out] = conv
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


def feasible_dc_root(case, conv_id: str, op: OperatingPoint) -> float:
    """DC voltage solving the converter's quadratic power balance at the
    operating point ``op`` (of a residual evaluation: ResidualVector.op).

    Used for feasibility diagnostics only; the NR residual keeps the explicit
    balance form.  The balance is y_kk E^2 + b E - P+ = 0 with P+ and
    b = I_k - y_kk E_k read from the converter's quantities in ``op`` and y_kk
    the diagonal entry of its DC terminal's Y_dc row, so the cost follows that
    terminal's degree.  Raises InfeasibleError when the requested AC power
    exceeds the DC transfer capability (negative discriminant).
    """
    model = as_model(case)
    if conv_id not in model.case.converters.pos:
        raise HybridPfError(f"feasible_dc_root: no converter with id {conv_id!r}")
    c = model.case.converters.pos[conv_id]
    k, cop, y_dc = int(model.conv_dc[c]), op.conv[c], model.adm.y_dc
    lo, hi = y_dc.indptr[k : k + 2]
    y_kk = float(y_dc.data[lo:hi][y_dc.indices[lo:hi] == k].sum())
    try:
        return feasible_root_from_coeffs(y_kk, cop.i_k - y_kk * cop.e_k, cop.s_pos.real)
    except InfeasibleError as exc:
        raise InfeasibleError(f"converter {conv_id}: {exc}") from exc
