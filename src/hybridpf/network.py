"""Network data model and compound admittance matrices for hybrid AC/DC grids.

The AC side is represented per phase: every bus contributes three
(phase-to-ground) nodes, branches are symmetric 3x3 series/shunt pi sections,
and the assembled bus admittance matrix is 3N x 3N complex.  The DC side is a
plain resistive network with a real M x M admittance matrix.

Conventions used across the package:

* All solver quantities are per-unit on a single system power base.  Per-phase
  AC powers, sequence powers and DC powers all share that base.
* Nodal injections follow the generator convention: S = E * conj(Y E) is
  positive for power flowing from the attached device into the network.
* Branch stamps are the standard two-port: +Y_series on the diagonal blocks,
  -Y_series off-diagonal, plus half the shunt on each end block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DataError, TopologyError
from .losses import LossParams

PHASES = ("a", "b", "c")


class AcBusKind(str, Enum):
    SLACK = "slack"
    PQ = "pq"
    PV = "pv"
    CONVERTER = "converter"


class DcBusKind(str, Enum):
    P = "p"
    V = "v"
    CONVERTER = "converter"


class ConverterMode(str, Enum):
    EDC_QAC = "edc_qac"      # regulates DC voltage and positive-sequence reactive power
    PAC_QAC = "pac_qac"      # tracks sequence power references on the AC side
    PAC_VAC = "pac_vac"      # tracks AC active power and AC voltage magnitude


class SequencePolicy(str, Enum):
    POSITIVE_ONLY = "positive_only"
    WITH_NEGATIVE = "with_negative"


@dataclass(frozen=True, eq=False)
class AcBus:
    """One three-phase AC bus.

    Setpoint fields are per phase (a, b, c) and only the fields required by
    ``kind`` may be present: PQ buses carry p_set/q_set, PV buses carry
    p_set/v_set, the slack carries v_mag/v_angle, converter buses carry none
    (the converter record owns their behaviour).
    """

    id: str
    kind: AcBusKind
    p_set: tuple[float, float, float] | None = None
    q_set: tuple[float, float, float] | None = None
    v_set: tuple[float, float, float] | None = None
    v_mag: float | None = None
    v_angle: float = 0.0

    def __post_init__(self):
        k = self.kind
        if k == AcBusKind.PQ:
            if self.p_set is None or self.q_set is None:
                raise DataError(f"PQ bus {self.id} needs p_set and q_set for all phases")
            if self.v_set is not None or self.v_mag is not None:
                raise DataError(f"PQ bus {self.id} must not carry voltage setpoints")
        elif k == AcBusKind.PV:
            if self.p_set is None or self.v_set is None:
                raise DataError(f"PV bus {self.id} needs p_set and v_set for all phases")
            if self.q_set is not None:
                raise DataError(f"PV bus {self.id} must not carry q_set")
        elif k == AcBusKind.SLACK:
            if self.v_mag is None:
                raise DataError(f"slack bus {self.id} needs v_mag")
            if self.v_mag <= 0:
                raise DataError(f"slack bus {self.id} needs v_mag > 0")
            if self.p_set is not None or self.q_set is not None or self.v_set is not None:
                raise DataError(f"slack bus {self.id} carries only v_mag and v_angle")
        elif k == AcBusKind.CONVERTER:
            if any(v is not None for v in (self.p_set, self.q_set, self.v_set, self.v_mag)):
                raise DataError(f"converter bus {self.id} must not carry direct setpoints")

    def slack_phasors(self) -> np.ndarray:
        """Balanced three-phase set fixed by (v_mag, v_angle); slack buses only."""
        if self.kind != AcBusKind.SLACK:
            raise DataError(f"bus {self.id} is not a slack bus")
        a = np.exp(2j * np.pi / 3)
        base = self.v_mag * np.exp(1j * self.v_angle)
        return np.array([base, base * a**2, base * a], dtype=complex)


@dataclass(frozen=True, eq=False)
class DcBus:
    """One DC bus: fixed power injection (P), fixed voltage (V), or converter terminal."""

    id: str
    kind: DcBusKind
    p_set: float | None = None
    e_set: float | None = None

    def __post_init__(self):
        if self.kind == DcBusKind.P:
            if self.p_set is None:
                raise DataError(f"DC P bus {self.id} needs p_set")
            if self.e_set is not None:
                raise DataError(f"DC P bus {self.id} must not carry e_set")
        elif self.kind == DcBusKind.V:
            if self.e_set is None or self.e_set <= 0:
                raise DataError(f"DC V bus {self.id} needs e_set > 0")
            if self.p_set is not None:
                raise DataError(f"DC V bus {self.id} must not carry p_set")
        else:
            if self.p_set is not None or self.e_set is not None:
                raise DataError(f"converter bus {self.id} must not carry direct setpoints")


def _as_3x3(matrix, what: str) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape == ():
        m = np.eye(3, dtype=complex) * m
    if m.shape != (3, 3):
        raise DataError(f"{what} must be a 3x3 matrix or a scalar")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class AcBranch:
    """Symmetric three-phase pi section between two AC buses.

    ``z_series`` is the 3x3 series impedance (a scalar means an uncoupled line
    with that per-phase impedance); ``y_shunt`` is the total 3x3 shunt
    admittance, half of which is stamped on each end.
    """

    from_bus: str
    to_bus: str
    z_series: np.ndarray
    y_shunt: np.ndarray = field(default_factory=lambda: np.zeros((3, 3), dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "z_series", _as_3x3(self.z_series, "z_series"))
        object.__setattr__(self, "y_shunt", _as_3x3(self.y_shunt, "y_shunt"))
        if self.from_bus == self.to_bus:
            raise DataError(f"branch endpoints must differ ({self.from_bus})")


@dataclass(frozen=True, eq=False)
class DcBranch:
    """Resistive DC branch."""

    from_bus: str
    to_bus: str
    r: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise DataError(f"branch endpoints must differ ({self.from_bus})")
        if not self.r > 0:
            raise DataError(f"DC branch {self.from_bus}-{self.to_bus} needs r > 0")


@dataclass(frozen=True, eq=False)
class Converter:
    """AC/DC interfacing converter linking one AC bus and one DC bus.

    Mode-dependent setpoints (per-unit; sequence powers are three-phase totals):

    * ``edc_qac``:  e_dc_set and q_pos_set
    * ``pac_qac``:  p_pos_set, q_pos_set and, under the with_negative policy,
      p_neg_set / q_neg_set
    * ``pac_vac``:  p_pos_set and v_mag_set (positive-sequence magnitude)
    """

    id: str
    ac_bus: str
    dc_bus: str
    mode: ConverterMode
    loss: LossParams = field(default_factory=LossParams.zero)
    filter_z: complex = 0j
    sequence_policy: SequencePolicy = SequencePolicy.POSITIVE_ONLY
    e_dc_set: float | None = None
    q_pos_set: float | None = None
    p_pos_set: float | None = None
    q_neg_set: float | None = None
    p_neg_set: float | None = None
    v_mag_set: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "filter_z", complex(self.filter_z))
        if self.filter_z.real < 0:
            raise DataError(f"converter {self.id}: filter resistance must be >= 0")
        m = self.mode
        if self.sequence_policy == SequencePolicy.WITH_NEGATIVE and m != ConverterMode.PAC_QAC:
            raise DataError(f"converter {self.id}: with_negative is only valid in pac_qac mode")
        if m == ConverterMode.EDC_QAC:
            if self.e_dc_set is None or self.e_dc_set <= 0 or self.q_pos_set is None:
                raise DataError(f"converter {self.id}: edc_qac needs e_dc_set > 0 and q_pos_set")
        elif m == ConverterMode.PAC_QAC:
            if self.p_pos_set is None or self.q_pos_set is None:
                raise DataError(f"converter {self.id}: pac_qac needs p_pos_set and q_pos_set")
            if self.sequence_policy == SequencePolicy.WITH_NEGATIVE:
                if self.p_neg_set is None or self.q_neg_set is None:
                    raise DataError(
                        f"converter {self.id}: with_negative needs p_neg_set and q_neg_set"
                    )
                if self.p_neg_set == 0 and self.q_neg_set == 0:
                    # S- = 3 E- conj(I-) = 0 factors into two solution branches and
                    # leaves the problem underdetermined; use positive_only instead.
                    raise DataError(
                        f"converter {self.id}: with_negative needs a nonzero negative-"
                        "sequence reference"
                    )
        elif m == ConverterMode.PAC_VAC:
            if self.p_pos_set is None or self.v_mag_set is None or self.v_mag_set <= 0:
                raise DataError(f"converter {self.id}: pac_vac needs p_pos_set and v_mag_set > 0")

    @property
    def p_neg(self) -> float:
        return self.p_neg_set or 0.0

    @property
    def q_neg(self) -> float:
        return self.q_neg_set or 0.0


@dataclass(frozen=True, eq=False)
class BaseQuantities:
    """SI bases used only at the I/O boundary (solver math is per-unit)."""

    s_base_va: float = 100e3
    v_base_ac_v: float = 400.0   # line-to-line
    v_base_dc_v: float = 800.0
    f_line_hz: float = 50.0

    @property
    def v_base_ac_pg(self) -> float:
        """Phase-to-ground AC voltage base."""
        return self.v_base_ac_v / np.sqrt(3.0)

    @property
    def z_base_ac(self) -> float:
        # consistent with I_base = S_base / V_pg so that E_pu * conj(I_pu)
        # is a per-phase power on the full system base
        return self.v_base_ac_pg**2 / self.s_base_va

    @property
    def z_base_dc(self) -> float:
        return self.v_base_dc_v**2 / self.s_base_va


def _check_branches(branches) -> None:
    """Symmetric z_series and y_shunt and a regular z_series, checked over the
    (n, 3, 3) stacks at once; the error names the first bad branch."""
    zy = np.array([(br.z_series, br.y_shunt) for br in branches])    # (n, 2, 3, 3)
    asym = np.abs(zy - zy.swapaxes(2, 3)).max(axis=(2, 3)) > 1e-12
    faults = {"z_series must be symmetric": asym[:, 0], "y_shunt must be symmetric": asym[:, 1],
              "z_series is singular": np.abs(np.linalg.det(zy[:, 0])) < 1e-14}
    for k in np.flatnonzero(np.logical_or.reduce(list(faults.values())))[:1]:   # the first
        what = next(msg for msg, fault in faults.items() if fault[k])
        raise DataError(f"ac_branches[{k}] ({branches[k].from_bus}-{branches[k].to_bus}): {what}")


@dataclass(frozen=True, eq=False)
class NetworkCase:
    """Complete description of one hybrid AC/DC network (immutable)."""

    name: str
    ac_buses: tuple[AcBus, ...] = ()
    dc_buses: tuple[DcBus, ...] = ()
    ac_branches: tuple[AcBranch, ...] = ()
    dc_branches: tuple[DcBranch, ...] = ()
    converters: tuple[Converter, ...] = ()
    base: BaseQuantities = field(default_factory=BaseQuantities)
    description: str = ""
    # bus id -> position in ac_buses / dc_buses; the one id-to-index map of a case
    ac_pos: dict = field(init=False, repr=False)
    dc_pos: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ac_buses", tuple(self.ac_buses))
        object.__setattr__(self, "dc_buses", tuple(self.dc_buses))
        object.__setattr__(self, "ac_branches", tuple(self.ac_branches))
        object.__setattr__(self, "dc_branches", tuple(self.dc_branches))
        object.__setattr__(self, "converters", tuple(self.converters))
        object.__setattr__(self, "ac_pos", {b.id: i for i, b in enumerate(self.ac_buses)})
        object.__setattr__(self, "dc_pos", {b.id: j for j, b in enumerate(self.dc_buses)})
        # the union falls short of the bus count exactly when some id repeats
        if len(self.ac_pos.keys() | self.dc_pos.keys()) != len(self.ac_buses) + len(self.dc_buses):
            raise DataError("bus ids must be unique across the AC and DC grids")
        if len({c.id for c in self.converters}) != len(self.converters):
            raise DataError("converter ids must be unique")
        if self.ac_branches:
            _check_branches(self.ac_branches)

    def ac_bus(self, bus_id: str) -> AcBus:
        return self.ac_buses[self.ac_pos[bus_id]]

    def dc_bus(self, bus_id: str) -> DcBus:
        return self.dc_buses[self.dc_pos[bus_id]]


@dataclass(frozen=True, eq=False)
class CompoundAdmittance:
    """Both bus admittance matrices of a case, and the branch arrays they are
    stamped from (ac_branch_arrays, dc_branch_arrays).

    ``y_ac`` is 3N x 3N complex over (bus, phase) pairs in bus order with
    phases a, b, c contiguous per bus; ``y_dc`` is M x M real.
    """

    y_ac: sp.csr_matrix
    y_dc: sp.csr_matrix
    ac_branches: tuple
    dc_branches: tuple


def _branch_ends(branches, pos: dict, what: str):
    """End-bus positions of every branch; TopologyError names one with an end not in ``pos``."""
    for br in branches:
        if br.from_bus not in pos or br.to_bus not in pos:
            raise TopologyError(
                f"{what} {br.from_bus}-{br.to_bus} references a bus that does not exist"
            )
    return (np.array([pos[br.from_bus] for br in branches], dtype=int),
            np.array([pos[br.to_bus] for br in branches], dtype=int))


def ac_branch_arrays(case: NetworkCase):
    """Every AC branch at once: the positions of its end buses and its (n, 3, 3)
    series admittance (one batched inversion of z_series) and half shunt."""
    frm, to = _branch_ends(case.ac_branches, case.ac_pos, "branch")
    z = np.array([br.z_series for br in case.ac_branches], dtype=complex).reshape(-1, 3, 3)
    y_sh = np.array([br.y_shunt for br in case.ac_branches], dtype=complex).reshape(-1, 3, 3)
    return frm, to, np.linalg.inv(z), y_sh / 2.0


def dc_branch_arrays(case: NetworkCase):
    """Every DC branch at once: the positions of its end buses and its resistance."""
    frm, to = _branch_ends(case.dc_branches, case.dc_pos, "DC branch")
    return frm, to, np.array([br.r for br in case.dc_branches], dtype=float)


def build_ac_admittance(case: NetworkCase, branches=None) -> sp.csr_matrix:
    """Assemble the three-phase AC bus admittance matrix from branch stamps;
    ``branches`` is ac_branch_arrays(case) when the caller has it."""
    n = 3 * len(case.ac_pos)
    # stamps ordered by branch, then row phase p, column phase q, then the four
    # entries (i,i), (j,j), (i,j), (j,i) of that phase pair
    frm, to, ys, ysh = branches or ac_branch_arrays(case)
    i0, j0 = 3 * frm[:, None, None], 3 * to[:, None, None]
    p, q = np.indices((3, 3))
    rows = np.stack([i0 + p, j0 + p, i0 + p, j0 + p], axis=-1)
    cols = np.stack([i0 + q, j0 + q, j0 + q, i0 + q], axis=-1)
    vals = np.stack([ys + ysh, ys + ysh, -ys, -ys], axis=-1)
    rows, cols, vals = rows.ravel(), cols.ravel(), vals.ravel()
    # zero stamps would only widen J's pattern; every diagonal stamp stays, as
    # J's own-current terms sit there even where a shunt cancels the series
    # stamp (Y_kk = 0)
    keep = (vals != 0) | (rows == cols)
    y_ac = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n), dtype=complex)
    y_ac.sum_duplicates()
    return y_ac


def build_dc_admittance(case: NetworkCase, branches=None) -> sp.csr_matrix:
    """Assemble the real DC bus admittance matrix with conductance stamps 1/R;
    ``branches`` is dc_branch_arrays(case) when the caller has it."""
    m = len(case.dc_pos)
    i, j, r = branches or dc_branch_arrays(case)
    g = 1.0 / r
    # stamps (i,i), (j,j), (i,j), (j,i) of each branch in turn
    rows, cols = np.stack([i, j, i, j], axis=-1), np.stack([i, j, j, i], axis=-1)
    vals = np.stack([g, g, -g, -g], axis=-1)
    y_dc = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(m, m), dtype=float)
    y_dc.sum_duplicates()
    return y_dc


def compound_admittance(case: NetworkCase) -> CompoundAdmittance:
    """Both admittance matrices of a case in one record, with their branch arrays."""
    ac, dc = ac_branch_arrays(case), dc_branch_arrays(case)
    return CompoundAdmittance(y_ac=build_ac_admittance(case, ac),
                              y_dc=build_dc_admittance(case, dc), ac_branches=ac, dc_branches=dc)


@dataclass(frozen=True)
class Diagnostic:
    """One topology problem found by validate_topology."""

    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


def _islands(case: NetworkCase, counted):
    """Every island of the AC grid and then of the DC grid, in the order of its first
    bus, from one connected_components call (an edge is a branch with both ends on
    its own grid): whether it is AC, its bus ids, and how many of its buses are
    ``counted`` (one bool per AC bus, then per DC bus)."""
    n_ac = len(case.ac_buses)
    ends = np.array([(off + pos[br.from_bus], off + pos[br.to_bus])
                     for off, pos, branches in ((0, case.ac_pos, case.ac_branches),
                                                (n_ac, case.dc_pos, case.dc_branches))
                     for br in branches if br.from_bus in pos and br.to_bus in pos],
                    dtype=np.int32).reshape(-1, 2)
    ids = np.array(list(case.ac_pos) + list(case.dc_pos), dtype=object)
    # CSR arrays in int32 built here: a third of the cost of scipy's COO route
    row_start = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends[:, 0], minlength=len(ids)), out=row_start[1:])
    graph = sp.csr_matrix((np.ones(len(ends)), ends[np.argsort(ends[:, 0], kind="stable"), 1],
                           row_start), shape=(len(ids),) * 2)
    n_islands, label = connected_components(graph, directed=False)
    members = np.split(ids[np.argsort(label, kind="stable")],
                       np.cumsum(np.bincount(label, minlength=n_islands))[:-1])
    counts = np.bincount(label, weights=np.asarray(counted, dtype=float), minlength=n_islands)
    n_ac_islands = label[:n_ac].max() + 1 if n_ac else 0
    return zip(np.arange(n_islands) < n_ac_islands, members, counts.tolist())


def validate_topology(case: NetworkCase) -> list[Diagnostic]:
    """Check solvability of the network graph; an empty list means valid.

    Verified: exactly one slack per AC island, at least one voltage-imposing
    element (V node or edc_qac converter) per DC island, and consistent
    converter-to-bus links.
    """
    diags: list[Diagnostic] = []
    for grid, pos, branches in (("AC", case.ac_pos, case.ac_branches),
                                ("DC", case.dc_pos, case.dc_branches)):
        for br in branches:
            for end in (br.from_bus, br.to_bus):
                if end not in pos:
                    diags.append(Diagnostic("dangling-branch", f"{br.from_bus}-{br.to_bus}",
                                            f"{grid} branch endpoint {end} does not exist"))

    seen_ac, seen_dc, edc_dc_buses = set(), set(), set()
    for c in case.converters:
        for grid, bus, pos, buses in (("AC", c.ac_bus, case.ac_pos, case.ac_buses),
                                      ("DC", c.dc_bus, case.dc_pos, case.dc_buses)):
            if bus not in pos or buses[pos[bus]].kind.value != "converter":
                what = "does not exist" if bus not in pos else "is not a converter bus"
                diags.append(Diagnostic("bad-link", c.id, f"{grid} bus {bus} {what}"))
        if c.ac_bus in seen_ac or c.dc_bus in seen_dc:
            diags.append(Diagnostic("bad-link", c.id, "bus is linked to more than one converter"))
        seen_ac.add(c.ac_bus)
        seen_dc.add(c.dc_bus)
        if c.mode == ConverterMode.EDC_QAC:
            edc_dc_buses.add(c.dc_bus)

    for grid, buses, seen in (("AC", case.ac_buses, seen_ac), ("DC", case.dc_buses, seen_dc)):
        for b in buses:
            if b.kind.value == "converter" and b.id not in seen:
                diags.append(Diagnostic("orphan-bus", b.id,
                                        f"converter {grid} bus has no converter"))

    counted = ([b.kind == AcBusKind.SLACK for b in case.ac_buses]
               + [b.kind == DcBusKind.V or b.id in edc_dc_buses for b in case.dc_buses])
    for is_ac, island, n in _islands(case, counted):
        if is_ac and n != 1:
            code, msg = (("no-slack", "AC island has no slack bus") if n == 0 else
                         ("multiple-slack", f"AC island has {int(n)} slack buses"))
            diags.append(Diagnostic(code, ",".join(sorted(island)), msg))
        elif not is_ac and n == 0:
            diags.append(Diagnostic("no-dc-voltage-source", ",".join(sorted(island)),
                                    "DC island has no V node and no edc_qac converter"))

    return diags
