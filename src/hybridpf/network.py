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
    m = np.asarray(matrix, dtype=complex)
    if m.shape == ():
        m = np.eye(3, dtype=complex) * m
    if m.shape != (3, 3):
        raise DataError(f"{what} must be a 3x3 matrix or a scalar")
    m = m.copy()
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
        for name, m in (("z_series", self.z_series), ("y_shunt", self.y_shunt)):
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise DataError(
                    f"branch {self.from_bus}-{self.to_bus}: {name} must be symmetric"
                )
        if abs(np.linalg.det(self.z_series)) < 1e-14:
            raise DataError(f"branch {self.from_bus}-{self.to_bus} has a singular z_series")


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

    def ac_bus(self, bus_id: str) -> AcBus:
        return self.ac_buses[self.ac_pos[bus_id]]

    def dc_bus(self, bus_id: str) -> DcBus:
        return self.dc_buses[self.dc_pos[bus_id]]


@dataclass(frozen=True, eq=False)
class CompoundAdmittance:
    """Both bus admittance matrices of a case.

    ``y_ac`` is 3N x 3N complex over (bus, phase) pairs in bus order with
    phases a, b, c contiguous per bus; ``y_dc`` is M x M real.
    """

    y_ac: sp.csr_matrix
    y_dc: sp.csr_matrix


def ac_branch_arrays(case: NetworkCase):
    """Every AC branch at once: the positions of its end buses and its (n, 3, 3)
    series admittance (one batched inversion of z_series) and half shunt."""
    frm = np.array([case.ac_pos[br.from_bus] for br in case.ac_branches], dtype=int)
    to = np.array([case.ac_pos[br.to_bus] for br in case.ac_branches], dtype=int)
    z = np.array([br.z_series for br in case.ac_branches], dtype=complex).reshape(-1, 3, 3)
    y_sh = np.array([br.y_shunt for br in case.ac_branches], dtype=complex).reshape(-1, 3, 3)
    return frm, to, np.linalg.inv(z), y_sh / 2.0


def build_ac_admittance(case: NetworkCase) -> sp.csr_matrix:
    """Assemble the three-phase AC bus admittance matrix from branch stamps."""
    order = case.ac_pos
    n = 3 * len(order)
    for br in case.ac_branches:
        if br.from_bus not in order or br.to_bus not in order:
            raise TopologyError(
                f"branch {br.from_bus}-{br.to_bus} references a bus that does not exist"
            )
    # stamps ordered by branch, then row phase p, column phase q, then the four
    # entries (i,i), (j,j), (i,j), (j,i) of that phase pair
    frm, to, ys, ysh = ac_branch_arrays(case)
    i0, j0 = 3 * frm[:, None, None], 3 * to[:, None, None]
    p, q = np.indices((3, 3))
    rows = np.stack([i0 + p, j0 + p, i0 + p, j0 + p], axis=-1)
    cols = np.stack([i0 + q, j0 + q, j0 + q, i0 + q], axis=-1)
    vals = np.stack([ys + ysh, ys + ysh, -ys, -ys], axis=-1)
    y_ac = sp.csr_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n), dtype=complex
    )
    y_ac.sum_duplicates()
    return y_ac


def build_dc_admittance(case: NetworkCase) -> sp.csr_matrix:
    """Assemble the real DC bus admittance matrix with conductance stamps 1/R."""
    order = case.dc_pos
    m = len(order)
    rows, cols, vals = [], [], []
    for br in case.dc_branches:
        if br.from_bus not in order or br.to_bus not in order:
            raise TopologyError(
                f"DC branch {br.from_bus}-{br.to_bus} references a bus that does not exist"
            )
        g = 1.0 / br.r
        i, j = order[br.from_bus], order[br.to_bus]
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [g, g, -g, -g]
    y_dc = sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=(m, m), dtype=float)
    y_dc.sum_duplicates()
    return y_dc


def compound_admittance(case: NetworkCase) -> CompoundAdmittance:
    """Both admittance matrices of a case in one record."""
    return CompoundAdmittance(y_ac=build_ac_admittance(case), y_dc=build_dc_admittance(case))


@dataclass(frozen=True)
class Diagnostic:
    """One topology problem found by validate_topology."""

    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


def _islands(node_ids, edges) -> list[set]:
    parent = {n: n for n in node_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[str, set] = {}
    for n in node_ids:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())


def validate_topology(case: NetworkCase) -> list[Diagnostic]:
    """Check solvability of the network graph; an empty list means valid.

    Verified: exactly one slack per AC island, at least one voltage-imposing
    element (V node or edc_qac converter) per DC island, and consistent
    converter-to-bus links.
    """
    diags: list[Diagnostic] = []

    for br in case.ac_branches:
        for end in (br.from_bus, br.to_bus):
            if end not in case.ac_pos:
                diags.append(Diagnostic("dangling-branch", f"{br.from_bus}-{br.to_bus}",
                                        f"AC branch endpoint {end} does not exist"))
    for br in case.dc_branches:
        for end in (br.from_bus, br.to_bus):
            if end not in case.dc_pos:
                diags.append(Diagnostic("dangling-branch", f"{br.from_bus}-{br.to_bus}",
                                        f"DC branch endpoint {end} does not exist"))

    seen_ac, seen_dc = set(), set()
    edc_dc_buses = set()
    for c in case.converters:
        if c.ac_bus not in case.ac_pos:
            diags.append(Diagnostic("bad-link", c.id, f"AC bus {c.ac_bus} does not exist"))
        elif case.ac_bus(c.ac_bus).kind != AcBusKind.CONVERTER:
            diags.append(Diagnostic("bad-link", c.id, f"AC bus {c.ac_bus} is not a converter bus"))
        if c.dc_bus not in case.dc_pos:
            diags.append(Diagnostic("bad-link", c.id, f"DC bus {c.dc_bus} does not exist"))
        elif case.dc_bus(c.dc_bus).kind != DcBusKind.CONVERTER:
            diags.append(Diagnostic("bad-link", c.id, f"DC bus {c.dc_bus} is not a converter bus"))
        if c.ac_bus in seen_ac or c.dc_bus in seen_dc:
            diags.append(Diagnostic("bad-link", c.id, "bus is linked to more than one converter"))
        seen_ac.add(c.ac_bus)
        seen_dc.add(c.dc_bus)
        if c.mode == ConverterMode.EDC_QAC:
            edc_dc_buses.add(c.dc_bus)

    for b in case.ac_buses:
        if b.kind == AcBusKind.CONVERTER and b.id not in seen_ac:
            diags.append(Diagnostic("orphan-bus", b.id, "converter AC bus has no converter"))
    for b in case.dc_buses:
        if b.kind == DcBusKind.CONVERTER and b.id not in seen_dc:
            diags.append(Diagnostic("orphan-bus", b.id, "converter DC bus has no converter"))

    for island in _islands(case.ac_pos, [(br.from_bus, br.to_bus) for br in case.ac_branches]):
        slacks = [b for b in island if case.ac_bus(b).kind == AcBusKind.SLACK]
        label = ",".join(sorted(island))
        if len(slacks) == 0:
            diags.append(Diagnostic("no-slack", label, "AC island has no slack bus"))
        elif len(slacks) > 1:
            diags.append(Diagnostic("multiple-slack", label,
                                    f"AC island has {len(slacks)} slack buses"))

    for island in _islands(case.dc_pos, [(br.from_bus, br.to_bus) for br in case.dc_branches]):
        has_v = any(case.dc_bus(b).kind == DcBusKind.V for b in island)
        has_edc = any(b in edc_dc_buses for b in island)
        if not (has_v or has_edc):
            diags.append(Diagnostic("no-dc-voltage-source", ",".join(sorted(island)),
                                    "DC island has no V node and no edc_qac converter"))

    return diags
