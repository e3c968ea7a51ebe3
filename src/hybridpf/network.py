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

A NetworkCase keeps each element list as an immutable table (AcBusTable,
DcBusTable, AcBranchTable, DcBranchTable, ConverterTable) with one column per
field of the element dataclass, named as the field: ids and loss tables as
tuples, enum fields (``kind``, ``mode``, ``sequence_policy``) as int8 codes,
numbers as float arrays of (n,) or (n, 3) with NaN where a field is None, and
``filter_z`` and ``z_series``/``y_shunt`` as (n,) and (n, 3, 3) complex stacks;
a table with ids also maps ``pos``, id -> position.  A table builds all its
columns when it is made, from the loader's columns or from element objects, and
holds the element rules: it checks them over its columns then, so the element
classes are plain records, checked when a NetworkCase is made of them.  A table
is a Sequence of its elements: each is made from the columns when first indexed
and kept; a table made of element objects keeps them as given, so an AcBranch
may hold a scalar z_series, whose (n, 3, 3) form is ``ac_branches.z_series``.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DataError, TopologyError, finite_number
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
    (the converter record owns their behaviour).  The element classes are plain
    records: AcBusTable checks these rules when a NetworkCase is made.
    """

    id: str
    kind: AcBusKind
    p_set: tuple[float, float, float] | None = None
    q_set: tuple[float, float, float] | None = None
    v_set: tuple[float, float, float] | None = None
    v_mag: float | None = None
    v_angle: float = 0.0


def slack_phasors(v_mag: float, v_angle: float) -> np.ndarray:
    """Balanced three-phase set fixed by a slack bus's v_mag and v_angle."""
    a = np.exp(2j * np.pi / 3)
    base = v_mag * np.exp(1j * v_angle)
    return np.array([base, base * a**2, base * a], dtype=complex)


@dataclass(frozen=True, eq=False)
class DcBus:
    """One DC bus: fixed power injection (P), fixed voltage (V), or converter terminal."""

    id: str
    kind: DcBusKind
    p_set: float | None = None
    e_set: float | None = None


def _text_or_bool(value):
    """The first str or bool in ``value`` (numbers, nested in sequences or arrays),
    else None: numpy would parse a numeric str and count a bool as 0 or 1."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "bOSU":
            return None
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return next((bad for bad in map(_text_or_bool, value) if bad is not None), None)
    return value if isinstance(value, (str, bytes, bool, np.bool_)) else None


@dataclass(frozen=True, eq=False)
class AcBranch:
    """Symmetric three-phase pi section between two AC buses, a plain record that
    AcBranchTable checks: ``z_series`` is the 3x3 series impedance and ``y_shunt``
    the total 3x3 shunt admittance, half of it stamped on each end; a scalar for
    either stands for an uncoupled line, that value on each phase."""

    from_bus: str
    to_bus: str
    z_series: complex | np.ndarray
    y_shunt: complex | np.ndarray = 0j


@dataclass(frozen=True, eq=False)
class DcBranch:
    """Resistive DC branch."""

    from_bus: str
    to_bus: str
    r: float


@dataclass(frozen=True, eq=False)
class Converter:
    """AC/DC interfacing converter linking one AC bus and one DC bus: a plain
    record, which ConverterTable checks.  Its mode needs these setpoints and no
    others (per-unit; sequence powers are three-phase totals):

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
    p_neg_set: float | None = None
    q_neg_set: float | None = None
    v_mag_set: float | None = None


@dataclass(frozen=True, eq=False)
class BaseQuantities:
    """SI bases used only at the I/O boundary (solver math is per-unit)."""

    s_base_va: float = 100e3
    v_base_ac_v: float = 400.0   # line-to-line
    v_base_dc_v: float = 800.0
    f_line_hz: float = 50.0

    def __post_init__(self):
        for name in ("s_base_va", "v_base_ac_v", "v_base_dc_v", "f_line_hz"):
            object.__setattr__(self, name, finite_number(getattr(self, name), f"base: {name}"))

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


def _first_fault(faults, table) -> None:
    """DataError for the first element of ``table`` with a fault, with the message
    of its first fault: ``faults`` lists (one bool per element, message) in check
    order; a message names the element by ``k`` and its fields that are not
    numbers (ids as they are, an enum field as its member)."""
    bad = functools.reduce(operator.or_, [fault for fault, _ in faults])
    if bad.any():
        k = int(bad.argmax())
        msg = next(msg for fault, msg in faults if fault[k])
        raise DataError(msg.format(k=k, **{name: table._value(name, k) for name in table.layout
                                           if not isinstance(table.layout[name], np.dtype)}))


def _infinite(table, rule: str = "must be finite") -> list:
    """One rule per float column of ``table``: an element with an infinity there,
    named by the table's ``what``, the field and ``rule`` (a NaN there is an
    absent field, which the rules of the element's kind name)."""
    return [(np.isinf(getattr(table, name)).any(axis=tuple(range(1, len(layout.shape) + 1))),
             f"{table.what}: {name} {rule}")
            for name, layout in table.layout.items()
            if isinstance(layout, np.dtype) and layout.base == float]


def _has(column: np.ndarray) -> np.ndarray:
    """Which elements carry a field: its value is not all NaN."""
    return ~np.isnan(column).all(axis=tuple(range(1, column.ndim)))


_F, _F3, _C, _C33 = map(np.dtype, (float, (float, 3), complex, (complex, (3, 3))))
_REALS = {float, int, type(None), np.float64}
# by layout.base: the value types a column takes without a look at each value
_NUMBERS = {np.dtype(float): _REALS, np.dtype(complex): _REALS | {complex, np.complex128}}
_SCALARS = {float, complex, np.float64, np.complex128}  # a branch matrix column's (no huge int)
_SHAPE_TEXT = {(): "a number", (3,): "three numbers, one per phase", (3, 3): "a 3x3 matrix"}


def _entry_fault(value, layout: np.dtype) -> str | None:
    """Why ``value`` (None is no number) cannot be one element's entry of a
    column laid out as ``layout``, else None."""
    if (bad := _text_or_bool(value)) is not None or value is None:
        return f"must be a number, not {bad!r}"
    if layout.base == float and np.iscomplexobj(value):
        return f"must be a real number, not {value!r}"
    try:
        if np.array(value, layout.base).shape == layout.shape:
            return None
    except OverflowError:               # an int beyond the float range
        return "must be finite"
    except (TypeError, ValueError):     # not a number, or ragged
        pass
    return f"must be {_SHAPE_TEXT[layout.shape]}, not {value!r}"


class _Table(Sequence):
    """One element list of a NetworkCase, stored as one immutable column per
    element field, named as the field and laid out as ``layout`` says.

    The constructor takes the columns (``columns``) or the element objects
    (``elements``), builds every column at once and runs the element rules over
    them (``_faults``), the one place those rules are written.  Indexing or
    iterating yields the element's frozen dataclass, its *view*: the element
    object a table was made of, else one made from the columns on first access
    and kept in ``_views`` (None until then).
    """

    element: type
    # field -> None (a tuple of the values), an Enum class (int8 codes into its
    # members), or the dtype of one value (float ones NaN where the field is None)
    layout: dict
    what: str           # an element in messages, formatted with ``k`` and its id fields
    unknown: str = ""   # the message for a value that is not of its Enum class

    def __init__(self, columns: dict | None = None, elements=()):
        if columns is None:
            columns = {name: self._column(name, elements) for name in self.layout}
        for col in columns.values():
            if isinstance(col, np.ndarray):
                col.setflags(write=False)
        self.__dict__.update(columns)
        self._len = len(next(iter(columns.values())))
        self._views = elements or [None] * self._len
        if "id" in self.layout:     # id -> position
            self.pos = dict(zip(self.id, range(self._len)))
        _first_fault(self._faults(), self)

    def _column(self, name, elements):
        """The column of field ``name`` of ``elements``."""
        layout, values = self.layout[name], list(map(operator.attrgetter(name), elements))
        if layout is None:
            return tuple(values)
        if not isinstance(layout, np.dtype):    # an Enum class
            members = list(layout)
            try:
                return np.array([members.index(v) for v in values], np.int8)
            except ValueError:
                bad, value = next((e, v) for e, v in zip(elements, values) if v not in members)
                raise DataError(self.unknown.format(id=bad.id, name=name, value=value)) from None
        if layout == _C33:      # a scalar z stands for the uncoupled np.eye(3) * z
            scalar = np.ones(len(values), bool)
            if not set(map(type, values)) <= _SCALARS:      # look at each value
                scalar[:] = [not (isinstance(v, (list, tuple)) or getattr(v, "ndim", 0))
                             for v in values]
                self._refuse(name, elements, map(_entry_fault, values,
                                                 [_C if s else _C33 for s in scalar]))
            col = np.empty((len(values), 3, 3), complex)
            with np.errstate(over="ignore", invalid="ignore"):  # exact; a rule names an inf z
                col[scalar] = np.eye(3, dtype=complex) * np.array(
                    list(compress(values, scalar)), complex).reshape(-1, 1, 1)
            col[~scalar] = np.array(list(compress(values, ~scalar)), complex).reshape(-1, 3, 3)
            return col
        # the types of the values, and of the entries of per-phase tuples, at C
        # speed: only a type that is not a number of the column's kind, or a
        # column of the wrong shape, has it look at each value
        types = set(map(type, values))
        if types <= {tuple, type(None)}:
            types = set(map(type, chain.from_iterable(filter(None, values))))
        none = np.full(layout.shape, np.nan)
        col = None
        if types <= _NUMBERS[layout.base]:
            try:
                col = np.array([none if v is None else v for v in values], layout.base)
            except (ValueError, OverflowError):     # ragged, or huge
                pass
        if col is None or col.shape[1:] != layout.shape:    # None is an absent number here
            self._refuse(name, elements,
                         (v is not None and _entry_fault(v, layout) for v in values))
            col = np.array([none if v is None else v for v in values], layout.base)
        return col.reshape(-1, *layout.shape)     # (0, *shape) for no elements

    def _refuse(self, name, elements, faults):
        """DataError naming field ``name`` of the first element with a fault in ``faults``."""
        for k, fault in enumerate(faults):
            if fault:
                raise DataError(f"{self.what.format(k=k, **vars(elements[k]))}: {name} {fault}")

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(self._len)))
        k = operator.index(k)
        k = k + self._len if k < 0 else k
        if not 0 <= k < self._len:
            raise IndexError("table index out of range")
        if self._views[k] is None:
            self._views[k] = self.element(**{name: self._value(name, k) for name in self.layout})
        return self._views[k]

    def __iter__(self):
        return map(self.__getitem__, range(self._len))

    def _value(self, name, k):
        """Field ``name`` of element ``k`` as the element dataclass holds it."""
        value, layout = getattr(self, name)[k], self.layout[name]
        if not isinstance(layout, np.dtype):     # the value, or the member of its code
            return value if layout is None else list(layout)[value]
        if layout.base == float and np.isnan(value).all():
            return None
        return value if layout == _C33 else tuple(value.tolist()) if layout.shape else value.item()

    def mask(self, name, *members) -> np.ndarray:
        """Which elements have one of ``members`` (of its Enum class) as field ``name``."""
        return np.array([m in members for m in self.layout[name]])[getattr(self, name)]


class AcBusTable(_Table):
    """AC buses: ``id``; ``kind``; the (n, 3) ``p_set``, ``q_set``, ``v_set``;
    the (n,) ``v_mag`` and ``v_angle``; ``pos``."""

    element, what, unknown = AcBus, "AC bus {id}", "bus {id} has unknown {name} {value!r}"
    layout = {"id": None, "kind": AcBusKind, "p_set": _F3, "q_set": _F3, "v_set": _F3,
              "v_mag": _F, "v_angle": _F}

    def _faults(self) -> list:
        p, q, v, vm = map(_has, (self.p_set, self.q_set, self.v_set, self.v_mag))
        # a per-phase setpoint a bus needs is missing where one phase is NaN
        p_all, q_all, v_all = (~np.isnan(col).any(axis=1)
                               for col in (self.p_set, self.q_set, self.v_set))
        slack, pq, pv, conv = (self.kind == code for code in range(4))
        return [(pq & ~(p_all & q_all), "PQ bus {id} needs p_set and q_set for all phases"),
                (pq & (v | vm), "PQ bus {id} must not carry voltage setpoints"),
                (pv & ~(p_all & v_all), "PV bus {id} needs p_set and v_set for all phases"),
                (pv & q, "PV bus {id} must not carry q_set"),
                (pv & vm, "PV bus {id} must not carry v_mag"),
                (slack & ~vm, "slack bus {id} needs v_mag"),
                (slack & (self.v_mag <= 0), "slack bus {id} needs v_mag > 0"),
                (slack & np.isnan(self.v_angle), "slack bus {id} needs v_angle"),
                (slack & (p | q | v), "slack bus {id} carries only v_mag and v_angle"),
                (conv & (p | q | v | vm), "converter bus {id} must not carry direct setpoints"),
                (~slack & (self.v_angle != 0), "non-slack bus {id} must not carry v_angle"),
                *_infinite(self)]


class DcBusTable(_Table):
    """DC buses: ``id``; ``kind``; the (n,) ``p_set`` and ``e_set``; ``pos``."""

    element, what, unknown = DcBus, "DC bus {id}", AcBusTable.unknown
    layout = {"id": None, "kind": DcBusKind, "p_set": _F, "e_set": _F}

    def _faults(self) -> list:
        p, e = _has(self.p_set), _has(self.e_set)
        p_bus, v_bus, conv = (self.kind == code for code in range(3))
        return [(p_bus & ~p, "DC P bus {id} needs p_set"),
                (p_bus & e, "DC P bus {id} must not carry e_set"),
                (v_bus & ~(self.e_set > 0), "DC V bus {id} needs e_set > 0"),
                (v_bus & p, "DC V bus {id} must not carry p_set"),
                (conv & (p | e), "converter bus {id} must not carry direct setpoints"),
                *_infinite(self)]


def _same_ends(branches) -> tuple:
    return (np.fromiter(map(operator.eq, branches.from_bus, branches.to_bus), bool, len(branches)),
            "branch endpoints must differ ({from_bus})")


def _asymmetric(m: np.ndarray) -> np.ndarray:
    """Which of the (n, 3, 3) stack ``m`` have an entry of m - m^T above 1e-12 in
    magnitude."""
    mt = m.swapaxes(1, 2)
    return np.zeros(len(m), bool) if (m == mt).all() else np.abs(m - mt).max(axis=(1, 2)) > 1e-12


class AcBranchTable(_Table):
    """AC branches: ``from_bus``, ``to_bus``; the (n, 3, 3) ``z_series`` and ``y_shunt``."""

    element, what = AcBranch, "ac_branches[{k}] ({from_bus}-{to_bus})"
    layout = {"from_bus": None, "to_bus": None, "z_series": _C33, "y_shunt": _C33}

    def _faults(self) -> list:
        where = self.what + ": "
        z, y = self.z_series, self.y_shunt
        # a NaN or inf is named by the finite rules; a det beyond the float range is no fault
        with np.errstate(invalid="ignore", over="ignore"):
            return [_same_ends(self),
                    (~np.isfinite(z).all(axis=(1, 2)), where + "z_series must be finite"),
                    (~np.isfinite(y).all(axis=(1, 2)), where + "y_shunt must be finite"),
                    (_asymmetric(z), where + "z_series must be symmetric"),
                    (_asymmetric(y), where + "y_shunt must be symmetric"),
                    (np.abs(np.linalg.det(z)) < 1e-14, where + "z_series is singular")]


class DcBranchTable(_Table):
    """DC branches: ``from_bus``, ``to_bus``; the (n,) resistances ``r``."""

    element, what = DcBranch, "DC branch {from_bus}-{to_bus}"
    layout = {"from_bus": None, "to_bus": None, "r": _F}

    def _faults(self) -> list:
        return [_same_ends(self), (~(self.r > 0), self.what + " needs r > 0"), *_infinite(self)]


class ConverterTable(_Table):
    """Converters: ``id``, ``ac_bus``, ``dc_bus``; ``mode`` and
    ``sequence_policy`` codes; ``loss``, a tuple of LossParams; the complex (n,)
    ``filter_z``; the (n,) ``setpoints``; ``pos``."""

    element, what, unknown = Converter, "converter {id}", "converter {id}: unknown {name} {value!r}"
    setpoints = ("e_dc_set", "q_pos_set", "p_pos_set", "p_neg_set", "q_neg_set", "v_mag_set")
    layout = {"id": None, "ac_bus": None, "dc_bus": None, "mode": ConverterMode,
              "sequence_policy": SequencePolicy, "loss": None, "filter_z": _C,
              **dict.fromkeys(setpoints, _F)}

    def _faults(self) -> list:
        where = self.what + ": "
        e_dc, _, _, p_neg, q_neg, v_mag = cols = [getattr(self, name) for name in self.setpoints]
        _, q, p, pn, qn, _ = has = list(map(_has, cols))
        edc, pac, vac = (self.mode == code for code in range(3))
        neg = self.mask("sequence_policy", SequencePolicy.WITH_NEGATIVE)
        # which converters read each setpoint, and the field that decides it
        reads = [(edc, "mode"), (edc | pac, "mode"), (pac | vac, "mode"),
                 (neg, "sequence_policy"), (neg, "sequence_policy"), (vac, "mode")]
        return [*_infinite(self, "must be a finite number"),
                (~np.isfinite(self.filter_z), where + "filter_z must be a finite number"),
                (self.filter_z.real < 0, where + "filter resistance must be >= 0"),
                (neg & ~pac, where + "with_negative is only valid in pac_qac mode"),
                (edc & ~((e_dc > 0) & q), where + "edc_qac needs e_dc_set > 0 and q_pos_set"),
                (pac & ~(p & q), where + "pac_qac needs p_pos_set and q_pos_set"),
                (neg & ~(pn & qn), where + "with_negative needs p_neg_set and q_neg_set"),
                # S- = 3 E- conj(I-) = 0 factors into two solution branches and
                # leaves the problem underdetermined; use positive_only instead.
                (neg & (p_neg == 0) & (q_neg == 0),
                 where + "with_negative needs a nonzero negative-sequence reference"),
                (vac & ~(p & (v_mag > 0)), where + "pac_vac needs p_pos_set and v_mag_set > 0"),
                *((carried & ~read, where + "{%s.value} converter must not carry %s" % (by, name))
                  for name, carried, (read, by) in zip(self.setpoints, has, reads))]


@dataclass(frozen=True, eq=False)
class NetworkCase:
    """Complete description of one hybrid AC/DC network (immutable).  Each element
    list is a table (the _Table subclasses above); any sequence of element objects
    given for one becomes one."""

    name: str
    ac_buses: AcBusTable = ()
    dc_buses: DcBusTable = ()
    ac_branches: AcBranchTable = ()
    dc_branches: DcBranchTable = ()
    converters: ConverterTable = ()
    base: BaseQuantities = field(default_factory=BaseQuantities)
    description: str = ""
    # bus id -> position in ac_buses / dc_buses; the one id-to-index map of a case
    ac_pos: dict = field(init=False, repr=False)
    dc_pos: dict = field(init=False, repr=False)

    def __post_init__(self):
        for name, table in (("ac_buses", AcBusTable), ("dc_buses", DcBusTable),
                            ("ac_branches", AcBranchTable), ("dc_branches", DcBranchTable),
                            ("converters", ConverterTable)):
            elements = getattr(self, name)
            if type(elements) is not table:     # a table is kept as it is
                object.__setattr__(self, name, table(elements=tuple(elements)))
        object.__setattr__(self, "ac_pos", self.ac_buses.pos)
        object.__setattr__(self, "dc_pos", self.dc_buses.pos)
        # the union falls short of the bus count exactly when some id repeats
        if len(self.ac_pos.keys() | self.dc_pos.keys()) != len(self.ac_buses) + len(self.dc_buses):
            raise DataError("bus ids must be unique across the AC and DC grids")
        if len(self.converters.pos) != len(self.converters):
            raise DataError("converter ids must be unique")

    @functools.cached_property
    def ends(self) -> tuple:
        """The (from, to) positions of the end buses of every AC branch in ac_pos, then
        of every DC branch in dc_pos; -1 for an end that is not a bus of its grid."""
        out = []
        for branches, pos in ((self.ac_branches, self.ac_pos), (self.dc_branches, self.dc_pos)):
            n = len(branches)
            out.append(tuple(np.fromiter(map(pos.get, ids, repeat(-1, n)), dtype=int, count=n)
                             for ids in (branches.from_bus, branches.to_bus)))
            for a in out[-1]:
                a.setflags(write=False)
        return tuple(out)

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


def _branch_ends(branches, ends, what: str):
    """``ends``, the end-bus positions of ``branches``; TopologyError names a branch
    with an end not on its grid."""
    for k in np.flatnonzero((ends[0] < 0) | (ends[1] < 0))[:1].tolist():
        raise TopologyError(f"{what} {branches.from_bus[k]}-{branches.to_bus[k]} references a "
                            "bus that does not exist")
    return ends


def ac_branch_arrays(case: NetworkCase):
    """Every AC branch at once: the positions of its end buses and its (n, 3, 3)
    series admittance (one batched inversion of z_series) and half shunt."""
    frm, to = _branch_ends(case.ac_branches, case.ends[0], "branch")
    return frm, to, np.linalg.inv(case.ac_branches.z_series), case.ac_branches.y_shunt / 2.0


def dc_branch_arrays(case: NetworkCase):
    """Every DC branch at once: the positions of its end buses and its resistance."""
    return (*_branch_ends(case.dc_branches, case.ends[1], "DC branch"), case.dc_branches.r)


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
    frm, to = np.concatenate([np.stack([frm, to])[:, (frm >= 0) & (to >= 0)] + off
                              for off, (frm, to) in zip((0, n_ac), case.ends)], axis=1)
    ids = np.array(case.ac_buses.id + case.dc_buses.id, dtype=object)
    graph = sp.coo_matrix((np.ones(len(frm)), (frm, to)), shape=(len(ids),) * 2)
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
    for grid, pos, branches, (frm, to) in zip(("AC", "DC"), (case.ac_pos, case.dc_pos),
                                              (case.ac_branches, case.dc_branches), case.ends):
        for k in np.flatnonzero((frm < 0) | (to < 0)).tolist():
            ends = (branches.from_bus[k], branches.to_bus[k])
            for end in ends:
                if end not in pos:
                    diags.append(Diagnostic("dangling-branch", f"{ends[0]}-{ends[1]}",
                                            f"{grid} branch endpoint {end} does not exist"))

    ac_conv = case.ac_buses.mask("kind", AcBusKind.CONVERTER)
    dc_conv = case.dc_buses.mask("kind", DcBusKind.CONVERTER)
    convs = case.converters
    seen_ac, seen_dc = set(), set()
    for cid, ac_bus, dc_bus in zip(convs.id, convs.ac_bus, convs.dc_bus):
        for grid, bus, pos, is_conv in (("AC", ac_bus, case.ac_pos, ac_conv),
                                        ("DC", dc_bus, case.dc_pos, dc_conv)):
            if bus not in pos or not is_conv[pos[bus]]:
                what = "does not exist" if bus not in pos else "is not a converter bus"
                diags.append(Diagnostic("bad-link", cid, f"{grid} bus {bus} {what}"))
        if ac_bus in seen_ac or dc_bus in seen_dc:
            diags.append(Diagnostic("bad-link", cid, "bus is linked to more than one converter"))
        seen_ac.add(ac_bus)
        seen_dc.add(dc_bus)

    for grid, buses, seen, is_conv in (("AC", case.ac_buses, seen_ac, ac_conv),
                                       ("DC", case.dc_buses, seen_dc, dc_conv)):
        for k in np.flatnonzero(is_conv).tolist():
            if buses.id[k] not in seen:
                diags.append(Diagnostic("orphan-bus", buses.id[k],
                                        f"converter {grid} bus has no converter"))

    held = case.dc_buses.mask("kind", DcBusKind.V)
    edc = compress(convs.dc_bus, convs.mask("mode", ConverterMode.EDC_QAC))
    held[[case.dc_pos[b] for b in edc if b in case.dc_pos]] = True
    counted = np.concatenate([case.ac_buses.mask("kind", AcBusKind.SLACK), held])
    for is_ac, island, n in _islands(case, counted):
        if is_ac and n != 1:
            code, msg = (("no-slack", "AC island has no slack bus") if n == 0 else
                         ("multiple-slack", f"AC island has {int(n)} slack buses"))
            diags.append(Diagnostic(code, ",".join(sorted(island)), msg))
        elif not is_ac and n == 0:
            diags.append(Diagnostic("no-dc-voltage-source", ",".join(sorted(island)),
                                    "DC island has no V node and no edc_qac converter"))

    return diags
