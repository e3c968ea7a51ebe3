"""Case and solution files: JSON schema, strict validation, unit conversion.

Case files are human-diffable JSON with an explicit ``schema_version`` and a
``units`` flag.  ``"pu"`` files carry solver-ready per-unit values; ``"si"``
files carry ohms / watts / volts and are converted on load using the ``base``
block (AC impedance base is V_pg^2 / S_base with V_pg the phase-to-ground
voltage base, so per-phase powers live on the full system base).  Converter
commutation times are always seconds and R_eq tables always per-unit.

Unknown fields are rejected with a JSON-path location.  Complex numbers are
``[re, im]`` pairs; 3x3 matrices are nested lists of such pairs.

Case and solution files are read with orjson (``_parse``); a document it refuses
(invalid JSON, or the NaN, Infinity and out-of-range numbers the loader names)
is read again by the standard library's json.  Both are written by orjson, as
UTF-8, with floats in shortest round-trip form (``1e-6``, ``-0.00005``): case
files indented by two spaces, solution files compact.  Either reader parses a
float back to the same bits, so save -> load round-trips are bit-exact.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np
import orjson

from .errors import CaseFormatError, DataError, TopologyError
from .losses import LossParams
from .network import (
    AcBranchTable,
    AcBusTable,
    BaseQuantities,
    ConverterMode,
    ConverterTable,
    DcBranchTable,
    DcBusTable,
    NetworkCase,
    SequencePolicy,
    validate_topology,
)
from .residuals import StateVector, as_model
from .solver import ac_flows, dc_flows, sequence_sets

SCHEMA_VERSION = 1
SOLUTION_SCHEMA_VERSION = 3


def _gc_paused(fn):
    """``fn`` with the cyclic garbage collector paused: a large file makes some 10^5
    acyclic containers, and each collection they would trigger walks every live object."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _err(msg, loc, path):
    raise CaseFormatError(msg, location=loc, path=str(path) if path else None)


def _check_keys(obj, required, optional, loc, path):
    if not isinstance(obj, dict):
        _err("expected an object", loc, path)
    for key in obj:
        if key not in required and key not in optional:
            _err(f"unknown field {key!r}", loc, path)
    for key in required:
        if key not in obj:
            _err(f"missing field {key!r}", loc, path)


def _num(value, loc, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _err("expected a number", loc, path)
    try:
        number = float(value)
    except OverflowError:           # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):   # json also reads NaN, Infinity and -Infinity
        _err("expected a finite number", loc, path)
    return number


# How a numeric field nests, outermost level first: (length, the message when a
# level is not a list of that length, whether its items are located by index).
_PAIR = ((2, "expected a complex number as [re, im]", False),)
_TRIPLE = ((3, "expected three per-phase values [a, b, c]", True),)
_MATRIX = ((3, "expected a 3x3 matrix", True), (3, "expected a 3x3 matrix", True)) + _PAIR


def _checked(value, levels, loc, path):
    """``value`` once it is numbers nested as ``levels`` says; otherwise the format
    error of its first fault."""
    if not levels:
        return _num(value, loc, path)
    size, msg, indexed = levels[0]
    if not (isinstance(value, list) and len(value) == size):
        _err(msg, loc, path)
    for i, item in enumerate(value):
        _checked(item, levels[1:], f"{loc}[{i}]" if indexed else loc, path)
    return value


def _strings(items, key, field, path) -> tuple:
    """The ``field`` of every element of list ``key``, once each is a string;
    otherwise the format error of the first that is not."""
    values = tuple(map(itemgetter(field), items))
    if not set(map(type, values)) <= {str}:
        k = next(k for k, v in enumerate(values) if type(v) is not str)
        _err("expected a string", f"{key}[{k}].{field}", path)
    return values


def _floats(values, levels):
    """All values as one float array of shape (len(values), *lengths), or None when
    some value is not finite numbers (bools excluded) in lists nested to those
    lengths."""
    shape = (len(values),) + tuple(size for size, _, _ in levels)
    try:
        for size, _, _ in levels:   # a str or dict never yields numbers below it
            if set(map(len, values)) != {size}:
                return None
            values = list(chain.from_iterable(values))
    except TypeError:
        return None
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.array(values, dtype=float).reshape(shape)
    except OverflowError:
        return None
    return array if np.isfinite(array).all() else None


def _read_fields(items, key, fields_of, path, tags=()) -> dict:
    """The numeric fields of list ``key``: field name -> (the positions of the
    elements that have it, one float array of their values in element order).

    fields_of(obj, loc, path) checks an element's keys and returns the (name,
    levels) of its numeric fields.  What it finds depends only on the element's
    keys and the values of its ``tags`` fields (strs), so it runs once per
    distinct shape, on the first element that has it; elements are thus checked
    in document order.  A malformed value is named by a second walk over the
    elements."""
    # an element's shape: its keys and tag values.  Each element gets the code of
    # its shape, numbered in order of first sight.
    try:
        if not set(map(type, items)) <= {dict}:
            raise TypeError
        shapes = list(zip(map(tuple, items), *([obj.get(tag) for obj in items] for tag in tags)))
        code = {shape: c for c, shape in enumerate(dict.fromkeys(shapes))}
    except TypeError:       # an element not an object, or an unhashable tag value
        for k, obj in enumerate(items):     # fields_of rejects the first of them
            fields_of(obj, f"{key}[{k}]", path)
        raise
    codes = np.array(list(map(code.__getitem__, shapes)), dtype=np.intp)
    fields = {}     # name -> (levels, the codes of the shapes with that field)
    for c, k in enumerate(np.unique(codes, return_index=True)[1].tolist()):
        for name, levels in fields_of(items[k], f"{key}[{k}]", path):
            fields.setdefault(name, (levels, []))[1].append(c)
    arrays = {}
    for name, (levels, having) in fields.items():
        rows = np.flatnonzero(np.isin(codes, having))
        values = items if len(having) == len(code) else [items[k] for k in rows.tolist()]
        arrays[name] = rows, _floats(list(map(itemgetter(name), values)), levels)
    if any(a is None for _, a in arrays.values()):
        for k, obj in enumerate(items):
            loc = f"{key}[{k}]"
            for name, levels in fields_of(obj, loc, path):
                _checked(obj[name], levels, f"{loc}.{name}", path)
    return arrays


class _Scale:
    """Multiplicative SI -> per-unit factors (all 1.0 for pu files)."""

    def __init__(self, units, base: BaseQuantities):
        si = units == "si"
        self.power = 1.0 / base.s_base_va if si else 1.0
        self.z_ac = 1.0 / base.z_base_ac if si else 1.0
        self.y_ac = base.z_base_ac if si else 1.0
        self.v_ac = 1.0 / base.v_base_ac_pg if si else 1.0
        self.z_dc = 1.0 / base.z_base_dc if si else 1.0
        self.v_dc = 1.0 / base.v_base_dc_v if si else 1.0


_BASE_KEYS = ("s_base_va", "v_base_ac_v", "v_base_dc_v", "f_line_hz")
_LOSS_ARGS = {"t_on_s": ("t_on", 0.0), "t_off_s": ("t_off", 0.0), "t_rec_s": ("t_rec", 0.0),
              "t_s_s": ("t_s", 1.0), "n_ratio": ("n_ratio", 2.0)}  # key -> (argument, default)
_R_EQ_PAIR = ((2, "r_eq_table entries are [current, ohm_pu] pairs", False),)
# converter setpoint -> (its nesting, the column it fills (the key and "_set"), its _Scale factor)
_SETPOINTS = {column[:-4]: ((), column, factor) for column, factor in zip(
    ConverterTable.setpoints, ("v_dc", "power", "power", "power", "power", "v_ac"))}


def _parse_base(obj, path) -> BaseQuantities:
    _check_keys(obj, (), _BASE_KEYS, "base", path)
    defaults = BaseQuantities()
    return BaseQuantities(**{key: _num(obj.get(key, getattr(defaults, key)), f"base.{key}", path)
                             for key in _BASE_KEYS})


# bus list -> (grid, bus table, {kind (its member's value): (required numeric fields,
#             optional ones)}, {numeric field: (its nesting, the column, its _Scale factor)})
_BUSES = {
    "ac_buses": ("AC", AcBusTable, {
        "slack": (("v_mag",), ("v_angle_rad",)),
        "pq": (("p", "q"), ()),
        "pv": (("p", "v"), ()),
        "converter": ((), ()),
    }, {"p": (_TRIPLE, "p_set", "power"), "q": (_TRIPLE, "q_set", "power"),
        "v": (_TRIPLE, "v_set", "v_ac"), "v_mag": ((), "v_mag", "v_ac"),
        "v_angle_rad": ((), "v_angle", None)}),
    "dc_buses": ("DC", DcBusTable, {
        "p": (("p",), ()),
        "v": (("e",), ()),
        "converter": ((), ()),
    }, {"p": ((), "p_set", "power"), "e": ((), "e_set", "v_dc")}),
}


def _parse_buses(key, items, sc, path):
    grid, table, kinds, args = _BUSES[key]
    allowed = {kind: {"id", "kind", *required, *optional}
               for kind, (required, optional) in kinds.items()}

    def fields_of(obj, loc, path):
        _check_keys(obj, ("id", "kind"), tuple(args), loc, path)
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            _err(f"unknown {grid} bus kind {kind!r}", f"{loc}.kind", path)
        required, optional = kinds[kind]
        for name in required:
            if name not in obj:
                _err(f"missing field {name!r} for kind {kind!r}", loc, path)
        if not obj.keys() <= allowed[kind]:
            name = next(name for name in obj if name not in allowed[kind])
            _err(f"field {name!r} is not valid for kind {kind!r}", loc, path)
        return [(name, args[name][0]) for name in required + optional if name in obj]

    fields = _read_fields(items, key, fields_of, path, tags=("kind",))
    return table({"id": _strings(items, key, "id", path),
                  "kind": _codes(items, "kind", table.layout["kind"]),
                  **_numeric_columns(table, len(items), fields, args, sc)})


def _codes(items, tag, enum, default=None) -> np.ndarray:
    """The int8 codes into ``enum`` of the ``tag`` values (its members' values,
    ``default`` where absent) of checked elements."""
    code = {member.value: k for k, member in enumerate(enum)}
    return np.array([code[obj.get(tag, default)] for obj in items], dtype=np.int8)


def _numeric_columns(table, n, fields, args, sc) -> dict:
    """The columns of ``table`` that _read_fields's ``fields`` fill as ``args``
    says, with the column's default (NaN for None) where an element lacks one."""
    columns = {}
    for name, (levels, column, factor) in args.items():
        default = getattr(table.element, column)    # None, or the field's default value
        col = columns[column] = np.full((n,) + (3,) * len(levels),
                                        np.nan if default is None else default)
        if name in fields:
            rows, a = fields[name]
            col[rows] = a * getattr(sc, factor) if factor else a
    return columns


_BRANCH_LEVELS = {"z_series": _MATRIX, "z_self": _PAIR, "z_mutual": _PAIR,
                  "y_shunt": _MATRIX, "y_shunt_self": _PAIR}


def _ac_branch_fields(obj, loc, path):
    _check_keys(obj, ("from", "to"), tuple(_BRANCH_LEVELS), loc, path)
    if ("z_series" in obj) == ("z_self" in obj):
        _err("exactly one of z_series or z_self is required", loc, path)
    if "z_series" in obj and "z_mutual" in obj:
        _err("z_mutual is only valid together with z_self", loc, path)
    if "y_shunt" in obj and "y_shunt_self" in obj:
        _err("give either y_shunt or y_shunt_self, not both", loc, path)
    return [(name, levels) for name, levels in _BRANCH_LEVELS.items() if name in obj]


def _parse_ac_branches(items, sc, path) -> AcBranchTable:
    # [re, im] pairs scaled part by part (a complex product would drop the sign
    # of a zero part) and read as complex into the (n, 3, 3) z_series and y_shunt
    # stacks; a z_self (z_mutual off the diagonal, else 0) or a y_shunt_self
    # (0 off the diagonal) forms the 3x3
    n, diag = len(items), np.arange(3)
    vals = {name: (rows, (a * (sc.y_ac if name.startswith("y") else sc.z_ac)).view(complex)[..., 0])
            for name, (rows, a) in _read_fields(items, "ac_branches", _ac_branch_fields,
                                                path).items()}
    z_series, y_shunt = np.zeros((2, n, 3, 3), dtype=complex)
    if "z_series" in vals:
        rows, z = vals["z_series"]
        z_series[rows] = z
    if "z_self" in vals:
        mutual = np.zeros(n, dtype=complex)
        if "z_mutual" in vals:
            mutual[vals["z_mutual"][0]] = vals["z_mutual"][1]
        rows, z = vals["z_self"]
        z_series[rows] = mutual[rows, None, None]
        z_series[rows[:, None], diag, diag] = z[:, None]
    if "y_shunt" in vals:
        rows, y = vals["y_shunt"]
        y_shunt[rows] = y
    if "y_shunt_self" in vals:
        rows, y = vals["y_shunt_self"]
        y_shunt[rows[:, None], diag, diag] = y[:, None]
    return AcBranchTable({"from_bus": _strings(items, "ac_branches", "from", path),
                          "to_bus": _strings(items, "ac_branches", "to", path),
                          "z_series": z_series, "y_shunt": y_shunt})


def _dc_branch_fields(obj, loc, path):
    _check_keys(obj, ("from", "to", "r"), (), loc, path)
    return [("r", ())]


def _parse_dc_branches(items, sc, path) -> DcBranchTable:
    r = _read_fields(items, "dc_branches", _dc_branch_fields, path).get("r")
    return DcBranchTable({"from_bus": _strings(items, "dc_branches", "from", path),
                          "to_bus": _strings(items, "dc_branches", "to", path),
                          "r": np.zeros(0) if r is None else r[1] * sc.z_dc})


def _parse_loss(obj, loc, path) -> LossParams:
    _check_keys(obj, (), ("r_eq_table", *_LOSS_ARGS), loc, path)
    table = obj.get("r_eq_table", [[0.0, 0.0]])
    if not isinstance(table, list) or not table:
        _err("r_eq_table must be a non-empty list of [current, ohm_pu] pairs", loc, path)
    return LossParams(
        r_eq_table=[_checked(pair, _R_EQ_PAIR, f"{loc}.r_eq_table[{k}]", path)
                    for k, pair in enumerate(table)],
        **{arg: _num(obj.get(key, default), f"{loc}.{key}", path)
           for key, (arg, default) in _LOSS_ARGS.items()},
    )


def _converter_fields(obj, loc, path):
    _check_keys(obj, ("id", "ac_bus", "dc_bus", "mode"),
                ("sequence_policy", "filter_z", "loss", *_SETPOINTS), loc, path)
    mode = obj["mode"]
    if mode not in ("edc_qac", "pac_qac", "pac_vac"):
        _err(f"unknown converter mode {mode!r}", f"{loc}.mode", path)
    policy = obj.get("sequence_policy", "positive_only")
    if policy not in ("positive_only", "with_negative"):
        _err(f"unknown sequence_policy {policy!r}", f"{loc}.sequence_policy", path)
    return [(key, _PAIR if key == "filter_z" else ()) for key in ("filter_z", *_SETPOINTS)
            if key in obj]


def _parse_converters(items, sc, path) -> ConverterTable:
    fields = _read_fields(items, "converters", _converter_fields, path,
                          tags=("mode", "sequence_policy"))
    parsed = {}     # repr of a loss object -> its LossParams: equal objects parse once

    def loss(k, obj) -> LossParams:
        key = repr(obj)
        if key not in parsed:
            parsed[key] = _parse_loss(obj, f"converters[{k}].loss", path)
        return parsed[key]

    filter_z = np.zeros(len(items), dtype=complex)
    if "filter_z" in fields:
        rows, a = fields["filter_z"]    # scaled part by part, as the branch impedances
        filter_z[rows] = (a * sc.z_ac).view(complex)[:, 0]
    return ConverterTable({
        **{name: _strings(items, "converters", name, path) for name in ("id", "ac_bus", "dc_bus")},
        "mode": _codes(items, "mode", ConverterMode),
        "sequence_policy": _codes(items, "sequence_policy", SequencePolicy, "positive_only"),
        "loss": tuple(loss(k, obj.get("loss", {})) for k, obj in enumerate(items)),
        "filter_z": filter_z,
        **_numeric_columns(ConverterTable, len(items), fields, _SETPOINTS, sc)})


def _parse(data, path) -> object:
    """The JSON document in ``data`` (str or bytes).  What orjson refuses is read by
    json, which also takes NaN, Infinity, -Infinity and integers beyond the float
    range, so the loader's checks name where such a number is; invalid JSON is a
    CaseFormatError."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(data)
    except ValueError as exc:       # a JSONDecodeError, or bytes that are not UTF-8
        raise CaseFormatError(f"invalid JSON: {exc}", path=str(path) if path else None)


@_gc_paused
def loads_case(text: str | bytes, path=None) -> NetworkCase:
    """Parse and validate a case document; returns a per-unitized NetworkCase."""
    doc = _parse(text, path)
    _check_keys(
        doc, ("schema_version", "name", "units"),
        ("description", "base", "ac_buses", "dc_buses",
         "ac_branches", "dc_branches", "converters"),
        "$", path,
    )
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:   # not True, not 1.0
        _err(f"unsupported schema_version {version!r}", "schema_version", path)
    for key in ("name", "description"):
        if type(doc.get(key, "")) is not str:
            _err("expected a string", key, path)
    units = doc["units"]
    if units not in ("pu", "si"):
        _err(f"units must be 'pu' or 'si', got {units!r}", "units", path)
    base = _parse_base(doc.get("base", {}), path)
    sc = _Scale(units, base)

    def items(key):
        out = doc.get(key, [])
        if not isinstance(out, list):
            _err("expected a list", key, path)
        return out

    try:
        case = NetworkCase(
            name=doc["name"],
            description=doc.get("description", ""),
            base=base,
            ac_buses=_parse_buses("ac_buses", items("ac_buses"), sc, path),
            dc_buses=_parse_buses("dc_buses", items("dc_buses"), sc, path),
            ac_branches=_parse_ac_branches(items("ac_branches"), sc, path),
            dc_branches=_parse_dc_branches(items("dc_branches"), sc, path),
            converters=_parse_converters(items("converters"), sc, path),
        )
    except CaseFormatError:
        raise
    except Exception as exc:
        raise CaseFormatError(str(exc), path=str(path) if path else None)

    diags = validate_topology(case)
    if diags:
        raise TopologyError(
            (f"{path}: " if path else "") + "; ".join(str(d) for d in diags)
        )
    return case


def load_case(path) -> NetworkCase:
    """Read, validate and per-unitize a case file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CaseFormatError(f"cannot read file: {exc}", path=str(path))
    return loads_case(data, path=path)


def _pairs(values) -> list:
    """A stack of complex values as nested lists with [re, im] pairs innermost."""
    a = np.ascontiguousarray(values if isinstance(values, np.ndarray) else list(values),
                             dtype=complex)
    return a.view(float).reshape(a.shape + (2,)).tolist()


def _uniform(stack) -> tuple:
    """For each matrix of a (n, 3, 3) complex stack: whether its diagonal entries
    are equal, whether its off-diagonal entries are, and whether those are all
    +0.  Entries are compared by their bits, so that a signed zero counts."""
    bits = np.ascontiguousarray(stack, dtype=complex).view(np.uint64).reshape(len(stack), 9, 2)
    diag, off = bits[:, ::4], bits[:, [1, 2, 3, 5, 6, 7]]
    return ((diag == diag[:, :1]).all(axis=(1, 2)), (off == off[:, :1]).all(axis=(1, 2)),
            ~off.any(axis=(1, 2)))


def _ac_branch_items(branches) -> list:
    """The ac_branches list: each impedance in the shortest form that reads back bit
    for bit.  That is z_self (with z_mutual unless it is +0) where z_series is
    diagonal-equal and off-diagonal-equal, y_shunt_self where y_shunt is
    diagonal-equal and +0 off the diagonal, the full matrix otherwise, and no
    shunt where y_shunt is all +0."""
    z, y = branches.z_series, branches.y_shunt
    items = [{"from": frm, "to": to} for frm, to in zip(branches.from_bus, branches.to_bus)]
    z_diag, z_off, z_zero = _uniform(z)
    y_diag, _, y_zero = _uniform(y)
    compact, shunt = z_diag & z_off, y.view(np.uint64).any(axis=(1, 2))   # -0.0 as well
    y_self = shunt & y_diag & y_zero
    for name, where, values in (("z_self", compact, z[:, 0, 0]),
                                ("z_mutual", compact & ~z_zero, z[:, 0, 1]),
                                ("z_series", ~compact, z), ("y_shunt_self", y_self, y[:, 0, 0]),
                                ("y_shunt", shunt & ~y_self, y)):
        rows = np.flatnonzero(where)
        for k, value in zip(rows.tolist(), _pairs(values[rows])):
            items[k][name] = value
    return items


def case_to_dict(case: NetworkCase) -> dict:
    """Schema document of a case, always in per-unit."""
    doc = {"schema_version": SCHEMA_VERSION, "name": case.name, "units": "pu",
           "base": {key: getattr(case.base, key) for key in _BASE_KEYS}}
    if case.description:
        doc["description"] = case.description
    for key, buses in (("ac_buses", case.ac_buses), ("dc_buses", case.dc_buses)):
        kinds, args = _BUSES[key][2:]
        names = [kind.value for kind in buses.layout["kind"]]
        fields = [sum(kinds[name], ()) for name in names]    # required, then optional
        values = {name: getattr(buses, column).tolist() for name, (_, column, _) in args.items()}
        doc[key] = [{"id": bus_id, "kind": names[code],
                     **{name: values[name][k] for name in fields[code]}}
                    for k, (bus_id, code) in enumerate(zip(buses.id, buses.kind.tolist()))]
    dc_br = case.dc_branches
    doc["ac_branches"] = _ac_branch_items(case.ac_branches)
    doc["dc_branches"] = [{"from": frm, "to": to, "r": r}
                          for frm, to, r in zip(dc_br.from_bus, dc_br.to_bus, dc_br.r.tolist())]
    conv = case.converters
    modes, policies = ([m.value for m in enum] for enum in (ConverterMode, SequencePolicy))
    setpoints = [(key, getattr(conv, col).tolist()) for key, (_, col, _) in _SETPOINTS.items()]
    doc["converters"] = [
        {"id": conv_id, "ac_bus": ac_bus, "dc_bus": dc_bus, "mode": modes[mode],
         "sequence_policy": policies[policy], "filter_z": filter_z,
         "loss": {"r_eq_table": [list(p) for p in loss.r_eq_table],
                  **{key: getattr(loss, arg) for key, (arg, _) in _LOSS_ARGS.items()}},
         **{key: values[k] for key, values in setpoints if not math.isnan(values[k])}}
        for k, (conv_id, ac_bus, dc_bus, mode, policy, filter_z, loss) in enumerate(zip(
            conv.id, conv.ac_bus, conv.dc_bus, conv.mode.tolist(), conv.sequence_policy.tolist(),
            _pairs(conv.filter_z), conv.loss))
    ]
    return doc


def _write_case(case: NetworkCase, write) -> None:
    """Pass the text of a case file to ``write`` as UTF-8 pieces, one top-level
    field at a time, so that a large case's text is never held whole.  A value is
    dumped indented and shifted in by two spaces: a JSON string holds no raw
    newline, so every newline starts a line of layout.  orjson would write a NaN
    or an infinity as null, but a NetworkCase holds only finite numbers: its
    elements and tables reject the others."""
    doc = case_to_dict(case)
    for k, key in enumerate(list(doc)):
        write((b",\n  " if k else b"{\n  ") + orjson.dumps(key) + b": ")
        try:
            text = orjson.dumps(doc.pop(key), option=orjson.OPT_INDENT_2)
        except orjson.JSONEncodeError as exc:   # a str with a lone surrogate, an id not a str
            raise DataError(f"case field {key!r} cannot be written: {exc}") from None
        write(text.replace(b"\n", b"\n  "))
    write(b"\n}\n")


@_gc_paused
def dumps_case(case: NetworkCase) -> str:
    """The text of a case file, as save_case writes it."""
    pieces = []
    _write_case(case, pieces.append)
    return b"".join(pieces).decode()


@_gc_paused
def save_case(case: NetworkCase, path) -> None:
    """Write a case file: dumps_case(case), encoded, a piece at a time."""
    with open(path, "wb") as fh:
        _write_case(case, fh.write)


def solution_to_dict(solution, *, derived: bool = False) -> dict:
    """Serializable document of a Solution: voltages, converter results, slack
    injections, history, trace and timings.  ``derived=True`` adds the blocks
    computed from the voltages and the case (_derived_blocks)."""
    losses, volts, slack = solution.losses, solution.ac_voltages, solution.slack_injections
    doc = {
        "schema_version": SOLUTION_SCHEMA_VERSION,
        "case_name": solution.x_final.model.case.name,
        "converged": solution.converged,
        "iterations": solution.iterations,
        "final_mismatch": solution.final_mismatch,
        "n_states": solution.n_states,
        "residual_history": list(solution.residual_history),
        "diagnostics": solution.diagnostics,
        "ac_voltages": dict(zip(volts, _pairs(volts.values()))),
        "dc_voltages": dict(solution.dc_voltages),
        "slack_injections": dict(zip(slack, _pairs(slack.values()))),
        "converter_losses": {
            cid: {"s_loss": s_loss, "p_filter": lb.p_filter, "e_c": e_c, "i_sw": lb.i_sw}
            for (cid, lb), (s_loss, e_c) in zip(
                losses.items(), _pairs([(lb.s_loss, lb.e_c) for lb in losses.values()]))
        },
        "converter_power": {cid: dict(p) for cid, p in solution.converter_power.items()},
        "trace": list(solution.trace),
        "timings_s": {
            "residual": solution.timings.residual_s,
            "jacobian": solution.timings.jacobian_s,
            "linear_solve": solution.timings.linear_s,
            "total": solution.timings.total_s,
        },
    }
    if derived:
        x = solution.x_final
        doc.update(_derived_blocks(x.model, solution.op.e_full, x.e_dc, DERIVED))
    return doc


DERIVED = ("sequence_voltages", "ac_branch_flows", "dc_branch_flows")


def _derived_blocks(model, e_full, e_dc, keys) -> dict:
    """The document blocks ``keys`` (of DERIVED) at the (3N,) AC voltages ``e_full``
    and the DC voltages ``e_dc``, formatted from the arrays they are computed from."""
    doc, branches = {}, model.case.ac_branches
    if "sequence_voltages" in keys:
        doc["sequence_voltages"] = dict(zip(model.ac_bus_ids,
                                            _pairs(sequence_sets(model, e_full))))
    if "ac_branch_flows" in keys:
        flows = _pairs(np.stack(ac_flows(model, e_full), axis=1))
        doc["ac_branch_flows"] = [{"from": frm, "to": to, "s_from": s_from, "s_to": s_to}
                                  for frm, to, (s_from, s_to)
                                  in zip(branches.from_bus, branches.to_bus, flows)]
    if "dc_branch_flows" in keys:
        dc = model.case.dc_branches
        doc["dc_branch_flows"] = [{"from": frm, "to": to, "p_from": p_from, "p_to": p_to}
                                  for frm, to, p_from, p_to in zip(
                                      dc.from_bus, dc.to_bus,
                                      *(p.tolist() for p in dc_flows(model, e_dc)))]
    return doc


@_gc_paused
def save_solution(solution, path, case: NetworkCase | None = None, *,
                  derived: bool = False) -> None:
    """Write a solution file as compact JSON; loadable for regression comparison and
    --init.  ``derived`` as in solution_to_dict; ``case`` is not needed, the solution
    carries its model.  orjson would write a NaN as null, but a Solution holds only
    finite numbers: solve raises on a residual that is not finite."""
    Path(path).write_bytes(orjson.dumps(solution_to_dict(solution, derived=derived)) + b"\n")


@_gc_paused
def load_solution(path, case=None) -> dict:
    """Read a solution file of schema 1, 2 or 3.  Given its case (or compiled
    model), fill in each derived block the file lacks from its voltages, by the
    functions the Solution uses."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CaseFormatError(f"cannot read file: {exc}", path=str(path))
    doc = _parse(data, path)
    # every version is an object with the two voltage blocks; version 1 also held
    # a "state" block that repeated them, and versions 1 and 2 always held the
    # derived blocks
    _voltage_blocks(doc, path)
    version = doc.get("schema_version")
    if type(version) is not int or version not in (1, 2, SOLUTION_SCHEMA_VERSION):
        _err(f"unsupported solution schema_version {version!r}", "schema_version", path)
    if case is not None:
        model = as_model(case)
        e_full, e_dc = _voltages(doc, model)
        doc.update(_derived_blocks(model, e_full, e_dc, [k for k in DERIVED if k not in doc]))
    return doc


def _voltage_blocks(doc, path=None) -> tuple:
    """The ac_voltages and dc_voltages objects of a solution document; a
    CaseFormatError names the one that is missing or not an object."""
    if not isinstance(doc, dict):
        _err("expected an object", "$", path)
    for key in ("ac_voltages", "dc_voltages"):
        if key not in doc:
            _err(f"missing field {key!r}", "$", path)
        if not isinstance(doc[key], dict):
            _err("expected an object", key, path)
    return doc["ac_voltages"], doc["dc_voltages"]


def _voltages(doc: dict, model) -> tuple:
    """The (3N,) complex AC and the DC voltages of a solution document, bit for
    bit; their keys must be the model's bus ids in case order."""
    ac, dc = _voltage_blocks(doc)
    if list(model.ac_bus_ids) != list(ac) or list(model.dc_bus_ids) != list(dc):
        raise CaseFormatError("solution state does not match the case bus lists")
    try:
        e_full = np.array(list(ac.values()), dtype=float).reshape(model.n_ac_nodes, 2)
        e_dc = np.array(list(dc.values()), dtype=float).reshape(model.n_dc)
    except (TypeError, ValueError) as exc:
        raise CaseFormatError(f"solution voltages are malformed: {exc}") from exc
    return e_full.view(complex)[:, 0], e_dc


def state_from_solution(doc: dict, case) -> StateVector:
    """Rebuild a StateVector from a solution document's voltage dicts, for use
    as an NR start; their keys must be the case's bus ids in case order."""
    model = as_model(case)
    return StateVector.from_full(model, *_voltages(doc, model))


def export_voltages_csv(solution, path) -> None:
    """Voltage table: one row per AC (bus, phase) and one per DC bus."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bus", "phase", "re", "im", "mag", "angle_deg"])
        for bus, vs in solution.ac_voltages.items():
            for ph, v in zip("abc", vs):
                v = complex(v)
                w.writerow([bus, ph, repr(v.real), repr(v.imag),
                            repr(abs(v)), repr(float(np.degrees(np.angle(v))))])
        for bus, v in solution.dc_voltages.items():
            v = float(v)
            w.writerow([bus, "dc", repr(v), "0.0", repr(abs(v)), "0.0"])


def export_history_csv(solution, path) -> None:
    """Residual history: iteration number and max mismatch."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "max_mismatch"])
        for it, r in enumerate(solution.residual_history, start=1):
            w.writerow([it, repr(r)])
