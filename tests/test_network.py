import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hybridpf import (
    AcBranch,
    AcBus,
    AcBusKind,
    Converter,
    ConverterMode,
    DataError,
    DcBranch,
    DcBus,
    DcBusKind,
    NetworkCase,
    ParameterError,
    SequencePolicy,
    TopologyError,
    build_ac_admittance,
    build_dc_admittance,
    validate_topology,
)
from hybridpf import residuals
from hybridpf.caseio import dumps_case, loads_case
from hybridpf.cases import BUNDLED, synthetic_radial
from hybridpf.losses import LossParams
from hybridpf.network import (
    AcBranchTable,
    AcBusTable,
    BaseQuantities,
    ConverterTable,
    DcBranchTable,
    DcBusTable,
)
from hybridpf.residuals import compile_case

from conftest import LOSSY


def _slack(bus_id="B1"):
    return AcBus(bus_id, AcBusKind.SLACK, v_mag=1.0)


def _pq(bus_id, p=-0.1, q=0.0):
    return AcBus(bus_id, AcBusKind.PQ, p_set=(p,) * 3, q_set=(q,) * 3)


def test_single_branch_stamp():
    buses = (_slack("B1"), _pq("B2"))
    y = build_ac_admittance(
        NetworkCase("t", ac_buses=buses, ac_branches=(AcBranch("B1", "B2", z_series=0.1j),))
    ).toarray()
    for p in range(3):
        assert_allclose(y[p, p], -10j, atol=1e-12)
        assert_allclose(y[3 + p, 3 + p], -10j, atol=1e-12)
        assert_allclose(y[p, 3 + p], 10j, atol=1e-12)
        assert_allclose(y[3 + p, p], 10j, atol=1e-12)
    # phases are uncoupled for a diagonal branch
    assert y[0, 1] == 0 and y[0, 4] == 0


@pytest.mark.parametrize("case", [BUNDLED["microgrid26_unbalanced"](), synthetic_radial(60)],
                         ids=["microgrid26_unbalanced", "radial60"])
def test_ac_admittance_equals_the_per_branch_stamps(case):
    # the per-branch loop that the batched build replaced, as the reference
    n = 3 * len(case.ac_buses)
    rows, cols, vals = [], [], []
    br = case.ac_branches     # its matrix columns: a record holds what it was given
    for frm, to, z, y in zip(br.from_bus, br.to_bus, br.z_series, br.y_shunt):
        ys, ysh = np.linalg.inv(z), y / 2.0
        i0, j0 = 3 * case.ac_pos[frm], 3 * case.ac_pos[to]
        for p in range(3):
            for q in range(3):
                rows += [i0 + p, j0 + p, i0 + p, j0 + p]
                cols += [i0 + q, j0 + q, j0 + q, i0 + q]
                vals += [ys[p, q] + ysh[p, q]] * 2 + [-ys[p, q]] * 2
    ref = sp.csr_matrix((np.array(vals), (rows, cols)), shape=(n, n))
    ref.sum_duplicates()
    ref.eliminate_zeros()   # Y_ac stores no zeros, so LU orders and factors none
    y = build_ac_admittance(case)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(y, part), getattr(ref, part))


def test_empty_branch_list_gives_zero_matrix():
    y_ac = build_ac_admittance(NetworkCase("t", ac_buses=(_slack("B1"), _pq("B2"))))
    assert y_ac.nnz == 0
    assert y_ac.shape == (6, 6)


def test_ring_diagonal_is_twice_offdiagonal():
    buses = (_slack("B1"), _pq("B2"), _pq("B3"))
    branches = tuple(
        AcBranch(a, b, z_series=0.05j) for a, b in (("B1", "B2"), ("B2", "B3"), ("B3", "B1"))
    )
    y = build_ac_admittance(NetworkCase("t", ac_buses=buses, ac_branches=branches)).toarray()
    for p in range(3):
        assert_allclose(abs(y[p, p]), 2 * abs(y[p, 3 + p]), rtol=1e-12)


def test_ac_admittance_symmetric(microgrid):
    from hybridpf.network import compound_admittance

    adm = compound_admittance(microgrid)
    assert (abs(adm.y_ac - adm.y_ac.T)).max() < 1e-12
    assert (abs(adm.y_dc - adm.y_dc.T)).max() < 1e-12


def test_dangling_branch_endpoint_is_topology_error():
    with pytest.raises(TopologyError):
        build_ac_admittance(NetworkCase(
            "t", ac_buses=(_slack("B1"),), ac_branches=(AcBranch("B1", "B9", z_series=0.1j),)
        ))


def _one_branch_case(z):
    # the branch checks run over a case's branches at once, not per AcBranch
    return NetworkCase("t", ac_buses=(_slack("B1"), _pq("B2")),
                       ac_branches=(AcBranch("B1", "B2", z_series=z),))


def test_singular_impedance_rejected():
    with pytest.raises(DataError, match=r"^ac_branches\[0\] \(B1-B2\): z_series is singular$"):
        _one_branch_case(np.ones((3, 3)))


def test_asymmetric_impedance_rejected():
    z = np.diag([0.1j, 0.1j, 0.1j]).astype(complex)
    z[0, 1] = 0.02j  # no matching [1, 0] term: not a reciprocal branch
    with pytest.raises(DataError, match="must be symmetric"):
        _one_branch_case(z)


def test_dc_two_bus_stamp():
    buses = (DcBus("D1", DcBusKind.V, e_set=1.0), DcBus("D2", DcBusKind.P, p_set=0.0))
    y = build_dc_admittance(
        NetworkCase("t", dc_buses=buses, dc_branches=(DcBranch("D1", "D2", r=0.1),))
    ).toarray()
    assert_allclose(y, [[10.0, -10.0], [-10.0, 10.0]], atol=1e-12)


def test_dc_parallel_branches_add():
    buses = (DcBus("D1", DcBusKind.V, e_set=1.0), DcBus("D2", DcBusKind.P, p_set=0.0))
    branches = (DcBranch("D1", "D2", r=0.2), DcBranch("D1", "D2", r=0.2))
    y = build_dc_admittance(NetworkCase("t", dc_buses=buses, dc_branches=branches)).toarray()
    assert_allclose(y, [[10.0, -10.0], [-10.0, 10.0]], atol=1e-12)


def test_dc_star_diagonals():
    buses = (DcBus("H", DcBusKind.V, e_set=1.0),) + tuple(
        DcBus(f"L{k}", DcBusKind.P, p_set=0.0) for k in range(3)
    )
    branches = tuple(DcBranch("H", f"L{k}", r=1.0) for k in range(3))
    y = build_dc_admittance(NetworkCase("t", dc_buses=buses, dc_branches=branches)).toarray()
    assert y[0, 0] == pytest.approx(3.0)
    for k in range(1, 4):
        assert y[k, k] == pytest.approx(1.0)


def test_dc_rows_sum_to_zero_without_shunts(microgrid):
    from hybridpf.network import compound_admittance

    y = compound_admittance(microgrid).y_dc
    assert np.abs(np.asarray(y.sum(axis=1))).max() <= 1e-12


def test_non_positive_resistance_rejected():
    bad, message = dict(from_bus="D1", to_bus="D2", r=0.0), "DC branch D1-D2 needs r > 0"
    assert _message_of(lambda: NetworkCase("t", dc_branches=(DcBranch(**bad),))) == message
    assert _message_of(lambda: _table_of(DcBranchTable, [bad])) == message


def test_validate_accepts_bundled_microgrid(microgrid):
    assert validate_topology(microgrid) == []


def test_validate_rejects_removed_slack(microgrid):
    buses = tuple(
        _pq(b.id, -0.01, 0.0) if b.kind == AcBusKind.SLACK else b for b in microgrid.ac_buses
    )
    mutated = NetworkCase(
        name="m", ac_buses=buses, dc_buses=microgrid.dc_buses,
        ac_branches=microgrid.ac_branches, dc_branches=microgrid.dc_branches,
        converters=microgrid.converters,
    )
    codes = {d.code for d in validate_topology(mutated)}
    assert "no-slack" in codes


def test_validate_rejects_two_slacks(microgrid):
    buses = tuple(
        _slack(b.id) if b.id == "B02" else b for b in microgrid.ac_buses
    )
    mutated = NetworkCase(
        name="m", ac_buses=buses, dc_buses=microgrid.dc_buses,
        ac_branches=microgrid.ac_branches, dc_branches=microgrid.dc_branches,
        converters=microgrid.converters,
    )
    codes = {d.code for d in validate_topology(mutated)}
    assert "multiple-slack" in codes


def test_validate_rejects_dc_island_without_voltage_source(microgrid):
    # demote both edc_qac converters to pac_qac: no one imposes the DC voltage
    converters = tuple(
        Converter(c.id, c.ac_bus, c.dc_bus, ConverterMode.PAC_QAC,
                  p_pos_set=0.0, q_pos_set=0.0, loss=LossParams.zero())
        if c.mode == ConverterMode.EDC_QAC else c
        for c in microgrid.converters
    )
    mutated = NetworkCase(
        name="m", ac_buses=microgrid.ac_buses, dc_buses=microgrid.dc_buses,
        ac_branches=microgrid.ac_branches, dc_branches=microgrid.dc_branches,
        converters=converters,
    )
    codes = {d.code for d in validate_topology(mutated)}
    assert "no-dc-voltage-source" in codes


def test_validate_rejects_disconnected_dc_bus(microgrid):
    # cutting D25-D26 strands the load bus D26 without any voltage source
    branches = tuple(
        br for br in microgrid.dc_branches if (br.from_bus, br.to_bus) != ("D25", "D26")
    )
    mutated = NetworkCase(
        name="m", ac_buses=microgrid.ac_buses, dc_buses=microgrid.dc_buses,
        ac_branches=microgrid.ac_branches, dc_branches=branches,
        converters=microgrid.converters,
    )
    diags = validate_topology(mutated)
    assert any(d.code == "no-dc-voltage-source" and "D26" in d.subject for d in diags)


def test_validate_flags_bad_converter_link(microgrid):
    converters = microgrid.converters[:3] + (
        Converter("VSC4", "B17", "D99", ConverterMode.PAC_QAC,
                  p_pos_set=0.0, q_pos_set=0.0, loss=LossParams.zero()),
    )
    mutated = NetworkCase(
        name="m", ac_buses=microgrid.ac_buses, dc_buses=microgrid.dc_buses,
        ac_branches=microgrid.ac_branches, dc_branches=microgrid.dc_branches,
        converters=converters,
    )
    diags = validate_topology(mutated)
    assert any(d.code == "bad-link" and "D99" in d.message for d in diags)


def _conv(conv_id, ac_bus, dc_bus):
    return Converter(conv_id, ac_bus, dc_bus, ConverterMode.PAC_QAC,
                     p_pos_set=0.0, q_pos_set=0.0)


@pytest.mark.parametrize("kwargs", [
    # an id shared by an AC bus and a DC bus
    dict(ac_buses=(_slack("X1"),), dc_buses=(DcBus("X1", DcBusKind.V, e_set=1.0),)),
    # a duplicate id within one grid
    dict(ac_buses=(_slack("B1"), _pq("B1"))),
    dict(dc_buses=(DcBus("D1", DcBusKind.V, e_set=1.0), DcBus("D1", DcBusKind.P, p_set=0.0))),
    # a duplicate converter id
    dict(converters=(_conv("V1", "B1", "D1"), _conv("V1", "B2", "D2"))),
])
def test_id_rules_raise_data_error(kwargs):
    with pytest.raises(DataError):
        NetworkCase("ids", **kwargs)


def test_bus_position_maps_follow_replace(microgrid):
    assert microgrid.ac_pos == {b.id: i for i, b in enumerate(microgrid.ac_buses)}
    reordered = dataclasses.replace(microgrid, ac_buses=microgrid.ac_buses[::-1])
    assert reordered.ac_pos == {b.id: i for i, b in enumerate(reordered.ac_buses)}
    assert reordered.ac_pos != microgrid.ac_pos
    assert reordered.dc_pos == microgrid.dc_pos
    assert reordered.ac_bus("B02") is microgrid.ac_bus("B02")


def test_missing_bus_id_is_key_error(microgrid):
    with pytest.raises(KeyError):
        microgrid.ac_bus("missing")
    with pytest.raises(KeyError):
        microgrid.dc_bus("missing")


def test_with_negative_requires_nonzero_reference():
    conv = Converter("V", "B1", "D1", ConverterMode.PAC_QAC,
                     p_pos_set=0.0, q_pos_set=0.0, p_neg_set=0.0, q_neg_set=0.0,
                     sequence_policy=SequencePolicy.WITH_NEGATIVE)
    with pytest.raises(DataError):
        NetworkCase("t", converters=(conv,))


def test_with_negative_only_in_pac_qac():
    conv = Converter("V", "B1", "D1", ConverterMode.EDC_QAC,
                     e_dc_set=1.0, q_pos_set=0.0,
                     sequence_policy=SequencePolicy.WITH_NEGATIVE)
    with pytest.raises(DataError):
        NetworkCase("t", converters=(conv,))


_EDC, _PAC, _VAC = ConverterMode.EDC_QAC, ConverterMode.PAC_QAC, ConverterMode.PAC_VAC
_NEG = SequencePolicy.WITH_NEGATIVE
CONVERTER_FAULTS = [   # (Converter fields after its id and buses, the message for converter X2)
    # a NaN setpoint is an absent one
    (dict(mode=_PAC, p_pos_set=float("nan"), q_pos_set=0.0),
     "converter X2: pac_qac needs p_pos_set and q_pos_set"),
    (dict(mode=_VAC, p_pos_set=0.1, v_mag_set=float("inf")),
     "converter X2: v_mag_set must be a finite number"),
    (dict(mode=_EDC, e_dc_set=1.0, q_pos_set=0.0, filter_z=-0.01 + 0.1j),
     "converter X2: filter resistance must be >= 0"),
    (dict(mode=_EDC, e_dc_set=1.0, q_pos_set=0.0, sequence_policy=_NEG),
     "converter X2: with_negative is only valid in pac_qac mode"),
    (dict(mode=_EDC, e_dc_set=0.0, q_pos_set=0.0),
     "converter X2: edc_qac needs e_dc_set > 0 and q_pos_set"),
    (dict(mode=_EDC, e_dc_set=1.0), "converter X2: edc_qac needs e_dc_set > 0 and q_pos_set"),
    (dict(mode=_PAC, p_pos_set=0.1), "converter X2: pac_qac needs p_pos_set and q_pos_set"),
    (dict(mode=_PAC, p_pos_set=0.1, q_pos_set=0.0, sequence_policy=_NEG, p_neg_set=0.01),
     "converter X2: with_negative needs p_neg_set and q_neg_set"),
    (dict(mode=_PAC, p_pos_set=0.1, q_pos_set=0.0, sequence_policy=_NEG, p_neg_set=0.0,
          q_neg_set=0.0),
     "converter X2: with_negative needs a nonzero negative-sequence reference"),
    (dict(mode=_VAC, p_pos_set=0.1), "converter X2: pac_vac needs p_pos_set and v_mag_set > 0"),
    (dict(mode=_VAC, p_pos_set=0.1, v_mag_set=0.0),
     "converter X2: pac_vac needs p_pos_set and v_mag_set > 0"),
    (dict(mode=_EDC, e_dc_set=1.0, q_pos_set=0.0, filter_z=complex("nan")),
     "converter X2: filter_z must be a finite number"),
    # a setpoint that the converter's mode and policy never read
    (dict(mode=_PAC, p_pos_set=0.1, q_pos_set=0.0, e_dc_set=1.0),
     "converter X2: pac_qac converter must not carry e_dc_set"),
    (dict(mode=_VAC, p_pos_set=0.1, v_mag_set=1.0, q_pos_set=5.0),
     "converter X2: pac_vac converter must not carry q_pos_set"),
    (dict(mode=_EDC, e_dc_set=1.0, q_pos_set=0.0, p_pos_set=0.1),
     "converter X2: edc_qac converter must not carry p_pos_set"),
    (dict(mode=_PAC, p_pos_set=0.1, q_pos_set=0.0, p_neg_set=0.01),
     "converter X2: positive_only converter must not carry p_neg_set"),
    (dict(mode=_VAC, p_pos_set=0.1, v_mag_set=1.0, q_neg_set=0.01),
     "converter X2: positive_only converter must not carry q_neg_set"),
    (dict(mode=_EDC, e_dc_set=1.0, q_pos_set=0.0, v_mag_set=1.0),
     "converter X2: edc_qac converter must not carry v_mag_set"),
]


@pytest.mark.parametrize("fault, message", CONVERTER_FAULTS,
                         ids=[str(i) for i in range(len(CONVERTER_FAULTS))])
def test_converter_rules_raise_a_data_error_naming_the_converter(fault, message):
    # a case made of the converter objects and a table made of columns give one
    # message, for the first bad converter
    good = dict(mode=_PAC, p_pos_set=0.1, q_pos_set=0.0)
    records = [dict(id=f"X{k}", ac_bus=f"B{k}", dc_bus=f"D{k}", **f)
               for k, f in enumerate((good, good, fault, fault, good))]
    assert _message_of(lambda: _case_of(ConverterTable, records)) == message
    assert _message_of(lambda: _table_of(ConverterTable, records)) == message


@pytest.mark.parametrize("fault, message", [
    (dict(mode="xx"), "converter X: unknown mode 'xx'"),
    (dict(mode="pac_qac", p_pos_set=0.1, q_pos_set=0.0, sequence_policy="both"),
     "converter X: unknown sequence_policy 'both'"),
], ids=["mode", "policy"])
def test_an_unknown_converter_mode_or_policy_is_a_data_error_naming_the_converter(fault, message):
    conv = Converter("X", "B1", "D1", **fault)
    assert _message_of(lambda: NetworkCase("t", converters=(_conv("V1", "B2", "D2"), conv))) \
        == message


def test_converter_mode_and_policy_given_as_strings_become_enums():
    conv = Converter("X", "B1", "D1", "pac_qac", p_pos_set=0.1, q_pos_set=0.0,
                     sequence_policy="with_negative", p_neg_set=0.01, q_neg_set=0.0)
    table = NetworkCase("t", converters=(conv,)).converters
    assert table[0] is conv
    assert table.mask("mode", ConverterMode.PAC_QAC).tolist() == [True]
    assert table.mask("sequence_policy", SequencePolicy.WITH_NEGATIVE).tolist() == [True]
    view = ConverterTable({name: getattr(table, name) for name in table.layout})[0]
    assert view.mode is ConverterMode.PAC_QAC
    assert view.sequence_policy is SequencePolicy.WITH_NEGATIVE


def test_validate_names_dangling_branches_and_a_bus_shared_by_two_converters():
    from hybridpf.network import Diagnostic

    edc = dict(e_dc_set=1.0, q_pos_set=0.0)
    case = NetworkCase(
        "links", ac_buses=(_slack("B1"), AcBus("C1", AcBusKind.CONVERTER)),
        dc_buses=(DcBus("D1", DcBusKind.CONVERTER), DcBus("D2", DcBusKind.CONVERTER)),
        ac_branches=(AcBranch("B1", "C1", z_series=0.1j), AcBranch("B1", "B9", z_series=0.1j)),
        dc_branches=(DcBranch("D1", "D2", r=0.1), DcBranch("D8", "D9", r=0.1)),
        converters=(Converter("V1", "C1", "D1", _EDC, **edc),
                    Converter("V2", "C1", "D2", _EDC, **edc)))
    assert validate_topology(case) == [
        Diagnostic("dangling-branch", "B1-B9", "AC branch endpoint B9 does not exist"),
        Diagnostic("dangling-branch", "D8-D9", "DC branch endpoint D8 does not exist"),
        Diagnostic("dangling-branch", "D8-D9", "DC branch endpoint D9 does not exist"),
        Diagnostic("bad-link", "V2", "bus is linked to more than one converter"),
    ]


def test_validate_names_every_island_in_order_of_its_first_bus():
    from hybridpf.network import Diagnostic

    # buses interleaved so that island order (by first bus) differs from id order
    ac = (_pq("B2"), _slack("A1"), _slack("C1"), _pq("B1"), _pq("A2"), _slack("C2"), _pq("D1"))
    ac_br = tuple(AcBranch(a, b, z_series=0.1j) for a, b in
                  (("A1", "A2"), ("B2", "B1"), ("C1", "C2")))
    dc = (DcBus("Q2", DcBusKind.P, p_set=0.0), DcBus("P1", DcBusKind.V, e_set=1.0),
          DcBus("R1", DcBusKind.P, p_set=0.0), DcBus("Q1", DcBusKind.P, p_set=0.0),
          DcBus("P2", DcBusKind.P, p_set=0.0))
    dc_br = (DcBranch("P1", "P2", r=0.1), DcBranch("Q1", "Q2", r=0.1))
    case = NetworkCase("islands", ac_buses=ac, ac_branches=ac_br, dc_buses=dc, dc_branches=dc_br)
    assert validate_topology(case) == [
        Diagnostic("no-slack", "B1,B2", "AC island has no slack bus"),
        Diagnostic("multiple-slack", "C1,C2", "AC island has 2 slack buses"),
        Diagnostic("no-slack", "D1", "AC island has no slack bus"),
        Diagnostic("no-dc-voltage-source", "Q1,Q2",
                   "DC island has no V node and no edc_qac converter"),
        Diagnostic("no-dc-voltage-source", "R1",
                   "DC island has no V node and no edc_qac converter"),
    ]


# element tables ---------------------------------------------------------------


def _table_of(table, records):
    """The table of ``records`` (element field dicts, the rest default) made from
    columns, as the case loader makes one: no element object is built."""
    defaults = {f.name: f.default if f.default_factory is dataclasses.MISSING
                else f.default_factory() for f in dataclasses.fields(table.element)}
    columns = {}
    for name, layout in table.layout.items():
        values = [rec.get(name, defaults[name]) for rec in records]
        if layout is None:
            columns[name] = tuple(values)
        elif not isinstance(layout, np.dtype):      # an Enum class
            columns[name] = np.array([list(layout).index(v) for v in values], dtype=np.int8)
        else:
            columns[name] = np.array([np.full(layout.shape, np.nan) if v is None else v
                                      for v in values], dtype=layout.base)
    return table(columns)


def _message_of(make) -> str:
    with pytest.raises(DataError) as err:
        make()
    return str(err.value)


def _case_of(table, records):
    """A NetworkCase made of the element objects of ``records``, in ``table``'s list."""
    name = {AcBusTable: "ac_buses", DcBusTable: "dc_buses", AcBranchTable: "ac_branches",
            DcBranchTable: "dc_branches", ConverterTable: "converters"}[table]
    return NetworkCase("t", **{name: tuple(table.element(**rec) for rec in records)})


_TRIPLE = (-0.1, -0.1, -0.1)
BUS_FAULTS = [   # (table, a bus that breaks one element rule, the message for bus X2)
    (AcBusTable, dict(kind=AcBusKind.PQ, p_set=_TRIPLE),
     "PQ bus X2 needs p_set and q_set for all phases"),
    (AcBusTable, dict(kind=AcBusKind.PQ, p_set=_TRIPLE, q_set=_TRIPLE, v_mag=1.0),
     "PQ bus X2 must not carry voltage setpoints"),
    (AcBusTable, dict(kind=AcBusKind.PV, v_set=(1.0,) * 3),
     "PV bus X2 needs p_set and v_set for all phases"),
    (AcBusTable, dict(kind=AcBusKind.PV, p_set=_TRIPLE, v_set=(1.0,) * 3, q_set=_TRIPLE),
     "PV bus X2 must not carry q_set"),
    (AcBusTable, dict(kind=AcBusKind.SLACK), "slack bus X2 needs v_mag"),
    (AcBusTable, dict(kind=AcBusKind.SLACK, v_mag=0.0), "slack bus X2 needs v_mag > 0"),
    (AcBusTable, dict(kind=AcBusKind.SLACK, v_mag=1.0, v_angle=None), "slack bus X2 needs v_angle"),
    (AcBusTable, dict(kind=AcBusKind.SLACK, v_mag=1.0, p_set=_TRIPLE),
     "slack bus X2 carries only v_mag and v_angle"),
    (AcBusTable, dict(kind=AcBusKind.CONVERTER, v_mag=1.0),
     "converter bus X2 must not carry direct setpoints"),
    (DcBusTable, dict(kind=DcBusKind.P), "DC P bus X2 needs p_set"),
    (DcBusTable, dict(kind=DcBusKind.P, p_set=0.1, e_set=1.0), "DC P bus X2 must not carry e_set"),
    (DcBusTable, dict(kind=DcBusKind.V, e_set=-1.0), "DC V bus X2 needs e_set > 0"),
    (DcBusTable, dict(kind=DcBusKind.V, e_set=1.0, p_set=0.1), "DC V bus X2 must not carry p_set"),
    (DcBusTable, dict(kind=DcBusKind.CONVERTER, p_set=0.1),
     "converter bus X2 must not carry direct setpoints"),
    # fields the case file cannot hold on these kinds, so dumps_case would drop them
    (AcBusTable, dict(kind=AcBusKind.PV, p_set=_TRIPLE, v_set=(1.0,) * 3, v_mag=1.05),
     "PV bus X2 must not carry v_mag"),
    (AcBusTable, dict(kind=AcBusKind.PQ, p_set=_TRIPLE, q_set=_TRIPLE, v_angle=0.3),
     "non-slack bus X2 must not carry v_angle"),
    # a setpoint that is NaN in one phase is missing for that phase
    (AcBusTable, dict(kind=AcBusKind.PQ, p_set=(-0.1, np.nan, -0.1), q_set=_TRIPLE),
     "PQ bus X2 needs p_set and q_set for all phases"),
    (AcBusTable, dict(kind=AcBusKind.PV, p_set=_TRIPLE, v_set=(1.0, 1.0, np.nan)),
     "PV bus X2 needs p_set and v_set for all phases"),
    # an infinity passes the rules of the kind, and a case file cannot hold it
    (AcBusTable, dict(kind=AcBusKind.PQ, p_set=(-0.1, -np.inf, -0.1), q_set=_TRIPLE),
     "AC bus X2: p_set must be finite"),
    (AcBusTable, dict(kind=AcBusKind.PQ, p_set=_TRIPLE, q_set=(np.inf, 0.0, 0.0)),
     "AC bus X2: q_set must be finite"),
    (AcBusTable, dict(kind=AcBusKind.PV, p_set=(np.inf,) * 3, v_set=(1.0,) * 3),
     "AC bus X2: p_set must be finite"),
    (AcBusTable, dict(kind=AcBusKind.PV, p_set=_TRIPLE, v_set=(1.0, np.inf, 1.0)),
     "AC bus X2: v_set must be finite"),
    (AcBusTable, dict(kind=AcBusKind.SLACK, v_mag=np.inf), "AC bus X2: v_mag must be finite"),
    (AcBusTable, dict(kind=AcBusKind.SLACK, v_mag=1.0, v_angle=-np.inf),
     "AC bus X2: v_angle must be finite"),
    (DcBusTable, dict(kind=DcBusKind.P, p_set=-np.inf), "DC bus X2: p_set must be finite"),
    (DcBusTable, dict(kind=DcBusKind.V, e_set=np.inf), "DC bus X2: e_set must be finite"),
]


@pytest.mark.parametrize("table, fault, message", BUS_FAULTS,
                         ids=[f"{t.element.__name__}-{i}"
                              for i, (t, _, _) in enumerate(BUS_FAULTS)])
def test_bus_rules_over_columns_name_the_first_bad_bus_as_the_element_does(table, fault, message):
    # a case made of the bus objects and a table made of columns give one message,
    # for the first bad bus
    good = (dict(kind=AcBusKind.SLACK, v_mag=1.0) if table is AcBusTable
            else dict(kind=DcBusKind.V, e_set=1.0))
    records = [dict(id="X0", **good), dict(id="X2", **fault), dict(id="X3", **fault),
               dict(id="X4", **good)]
    assert _message_of(lambda: _case_of(table, records)) == message
    assert _message_of(lambda: _table_of(table, records)) == message


_NAN_00 = np.diag([np.nan, 0.0, 0.0])


@pytest.mark.parametrize("table, record, message", [
    (AcBranchTable, dict(from_bus="B1", to_bus="B1", z_series=0.1j * np.eye(3),
                         y_shunt=np.zeros((3, 3))), "branch endpoints must differ (B1)"),
    (DcBranchTable, dict(from_bus="D1", to_bus="D1", r=0.1), "branch endpoints must differ (D1)"),
    (DcBranchTable, dict(from_bus="D1", to_bus="D2", r=0.0), "DC branch D1-D2 needs r > 0"),
    (DcBranchTable, dict(from_bus="D1", to_bus="D2", r=np.inf),
     "DC branch D1-D2: r must be finite"),
    (AcBranchTable, dict(from_bus="B1", to_bus="B2", z_series=_NAN_00 + 0.1j * np.eye(3),
                         y_shunt=np.zeros((3, 3))), "ac_branches[1] (B1-B2): z_series must be finite"),
    (AcBranchTable, dict(from_bus="B1", to_bus="B2", z_series=0.1j * np.eye(3), y_shunt=_NAN_00),
     "ac_branches[1] (B1-B2): y_shunt must be finite"),
], ids=["ac-ends", "dc-ends", "dc-r", "dc-r-inf", "ac-z-nan", "ac-y-nan"])
def test_branch_rules_over_columns_match_the_element(table, record, message):
    good = {**record, "from_bus": "A", "to_bus": "B",
            **({"r": 0.1} if "r" in record
               else {"z_series": 0.1j * np.eye(3), "y_shunt": np.zeros((3, 3))})}
    records = [good, record, {**record, "from_bus": "C", "to_bus": "C"}, good]
    assert _message_of(lambda: _case_of(table, records)) == message
    assert _message_of(lambda: _table_of(table, records)) == message


def test_a_nan_branch_matrix_is_named_without_a_warning():
    branch = AcBranch("B1", "B2", 0.1j * np.eye(3) + _NAN_00)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"^ac_branches\[0\] \(B1-B2\): z_series must be"):
            NetworkCase("t", ac_branches=(branch,))


def test_an_infinite_branch_scalar_is_named_without_a_warning():
    # its 3x3 is np.eye(3) * z, where 0 * inf is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"^ac_branches\[0\] \(B1-B2\): y_shunt must be"):
            NetworkCase("t", ac_branches=(AcBranch("B1", "B2", 0.1j, complex(np.inf, 1.0)),))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", ["s_base_va", "v_base_ac_v", "v_base_dc_v", "f_line_hz"])
def test_a_non_finite_base_quantity_is_named(name, value):
    assert _message_of(lambda: BaseQuantities(**{name: value})) == \
        f"base: {name} must be a finite number"


def _conv_with(mode, policy=SequencePolicy.POSITIVE_ONLY, loss=None, **setpoints):
    return dict(converters=(Converter("X", "B", "D", mode, sequence_policy=policy,
                                      loss=loss or LossParams.zero(), **setpoints),))


NUMERIC_FIELDS = {   # element.field -> (NetworkCase arguments with value v there, the message)
    "AcBus.p_set": (lambda v: dict(ac_buses=(
        AcBus("X", AcBusKind.PQ, p_set=(-0.1, v, -0.1), q_set=_TRIPLE),)), "AC bus X: p_set"),
    "AcBus.q_set": (lambda v: dict(ac_buses=(
        AcBus("X", AcBusKind.PQ, p_set=_TRIPLE, q_set=(-0.1, v, -0.1)),)), "AC bus X: q_set"),
    "AcBus.v_set": (lambda v: dict(ac_buses=(
        AcBus("X", AcBusKind.PV, p_set=_TRIPLE, v_set=(1.0, v, 1.0)),)), "AC bus X: v_set"),
    "AcBus.v_mag": (lambda v: dict(ac_buses=(AcBus("X", AcBusKind.SLACK, v_mag=v),)),
                    "AC bus X: v_mag"),
    "AcBus.v_angle": (lambda v: dict(ac_buses=(
        AcBus("X", AcBusKind.SLACK, v_mag=1.0, v_angle=v),)), "AC bus X: v_angle"),
    "DcBus.p_set": (lambda v: dict(dc_buses=(DcBus("X", DcBusKind.P, p_set=v),)),
                    "DC bus X: p_set"),
    "DcBus.e_set": (lambda v: dict(dc_buses=(DcBus("X", DcBusKind.V, e_set=v),)),
                    "DC bus X: e_set"),
    "AcBranch.z_series": (lambda v: dict(ac_branches=(AcBranch("B1", "B2", z_series=v),)),
                          "ac_branches[0] (B1-B2): z_series"),
    "AcBranch.y_shunt": (lambda v: dict(ac_branches=(
        AcBranch("B1", "B2", z_series=0.1j, y_shunt=v),)), "ac_branches[0] (B1-B2): y_shunt"),
    "DcBranch.r": (lambda v: dict(dc_branches=(DcBranch("D1", "D2", r=v),)),
                   "DC branch D1-D2: r"),
    "Converter.filter_z": (lambda v: _conv_with(_PAC, p_pos_set=0.1, q_pos_set=0.0, filter_z=v),
                           "converter X: filter_z"),
    "Converter.e_dc_set": (lambda v: _conv_with(_EDC, e_dc_set=v, q_pos_set=0.0),
                           "converter X: e_dc_set"),
    "Converter.q_pos_set": (lambda v: _conv_with(_PAC, p_pos_set=0.1, q_pos_set=v),
                            "converter X: q_pos_set"),
    "Converter.p_pos_set": (lambda v: _conv_with(_PAC, p_pos_set=v, q_pos_set=0.0),
                            "converter X: p_pos_set"),
    "Converter.p_neg_set": (lambda v: _conv_with(_PAC, _NEG, p_pos_set=0.1, q_pos_set=0.0,
                                                 p_neg_set=v, q_neg_set=0.01),
                            "converter X: p_neg_set"),
    "Converter.q_neg_set": (lambda v: _conv_with(_PAC, _NEG, p_pos_set=0.1, q_pos_set=0.0,
                                                 p_neg_set=0.01, q_neg_set=v),
                            "converter X: q_neg_set"),
    "Converter.v_mag_set": (lambda v: _conv_with(_VAC, p_pos_set=0.1, v_mag_set=v),
                            "converter X: v_mag_set"),
    **{f"BaseQuantities.{name}": (lambda v, name=name: dict(base=BaseQuantities(**{name: v})),
                                  f"base: {name}")
       for name in ("s_base_va", "v_base_ac_v", "v_base_dc_v", "f_line_hz")},
    **{f"LossParams.{name}": (lambda v, name=name: _conv_with(
        _PAC, p_pos_set=0.1, q_pos_set=0.0, loss=LossParams(**{name: v})), name)
       for name in ("t_on", "t_off", "t_rec", "t_s", "n_ratio")},
    "LossParams.r_eq_table": (lambda v: _conv_with(
        _PAC, p_pos_set=0.1, q_pos_set=0.0, loss=LossParams(r_eq_table=((0.0, v),))),
        "r_eq_table entry"),
}


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_a_str_or_a_bool_given_for_a_number_is_refused_naming_the_field(field):
    # numpy would parse the str and count the bool as 1, and the case file
    # would then hold that number
    case_with, named = NUMERIC_FIELDS[field]
    error = ParameterError if field.startswith("LossParams.") else DataError
    for value in ("0.5", True):
        with pytest.raises(error) as err:
            NetworkCase("t", **case_with(value))
        assert str(err.value) == f"{named} must be a number, not {value!r}"


@pytest.mark.parametrize("name", ["z_series", "y_shunt"])
def test_a_branch_matrix_beyond_the_float_range_is_refused(name):
    # an int beyond the float range was a bare OverflowError
    huge = [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]
    branch = AcBranch("B1", "B2", **{"z_series": 0.1j, name: huge})
    with pytest.raises(DataError, match=rf"^ac_branches\[0\] \(B1-B2\): {name} must be finite$"):
        NetworkCase("t", ac_branches=(branch,))


def _branch_case(**matrices):
    return NetworkCase("t", ac_branches=(AcBranch("B1", "B2", **matrices),))


@pytest.mark.parametrize("make, error, message", [
    (lambda: _branch_case(z_series=[[1, 2], [3]]), DataError,
     r"ac_branches\[0\] \(B1-B2\): z_series must be a 3x3 matrix, not \[\[1, 2\], \[3\]\]"),
    (lambda: _branch_case(z_series={}), DataError,
     r"ac_branches\[0\] \(B1-B2\): z_series must be a number, not \{\}"),
    (lambda: _branch_case(z_series=0.1j, y_shunt=object()), DataError,
     r"ac_branches\[0\] \(B1-B2\): y_shunt must be a number, not <object object at 0x[0-9a-f]+>"),
    (lambda: _branch_case(z_series=None), DataError,
     r"ac_branches\[0\] \(B1-B2\): z_series must be a number, not None"),
    (lambda: LossParams(r_eq_table=5), ParameterError,
     r"r_eq_table must be a non-empty tuple or list of \[current, resistance\] pairs, not 5"),
    (lambda: LossParams(r_eq_table=np.array([[0.0, 0.01]])), ParameterError,
     r"r_eq_table must be a non-empty tuple or list of \[current, resistance\] pairs, "
     r"not array\("),
], ids=["ragged", "dict", "object", "none", "r-eq-int", "r-eq-array"])
def test_a_bad_branch_matrix_or_loss_table_is_a_typed_error(make, error, message):
    # each was a bare numpy ValueError or TypeError, or (None) a NaN matrix
    with pytest.raises(error, match=f"^{message}"):
        make()


def test_a_list_given_for_a_scalar_field_is_refused():
    # reshape(-1) once flattened the one-entry list into the scalar column
    with pytest.raises(DataError, match=r"^AC bus B: v_mag must be a number, not \[1\.0\]$"):
        NetworkCase("t", ac_buses=(AcBus("B", AcBusKind.SLACK, v_mag=[1.0]),))


def test_a_per_phase_field_of_two_values_is_refused():
    # once a bare "cannot reshape array of size 2 into shape (3)"
    bus = AcBus("B", AcBusKind.PQ, p_set=(0.1, 0.1), q_set=_TRIPLE)
    with pytest.raises(DataError, match=r"^AC bus B: p_set must be three numbers, one per "
                                        r"phase, not \(0\.1, 0\.1\)$"):
        NetworkCase("t", ac_buses=(_slack("A"), bus))


@pytest.mark.parametrize("value", [1 + 1j, np.complex128(1 + 1j)], ids=["complex", "numpy"])
def test_a_complex_value_given_for_a_real_field_is_refused(value):
    # a complex was a bare TypeError; numpy's complex lost its imaginary part
    with pytest.raises(DataError, match=r"^AC bus B: v_mag must be a real number, not "):
        NetworkCase("t", ac_buses=(AcBus("B", AcBusKind.SLACK, v_mag=value),))


def test_a_base_quantity_of_none_is_refused():
    # once a bare "TypeError: must be real number, not NoneType"
    with pytest.raises(DataError, match=r"^base: s_base_va must be a number, not None$"):
        BaseQuantities(s_base_va=None)


def test_an_element_built_alone_is_checked_when_a_case_is_made_of_it():
    bus = AcBus("B1", AcBusKind.SLACK, v_mag=0.0)
    branch = DcBranch("D1", "D2", r=0.0)      # none raises: elements are plain records
    ac_branch = AcBranch("B1", "B2", z_series="0.1")
    assert (bus.v_mag, branch.r, ac_branch.z_series, ac_branch.y_shunt) == (0.0, 0.0, "0.1", 0j)
    with pytest.raises(DataError, match=r"^slack bus B1 needs v_mag > 0$"):
        NetworkCase("t", ac_buses=(bus,))
    with pytest.raises(DataError, match=r"^DC branch D1-D2 needs r > 0$"):
        NetworkCase("t", dc_branches=(branch,))
    with pytest.raises(DataError, match=r"^ac_branches\[0\] \(B1-B2\): z_series must be a "
                                        r"number, not '0\.1'$"):
        NetworkCase("t", ac_branches=(ac_branch,))


def test_a_table_of_branch_records_keeps_them_and_holds_their_matrices():
    given = (AcBranch("B1", "B2", z_series=0.1j), AcBranch("B2", "B3", z_series=0.2j * np.eye(3)))
    case = NetworkCase("t", ac_branches=given)
    assert tuple(case.ac_branches) == given and case.ac_branches[0].z_series == 0.1j
    assert case.ac_branches.z_series.shape == case.ac_branches.y_shunt.shape == (2, 3, 3)
    assert np.array_equal(case.ac_branches.z_series, [0.1j * np.eye(3), 0.2j * np.eye(3)])
    assert not case.ac_branches.y_shunt.any()


def test_a_slack_bus_without_v_angle_is_refused():
    # its NaN column once passed every rule, and solve then named a PQ row
    slack = AcBus("B1", AcBusKind.SLACK, v_mag=1.0, v_angle=None)
    with pytest.raises(DataError, match=r"^slack bus B1 needs v_angle$"):
        NetworkCase("two", ac_buses=(slack, _pq("B2")), ac_branches=(AcBranch("B1", "B2", 0.1j),))


@pytest.mark.parametrize("buses, message", [
    ((AcBus("B1", "xx", v_mag=1.0),), "bus B1 has unknown kind 'xx'"),
    ((DcBus("D1", DcBusKind.V, e_set=1.0), DcBus("D2", "slack", p_set=0.1)),
     "bus D2 has unknown kind 'slack'"),
], ids=["ac", "dc"])
def test_an_unknown_bus_kind_is_a_data_error_naming_the_bus(buses, message):
    grid = "ac_buses" if isinstance(buses[0], AcBus) else "dc_buses"
    with pytest.raises(DataError, match=f"^{message}$"):
        NetworkCase(name="x", **{grid: buses})


def _columnar_cases():
    return {**{name: build for name, build in {**BUNDLED, **LOSSY}.items()},
            "radial1000": lambda: loads_case(dumps_case(synthetic_radial(1000)))}


def _rebuilt(case):
    """``case`` built again from its element objects."""
    return NetworkCase(name=case.name, ac_buses=tuple(case.ac_buses),
                       dc_buses=tuple(case.dc_buses), ac_branches=tuple(case.ac_branches),
                       dc_branches=tuple(case.dc_branches), converters=tuple(case.converters),
                       base=case.base, description=case.description)


TABLES = ("ac_buses", "dc_buses", "ac_branches", "dc_branches", "converters")
SETPOINT_ARRAYS = ("p_set", "q_set", "v_set_sq", "slack_voltage", "conv_set", "edc_set",
                   "pdc_set")


@pytest.mark.parametrize("name", sorted(_columnar_cases()))
def test_a_case_rebuilt_from_its_elements_equals_the_columnar_case(name):
    case = _columnar_cases()[name]()
    rebuilt = _rebuilt(case)
    assert all(type(getattr(rebuilt, t)) is type(getattr(case, t)) for t in TABLES)
    assert residuals._structure_key(rebuilt) == residuals._structure_key(case)
    model = compile_case(case)
    compile_case.cache_clear()
    again = compile_case(rebuilt)
    for attr in SETPOINT_ARRAYS:
        assert getattr(again, attr).tobytes() == getattr(model, attr).tobytes(), attr
    assert dumps_case(rebuilt) == dumps_case(case)


@pytest.mark.parametrize("twin", [False, True], ids=["columns", "elements"])
@pytest.mark.parametrize("name", sorted(_columnar_cases()))
def test_a_case_written_and_read_again_has_the_same_columns_bit_for_bit(name, twin):
    case = _columnar_cases()[name]()
    case = _rebuilt(case) if twin else case
    again = loads_case(dumps_case(case))
    for table in TABLES:
        for column, layout in getattr(case, table).layout.items():
            a, b = getattr(getattr(case, table), column), getattr(getattr(again, table), column)
            if layout is None:
                assert a == b, (table, column)
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                    (table, column)


def test_replace_keeps_every_untouched_element_and_shares_the_tables():
    case = BUNDLED["microgrid26_unbalanced"]()
    buses = list(case.ac_buses)
    k = next(i for i, b in enumerate(buses) if b.kind == AcBusKind.PQ)
    buses[k] = dataclasses.replace(buses[k], p_set=(-0.5, -0.5, -0.5))
    changed = dataclasses.replace(case, ac_buses=tuple(buses))
    assert all(new is old for new, old in zip(changed.ac_buses, buses))
    assert list(changed.ac_buses.p_set[k]) == [-0.5] * 3
    assert np.array_equal(np.delete(changed.ac_buses.q_set, k, 0),
                          np.delete(case.ac_buses.q_set, k, 0), equal_nan=True)
    for name in TABLES[1:]:
        assert getattr(changed, name) is getattr(case, name)
    same = dataclasses.replace(case)
    for name in TABLES:
        assert getattr(same, name) is getattr(case, name)
    assert same.ac_pos is case.ac_pos
    assert compile_case(same).p_set.tobytes() == compile_case(case).p_set.tobytes()


def test_a_table_keeps_the_elements_it_was_made_of_and_each_view_it_made():
    buses = (_slack("B1"), _pq("B2"), _pq("B3"))
    table = NetworkCase("t", ac_buses=buses).ac_buses
    assert NetworkCase("t", ac_buses=table).ac_buses is table
    assert all(a is b for a, b in zip(table, buses)) and table[-1] is buses[-1]
    loaded = BUNDLED["ac2"]().ac_buses
    assert loaded._views == [None, None]
    first = loaded[1]
    assert loaded[1] is first and loaded._views[0] is None
    assert first.p_set == (-0.1, -0.1, -0.1) and first.v_mag is None
    assert loaded[::-1] == (loaded[1], loaded[0])
    with pytest.raises(IndexError):
        loaded[2]
    with pytest.raises(ValueError):
        loaded.p_set[0, 0] = 1.0      # columns are read-only
