import dataclasses

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
    SequencePolicy,
    TopologyError,
    build_ac_admittance,
    build_dc_admittance,
    validate_topology,
)
from hybridpf.cases import BUNDLED, synthetic_radial
from hybridpf.losses import LossParams


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
    for br in case.ac_branches:
        ys, ysh = np.linalg.inv(br.z_series), br.y_shunt / 2.0
        i0, j0 = 3 * case.ac_pos[br.from_bus], 3 * case.ac_pos[br.to_bus]
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
    with pytest.raises(DataError):
        DcBranch("D1", "D2", r=0.0)


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
    with pytest.raises(DataError):
        Converter("V", "B1", "D1", ConverterMode.PAC_QAC,
                  p_pos_set=0.0, q_pos_set=0.0, p_neg_set=0.0, q_neg_set=0.0,
                  sequence_policy=SequencePolicy.WITH_NEGATIVE)


def test_with_negative_only_in_pac_qac():
    with pytest.raises(DataError):
        Converter("V", "B1", "D1", ConverterMode.EDC_QAC,
                  e_dc_set=1.0, q_pos_set=0.0,
                  sequence_policy=SequencePolicy.WITH_NEGATIVE)


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
