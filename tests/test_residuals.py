import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest

from hybridpf import (
    AcBranch,
    AcBus,
    AcBusKind,
    Converter,
    ConverterMode,
    DcBranch,
    DcBus,
    DcBusKind,
    HybridPfError,
    InfeasibleError,
    NetworkCase,
    SequencePolicy,
    assemble_residuals,
    compile_case,
    feasible_dc_root,
    feasible_root_from_coeffs,
)
from hybridpf import residuals
from hybridpf.cases import BUNDLED, synthetic_radial
from hybridpf.losses import LossParams
from hybridpf.residuals import StateVector, as_model, operating_point
from hybridpf.sequence import V_NEG, V_POS
from hybridpf.solver import SolverOptions, flat_start, solve
from hybridpf.verify import fixed_point_solve

from conftest import LOSSY


def _zero_load_case():
    return NetworkCase(
        name="zl",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(0.0,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )


def test_pq_zero_injection_flat_start_is_exact():
    case = _zero_load_case()
    x = flat_start(case)
    rows = assemble_residuals(case, x).by_label()
    for ph in "abc":
        p, q = rows[f"P:B2:{ph}"], rows[f"Q:B2:{ph}"]
        assert abs(p) < 1e-14 and abs(q) < 1e-14


def test_pq_residual_vanishes_at_oracle_solution():
    case = BUNDLED["ac2"]()
    x = fixed_point_solve(case, tol=1e-12)
    rows = assemble_residuals(case, x).by_label()
    for ph in "abc":
        p, q = rows[f"P:B2:{ph}"], rows[f"Q:B2:{ph}"]
        assert abs(p) <= 1e-9 and abs(q) <= 1e-9


def test_pq_export_sign():
    # voltage held at the slack profile, positive injection setpoint
    case = NetworkCase(
        name="sign",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(0.2,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )
    x = flat_start(case)
    p = assemble_residuals(case, x).by_label()["P:B2:a"]
    assert p > 0


def _pv_case():
    return NetworkCase(
        name="pv",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PV, p_set=(0.05,) * 3, v_set=(1.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.02 + 0.08j),),
    )


def test_pv_magnitude_residual_zero_at_setpoint():
    case = _pv_case()
    x = flat_start(case)  # |E| = 1 = E*
    rows = assemble_residuals(case, x).by_label()
    for ph in "abc":
        rv = rows[f"V:B2:{ph}"]
        assert abs(rv) < 1e-14


def test_pv_magnitude_residual_arithmetic():
    case = _pv_case()
    model = as_model(case)
    x = flat_start(model)
    v = 1.02 * np.exp(1j * np.deg2rad(10.0))
    pos = model.col_of_full[model.ac_bus_ids.index("B2") * 3]
    x.e[pos], x.f[pos] = v.real, v.imag
    rv = assemble_residuals(model, x).by_label()["V:B2:a"]
    assert rv == pytest.approx(1.0 - 1.02**2, abs=1e-12)  # = -0.0404


def test_pv_residuals_vanish_at_converged_state():
    case = _pv_case()
    sol = solve(case, SolverOptions(tolerance=1e-11))
    assert sol.converged
    rows = assemble_residuals(case, sol.x_final).by_label()
    for ph in "abc":
        rp, rv = rows[f"P:B2:{ph}"], rows[f"V:B2:{ph}"]
        assert abs(rp) <= 1e-9 and abs(rv) <= 1e-9


def test_dc_v_node_residual():
    case = NetworkCase(
        name="dc2",
        dc_buses=(DcBus("D1", DcBusKind.V, e_set=1.0),
                  DcBus("D2", DcBusKind.P, p_set=-0.9)),
        dc_branches=(DcBranch("D1", "D2", r=0.1),),
    )
    x = flat_start(case)
    assert assemble_residuals(case, x).by_label()["Edc:D1"] == 0.0


def test_dc_p_node_worked_example():
    # Y = [[10,-10],[-10,10]], E = (1.0, 0.9), P* = -0.9 -> residual 0
    case = NetworkCase(
        name="dc2",
        dc_buses=(DcBus("D1", DcBusKind.V, e_set=1.0),
                  DcBus("D2", DcBusKind.P, p_set=-0.9)),
        dc_branches=(DcBranch("D1", "D2", r=0.1),),
    )
    model = as_model(case)
    x = flat_start(model)
    x.e_dc[:] = (1.0, 0.9)
    assert assemble_residuals(model, x).by_label()["Pdc:D2"] == pytest.approx(0.0, abs=1e-14)


def test_dc_residuals_vanish_at_oracle_solution():
    case = BUNDLED["dc4"]()
    x = fixed_point_solve(case, tol=1e-12)
    rows = assemble_residuals(case, x).by_label()
    for bus in ("D2", "D3", "D4"):
        assert abs(rows[f"Pdc:{bus}"]) <= 1e-9


# --- interfacing converter rows ---------------------------------------------


def _edc_case(lossless=True, dc_load=0.0, e_set=1.0):
    loss = LossParams.zero() if lossless else LossParams.constant(0.01)
    return NetworkCase(
        name="edc",
        ac_buses=(AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
                  AcBus("B2", AcBusKind.CONVERTER)),
        dc_buses=(DcBus("D1", DcBusKind.CONVERTER),
                  DcBus("D2", DcBusKind.P, p_set=dc_load)),
        ac_branches=(AcBranch("B1", "B2", z_series=0.01 + 0.02j),),
        dc_branches=(DcBranch("D1", "D2", r=0.05),),
        converters=(Converter("VSC1", "B2", "D1", ConverterMode.EDC_QAC,
                              e_dc_set=e_set, q_pos_set=0.0, loss=loss),),
    )


def test_edc_qac_all_rows_zero_at_idle_flat_start():
    case = _edc_case(lossless=True, dc_load=0.0, e_set=1.0)
    res = assemble_residuals(case, flat_start(case))
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    assert set(rows) == {"P+:VSC1", "Q+:VSC1", "E0':VSC1", "E0'':VSC1",
                         "E-':VSC1", "E-'':VSC1", "Edc:VSC1:D1"}
    for value in rows.values():
        assert abs(value) < 1e-13


def test_edc_qac_rows_vanish_at_oracle_point():
    case = BUNDLED["hybrid4"]()
    x = fixed_point_solve(case, tol=1e-12)
    res = assemble_residuals(case, x)
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    assert max(abs(v) for v in rows.values()) <= 1e-9


def test_edc_qac_negative_sequence_constraint_tracks_injection():
    case = _edc_case()
    model = as_model(case)
    x = flat_start(model)
    bump = 0.03 * np.exp(0.7j)
    pos = model.col_of_full[[3, 4, 5]]  # B2 phases
    x.e[pos] += (V_NEG * bump).real
    x.f[pos] += (V_NEG * bump).imag
    rows = assemble_residuals(model, x).by_label()
    assert rows["E-':VSC1"] == pytest.approx(-bump.real, abs=1e-12)
    assert rows["E-'':VSC1"] == pytest.approx(-bump.imag, abs=1e-12)


def _pac_case(policy=SequencePolicy.POSITIVE_ONLY, p_pos=0.0, q_pos=0.0,
              p_neg=None, q_neg=None):
    return NetworkCase(
        name="pac",
        ac_buses=(AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
                  AcBus("B2", AcBusKind.CONVERTER)),
        dc_buses=(DcBus("D1", DcBusKind.CONVERTER),
                  DcBus("D2", DcBusKind.V, e_set=1.0)),
        ac_branches=(AcBranch("B1", "B2", z_series=0.01 + 0.02j),),
        dc_branches=(DcBranch("D1", "D2", r=0.05),),
        converters=(Converter("VSC1", "B2", "D1", ConverterMode.PAC_QAC,
                              p_pos_set=p_pos, q_pos_set=q_pos,
                              p_neg_set=p_neg, q_neg_set=q_neg,
                              sequence_policy=policy, loss=LossParams.zero()),),
    )


def test_pac_qac_all_rows_zero_at_idle_flat_start():
    case = _pac_case()
    res = assemble_residuals(case, flat_start(case))
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    for value in rows.values():
        assert abs(value) < 1e-13


def test_pac_qac_negative_reference_residual_at_balanced_point():
    # at a balanced state (E- = 0, I- = 0) the P- mismatch equals the reference
    # (built here: flat_start seeds E- at with_negative converters)
    model = as_model(_pac_case(policy=SequencePolicy.WITH_NEGATIVE, p_neg=0.05, q_neg=0.0))
    balanced = StateVector.from_full(model, np.tile(V_POS, model.n_ac_nodes // 3),
                                     np.ones(model.n_dc))
    res = assemble_residuals(model, balanced)
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    assert rows["P-:VSC1"] == pytest.approx(0.05, abs=1e-13)
    assert rows["Q-:VSC1"] == pytest.approx(0.0, abs=1e-13)
    assert set(rows) == {"P+:VSC1", "Q+:VSC1", "P-:VSC1", "Q-:VSC1",
                         "E0':VSC1", "E0'':VSC1", "Pdc:VSC1:D1"}


def test_pac_qac_rows_vanish_at_oracle_point():
    case = BUNDLED["hybrid_negseq"]()
    x = fixed_point_solve(case, tol=1e-12)
    res = assemble_residuals(case, x)
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    assert max(abs(v) for v in rows.values()) <= 1e-9


def _pacvac_case():
    return NetworkCase(
        name="pacvac",
        ac_buses=(AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
                  AcBus("B2", AcBusKind.CONVERTER)),
        dc_buses=(DcBus("D1", DcBusKind.CONVERTER),
                  DcBus("D2", DcBusKind.V, e_set=1.0)),
        ac_branches=(AcBranch("B1", "B2", z_series=0.01 + 0.02j),),
        dc_branches=(DcBranch("D1", "D2", r=0.05),),
        converters=(Converter("VSC1", "B2", "D1", ConverterMode.PAC_VAC,
                              p_pos_set=0.0, v_mag_set=1.0, loss=LossParams.zero()),),
    )


def test_pac_vac_all_rows_zero_at_idle_flat_start():
    res = assemble_residuals(_pacvac_case(), flat_start(_pacvac_case()))
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    for value in rows.values():
        assert abs(value) < 1e-13


def test_pac_vac_magnitude_row_zero_at_setpoint():
    case = _pacvac_case()
    rows = assemble_residuals(case, flat_start(case)).by_label()
    assert rows["V+:VSC1"] == pytest.approx(0.0, abs=1e-14)


def test_pac_vac_rows_vanish_at_oracle_point():
    case = BUNDLED["hybrid_pacvac"]()
    x = fixed_point_solve(case, tol=1e-12)
    res = assemble_residuals(case, x)
    rows = {lab.text(): v for lab, v in zip(res.labels, res.values) if lab.subject == "VSC1"}
    assert max(abs(v) for v in rows.values()) <= 1e-9


# --- full residual vector ----------------------------------------------------


def test_assemble_residuals_zero_for_idle_network():
    case = _edc_case()
    res = assemble_residuals(case, flat_start(case))
    assert res.max_abs() < 1e-13


def test_assemble_residuals_at_solved_microgrid(microgrid):
    sol = solve(microgrid, SolverOptions(tolerance=1e-6))
    assert sol.converged
    res = assemble_residuals(microgrid, sol.x_final)
    assert res.max_abs() <= 1e-6


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_square_system_every_bundled_case(name):
    model = compile_case(BUNDLED[name]())
    x = flat_start(model)
    res = assemble_residuals(model, x)
    assert res.values.size == model.n_x == x.to_array().size
    texts = [lab.text() for lab in res.labels]
    assert len(set(texts)) == len(texts)  # labels unique


def test_residual_labels_cover_documented_blocks(microgrid):
    model = compile_case(microgrid)
    kinds = [lab.kind for lab in model.labels]
    order = {k: i for i, k in enumerate(
        ("P", "Q", "Edc", "P+", "Q+", "E0'", "E-'", "E0''", "E-''", "Pdc"))}
    block_of = [
        0 if k == "P" else
        1 if k in ("Q", "V") else
        2 if k == "Edc" else
        3 if k in ("P+", "Q+", "V+", "P-", "Q-") else
        4 if k.startswith("E0") or k.startswith("E-'") or k in ("E-''",) else
        5
        for k in kinds
    ]
    assert block_of == sorted(block_of)


@pytest.mark.parametrize("name", [*sorted(BUNDLED), *sorted(LOSSY), "radial300"])
def test_the_row_plan_partitions_the_rows(name):
    case = synthetic_radial(300) if name == "radial300" else {**BUNDLED, **LOSSY}[name]()
    m = as_model(case)
    rows = np.concatenate([m.p_rows, m.q_rows, m.v_rows, m.edc_rows, m.pdc_rows,
                           m.conv_rows[m.conv_rows >= 0]])
    assert np.array_equal(np.sort(rows), np.arange(m.n_x))
    # each converter row is labelled with its converter and its kind ...
    for conv_id, conv_rows in zip(case.converters.id, m.conv_rows):
        for kind, row in zip(residuals.CONV_ROW_DEPS, conv_rows.tolist()):
            if row >= 0:
                label = m.labels[row]
                assert (label.kind, label.subject) == (residuals.CONV_ROW_LABEL[kind], conv_id)
    # ... and blocks 4 and 5 hold them in the order of the module docstring
    power, constraints = [], []
    for conv in case.converters:
        wn = conv.sequence_policy == SequencePolicy.WITH_NEGATIVE
        power += ["P+", "V+" if conv.mode == ConverterMode.PAC_VAC else "Q+",
                  *(["P-", "Q-"] if wn else [])]
        constraints += ["E0'", "E0''"] if wn else ["E0'", "E-'", "E0''", "E-''"]
    b4 = m.p_rows.size + m.q_rows.size + m.v_rows.size + m.edc_rows.size
    assert [m.labels[r].kind for r in range(b4, b4 + len(power) + len(constraints))] == (
        power + constraints)


# --- quadratic DC root -------------------------------------------------------


def test_feasible_root_worked_example():
    # 10 E^2 - 9.5 E - 0.5 = 0 has roots {1.0, -0.05}; pick the one nearer 1
    assert feasible_root_from_coeffs(10.0, -9.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_feasible_root_no_load_fixed_point():
    model = as_model(_edc_case())
    op = operating_point(model, flat_start(model))
    assert feasible_dc_root(model, "VSC1", op) == pytest.approx(1.0, abs=1e-12)


def test_feasible_root_negative_discriminant_raises():
    with pytest.raises(InfeasibleError):
        feasible_root_from_coeffs(10.0, 0.1, -10.0)


def test_feasible_root_infeasible_state_raises():
    case = _edc_case()
    model = as_model(case)
    x = flat_start(model)
    # force a huge AC-side transfer: drop the converter voltage far below slack
    pos = model.col_of_full[[3, 4, 5]]
    v = 0.2 * np.exp(-1j * np.pi / 3) * np.array(
        [1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])
    x.e[pos], x.f[pos] = v.real, v.imag
    with pytest.raises(InfeasibleError, match="converter VSC1"):
        feasible_dc_root(model, "VSC1", operating_point(model, x))


def test_feasible_root_unknown_converter_is_named():
    model = as_model(_edc_case())
    with pytest.raises(HybridPfError, match="'nope'"):
        feasible_dc_root(model, "nope", operating_point(model, flat_start(model)))


EDC_CASES = [n for n in sorted(BUNDLED)
             if any(c.mode == ConverterMode.EDC_QAC for c in BUNDLED[n]().converters)]


@pytest.mark.parametrize("name", EDC_CASES)
def test_feasible_root_matches_the_full_operating_point(name, rng):
    model = as_model(BUNDLED[name]())
    x = StateVector.from_array(
        model, flat_start(model).to_array() + rng.uniform(-0.02, 0.02, model.n_x))
    op = operating_point(model, x)
    for conv, cop in zip(model.case.converters, op.conv):
        if conv.mode == ConverterMode.EDC_QAC:
            k = model.case.dc_pos[conv.dc_bus]
            y_kk = model.adm.y_dc[k, k]
            expected = feasible_root_from_coeffs(
                y_kk, op.i_dc[k] - y_kk * x.e_dc[k], cop.s_pos.real)
            assert feasible_dc_root(model, conv.id, op) == expected


@pytest.mark.parametrize("name", EDC_CASES)
def test_feasible_root_within_band_for_bundled_cases(name):
    case = BUNDLED[name]()
    sol = solve(case, SolverOptions(tolerance=1e-10))
    assert sol.converged
    for conv in case.converters:
        if conv.mode == ConverterMode.EDC_QAC:
            root = feasible_dc_root(case, conv.id, sol.op)
            assert 0.5 <= root <= 1.5


# compile_case's structure cache ---------------------------------------------------


def _with_bus(case, bus_id, **changes):
    """``case`` with its AC or DC bus ``bus_id`` replaced by a copy with ``changes``."""
    def swap(buses):
        return tuple(dataclasses.replace(b, **changes) if b.id == bus_id else b for b in buses)
    return dataclasses.replace(case, ac_buses=swap(case.ac_buses), dc_buses=swap(case.dc_buses))


def _with_item(case, field, k, **changes):
    """``case`` with item ``k`` of ``field`` (a branch or converter tuple) changed."""
    items = list(getattr(case, field))
    items[k] = dataclasses.replace(items[k], **changes)
    return dataclasses.replace(case, **{field: tuple(items)})


def _renamed(case, old, new):
    """``case`` with AC bus ``old`` called ``new``, in its branches too."""
    case = _with_bus(case, old, id=new)
    branches = tuple(dataclasses.replace(br, from_bus=new if br.from_bus == old else br.from_bus,
                                         to_bus=new if br.to_bus == old else br.to_bus)
                     for br in case.ac_branches)
    return dataclasses.replace(case, ac_branches=branches)


def _z_changed(case):
    z = case.ac_branches[1].z_series.copy()
    z[1, 1] += 1e-3
    return _with_item(case, "ac_branches", 1, z_series=z)


def _ends_swapped(case):
    br = case.ac_branches[0]
    return _with_item(case, "ac_branches", 0, from_bus=br.to_bus, to_bus=br.from_bus)


STRUCTURAL = {
    "bus kind": ("ac4_pv", lambda c: _with_bus(c, "B2", kind=AcBusKind.PV, q_set=None,
                                               v_set=(1.0,) * 3)),
    "bus id": ("microgrid26_unbalanced", lambda c: _renamed(c, "B05", "B05x")),
    "branch endpoint": ("microgrid26_unbalanced", _ends_swapped),
    "z_series entry": ("microgrid26_unbalanced", _z_changed),
    "y_shunt": ("microgrid26_unbalanced",
                lambda c: _with_item(c, "ac_branches", 2, y_shunt=1e-4j * np.eye(3))),
    "DC r": ("microgrid26_unbalanced",
             lambda c: _with_item(c, "dc_branches", 0, r=c.dc_branches[0].r * 1.01)),
    "converter mode": ("hybrid_pacvac", lambda c: _with_item(
        c, "converters", 0, mode=ConverterMode.PAC_QAC, q_pos_set=0.0, v_mag_set=None)),
    "sequence policy": ("microgrid26_unbalanced", lambda c: _with_item(
        c, "converters", 2, sequence_policy=SequencePolicy.WITH_NEGATIVE, p_neg_set=0.01,
        q_neg_set=0.0)),
    "filter_z": ("hybrid4", lambda c: _with_item(
        c, "converters", 0, filter_z=c.converters[0].filter_z + 1e-3)),
    "loss table": ("hybrid4", lambda c: _with_item(
        c, "converters", 0, loss=LossParams(r_eq_table=((0.0, 0.01), (1.0, 0.02))))),
}


@pytest.mark.parametrize("what", sorted(STRUCTURAL))
def test_a_structural_change_compiles_a_new_structure(what):
    name, change = STRUCTURAL[what]
    base = BUNDLED[name]()
    structure = compile_case(base).structure
    changed = change(base)
    assert compile_case(changed).structure is not structure
    assert compile_case(dataclasses.replace(base)).structure is structure


SETPOINTS = {
    "slack v_angle": ("microgrid26_unbalanced", lambda c: _with_bus(c, "B01", v_angle=0.05)),
    "slack v_mag": ("microgrid26_unbalanced", lambda c: _with_bus(c, "B01", v_mag=1.02)),
    "PQ p_set": ("microgrid26_unbalanced", lambda c: _with_bus(
        c, "B02", p_set=tuple(1.1 * p for p in c.ac_bus("B02").p_set))),
    "PV v_set": ("ac4_pv", lambda c: _with_bus(c, "B4", v_set=(1.02, 1.01, 1.03))),
    "DC p_set": ("microgrid26_unbalanced", lambda c: _with_bus(
        c, "D23", p_set=c.dc_bus("D23").p_set - 0.01)),
    "DC e_set": ("hybrid_pacvac", lambda c: _with_bus(c, "D2", e_set=1.01)),
    "e_dc_set": ("hybrid4", lambda c: _with_item(c, "converters", 0, e_dc_set=1.01)),
    "q_pos_set": ("hybrid4", lambda c: _with_item(
        c, "converters", 0, q_pos_set=c.converters[0].q_pos_set + 0.01)),
    "v_mag_set": ("hybrid_pacvac", lambda c: _with_item(c, "converters", 0, v_mag_set=1.01)),
    "p_pos_set": ("hybrid_pacvac", lambda c: _with_item(
        c, "converters", 0, p_pos_set=1.1 * c.converters[0].p_pos_set)),
    "p_neg_set": ("hybrid_negseq", lambda c: _with_item(
        c, "converters", 0, p_neg_set=1.1 * c.converters[0].p_neg_set)),
}


@pytest.mark.parametrize("what", sorted(SETPOINTS))
def test_a_setpoint_change_reuses_the_structure_bit_for_bit(what):
    name, change = SETPOINTS[what]
    base = compile_case(BUNDLED[name]())
    changed = change(base.case)
    warm = compile_case(changed)
    assert warm.structure is base.structure
    r_warm = assemble_residuals(warm, flat_start(warm)).values
    # the changed setpoint is read from the case, not from the shared structure
    assert not np.array_equal(r_warm, assemble_residuals(base, flat_start(base)).values)
    sol_warm = solve(warm)

    compile_case.cache_clear()
    cold = compile_case(changed)
    assert cold.structure is not warm.structure
    assert np.array_equal(assemble_residuals(cold, flat_start(cold)).values, r_warm)
    sol_cold = solve(cold)
    assert sol_cold.iterations == sol_warm.iterations
    assert np.array_equal(sol_cold.x_final.to_array(), sol_warm.x_final.to_array())


def _joined_digest(case):
    """The structure key's digest as it was first made: one sha256 of every branch's
    z_series and y_shunt bytes joined, then the DC resistances."""
    ac = case.ac_branches
    joined = b"".join([m for pair in zip(ac.z_series, ac.y_shunt) for m in pair])
    r = np.array([br.r for br in case.dc_branches], dtype=float).tobytes()
    return hashlib.sha256(joined + r).digest()


@pytest.mark.parametrize("name", sorted(BUNDLED) + ["radial1000"])
def test_structure_key_digest_equals_the_joined_bytes_digest(name):
    case = synthetic_radial(1000) if name == "radial1000" else BUNDLED[name]()
    assert residuals._structure_key(case)[-1] == _joined_digest(case)


def test_a_hit_neither_validates_nor_builds_admittances(monkeypatch):
    calls = []
    for name in ("validate_topology", "compound_admittance"):
        fn = getattr(residuals, name)
        monkeypatch.setattr(residuals, name,
                            lambda case, fn=fn, name=name: calls.append(name) or fn(case))
    base = BUNDLED["microgrid26_unbalanced"]()
    compile_case(base)
    assert calls == ["validate_topology", "compound_admittance"]
    twin = dataclasses.replace(base)
    assert compile_case(twin).case is twin
    assert compile_case(twin).structure is compile_case(base).structure
    assert len(calls) == 2


def test_the_oldest_structure_is_evicted_past_cache_size(monkeypatch):
    validated = []
    fn = residuals.validate_topology
    monkeypatch.setattr(residuals, "validate_topology",
                        lambda case: validated.append(case.name) or fn(case))
    base = BUNDLED["ac2"]()
    z = base.ac_branches[0].z_series
    cases = [dataclasses.replace(_with_item(base, "ac_branches", 0, z_series=z * (1 + k / 64)),
                                 name=f"s{k}") for k in range(residuals.CACHE_SIZE + 1)]
    for case in cases:
        compile_case(case)
    assert validated == [case.name for case in cases]       # every one a miss
    compile_case(cases[-1])                                 # the newest is kept
    assert len(validated) == residuals.CACHE_SIZE + 1
    compile_case(cases[0])                                  # the oldest was evicted
    assert validated[residuals.CACHE_SIZE + 1 :] == ["s0"]


def test_a_compiled_case_dies_with_its_last_reference():
    gc.disable()
    try:
        case = synthetic_radial(300)
        model = compile_case(case)
        refs = [weakref.ref(model), weakref.ref(case)]
        structure = weakref.ref(model.structure)
        del model, case
        assert all(ref() is None for ref in refs)
        assert structure() is not None        # the structure cache keeps no case
    finally:
        gc.enable()


def test_a_cleared_model_dies_without_the_cycle_collector():
    gc.disable()
    try:
        model = compile_case(synthetic_radial(300))
        refs = [weakref.ref(model), weakref.ref(model.structure), weakref.ref(model.case)]
        compile_case.cache_clear()
        del model
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
