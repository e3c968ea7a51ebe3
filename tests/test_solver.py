import dataclasses
import gc
import math
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hybridpf import (
    AcBranch,
    AcBus,
    AcBusKind,
    DcBranch,
    DcBus,
    DcBusKind,
    InfeasibleError,
    NetworkCase,
    SolverError,
    SolverOptions,
    assemble_jacobian,
    flat_start,
    nr_step,
    residuals,
    solve,
    solver,
)
from hybridpf.cases import BUNDLED, synthetic_radial
from hybridpf.network import slack_phasors
from hybridpf.residuals import CURRENT_EPS, StateVector, as_model, operating_point
from hybridpf.sequence import V_NEG, W_NEG, W_ZERO
from hybridpf.verify import fd_jacobian

from conftest import LOSSY, infeasible_start_case


def test_nr_step_identity():
    J = sp.eye(4, format="csr")
    v = np.array([1.0, -2.0, 3.0, 0.5])
    assert_allclose(nr_step(J, v), v)


def test_nr_step_diagonal():
    J = sp.csr_matrix(np.diag([2.0, 4.0]))
    assert_allclose(nr_step(J, np.array([2.0, 4.0])), [1.0, 1.0])


def test_nr_step_random_system(rng):
    a = rng.normal(size=(50, 50)) + 10 * np.eye(50)
    dy = rng.normal(size=50)
    dx = nr_step(sp.csr_matrix(a), dy)
    assert np.linalg.norm(a @ dx - dy) <= 1e-10


def test_nr_step_singular_reports_row_label():
    J = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError) as err:
        nr_step(J, np.ones(2), labels=("row0", "row1"), iteration=3)
    assert "iteration 3" in str(err.value)
    assert "row1" in str(err.value)


def test_nr_step_names_the_state_of_the_first_non_finite_step_entry():
    J = sp.csc_matrix(np.diag([1.0, 1.0, 1e-300]))
    with pytest.raises(SolverError, match="^linear solve produced non-finite values") as err:
        nr_step(J, np.array([1.0, 1.0, 1e300]), labels=("x0", "x1", "x2"), iteration=2)
    assert err.value.state_label == "x2" and str(err.value).endswith("(iteration 2, state x2)")


def test_a_singular_jacobian_with_every_column_matched_names_no_state():
    J = sp.csc_matrix(np.ones((2, 2)))
    with pytest.raises(SolverError, match="^singular Jacobian: ") as err:
        nr_step(J, np.ones(2), labels=lambda: pytest.fail("labels read"), iteration=1)
    assert err.value.state_label is None and str(err.value).endswith("(iteration 1)")


def _counted_factors(monkeypatch) -> Counter:
    """Count the dense (solver._GETRF) and SuperLU (solver.sla.splu) factorizations
    from here on."""
    calls = Counter()
    getrf, splu = solver._GETRF, solver.sla.splu

    def dense(*args, **kwargs):
        calls["dense"] += 1
        return getrf(*args, **kwargs)

    def superlu(*args, **kwargs):
        calls["superlu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver, "_GETRF", dense)
    monkeypatch.setattr(solver.sla, "splu", superlu)
    return calls


@pytest.mark.parametrize("above", [0, 1], ids=["at_the_cut", "one_above"])
def test_a_jacobian_at_the_cut_is_factored_dense_and_one_above_by_superlu(above, monkeypatch,
                                                                          rng):
    n = solver.DENSE_LU_MAX_STATES + above
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    dy = rng.normal(size=n)
    calls = _counted_factors(monkeypatch)
    kept = []
    dx = nr_step(sp.csc_matrix(a), dy, keep=kept.append)
    assert np.linalg.norm(a @ dx - dy) <= 1e-12 * np.linalg.norm(dy)
    assert calls == ({"superlu": 1} if above else {"dense": 1})
    assert isinstance(kept[0], solver.DenseLU) != bool(above)
    assert kept[0].solve(dy).tobytes() == dx.tobytes()


@pytest.mark.parametrize("name", sorted(BUNDLED) + sorted(LOSSY))
def test_the_dense_step_equals_the_superlu_step_at_every_nr_iterate(name):
    """dx of nr_step against SuperLU's on J0 and on J at every state the solve
    reaches, each the final state of a solve capped at that many iterations."""
    model = as_model(CASES[name]())
    assert model.n_x <= solver.DENSE_LU_MAX_STATES
    n = solve(model).iterations
    iterates = [flat_start(model)] + [solve(model, SolverOptions(max_iterations=k)).x_final
                                      for k in range(1, n + 1)]
    for k, x in enumerate(iterates):
        r = residuals.assemble_residuals(model, x).values
        J = assemble_jacobian(model, x)
        superlu = solver.sla.splu(J, panel_size=solver.LU_PANEL_SIZE).solve(r)
        dev = np.max(np.abs(nr_step(J, r) - superlu)) / np.max(np.abs(superlu))
        assert dev <= 1e-12, f"{name}, iterate {k}: {dev:.2e}"


@pytest.mark.parametrize("J, dy, message, state", [
    (np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2),
     "singular Jacobian: Factor is exactly singular (iteration 3, state x1)", "x1"),
    (np.diag([1.0, 1.0, 1e-300]), np.array([1.0, 1.0, 1e300]),
     "linear solve produced non-finite values (iteration 3, state x2)", "x2"),
], ids=["singular", "non_finite"])
def test_a_small_jacobian_failing_dense_is_raised_by_superlu(J, dy, message, state, monkeypatch):
    # dense back substitution turns the one inf into NaN everywhere, so the
    # state at fault is named from SuperLU's step
    calls = _counted_factors(monkeypatch)
    with pytest.raises(SolverError) as err:
        nr_step(sp.csc_matrix(J), dy, labels=[f"x{k}" for k in range(len(dy))], iteration=3)
    assert calls == {"dense": 1, "superlu": 1}
    assert str(err.value) == message and err.value.state_label == state


def test_the_kept_factor_is_dense_at_the_paper_sizes_and_sparse_above_the_cut():
    for case, dense in ((BUNDLED["microgrid26_unbalanced"](), True), (synthetic_radial(30), False)):
        model = as_model(case)
        assert (model.n_x <= solver.DENSE_LU_MAX_STATES) == dense
        solve(model)
        lu = model.structure.flat_start.lu
        assert isinstance(lu, solver.DenseLU) == dense
        if dense:       # shared by every warm solve of the structure
            for array in (lu.lu, lu.piv):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


def test_a_case_with_no_unknowns_converges_at_its_start():
    # a lone slack bus: its residual has no rows, and no step is taken
    case = NetworkCase(name="one", ac_buses=(AcBus("S", AcBusKind.SLACK, v_mag=1.0),))
    for cap in (1, 50):
        sol = solve(case, SolverOptions(max_iterations=cap))
        assert sol.converged and sol.iterations == 0 and sol.n_states == 0
        assert sol.trace == ("init max_mismatch=0.000000e+00",)
        assert sol.residual_history == () and sol.final_mismatch == 0.0
        assert sol.diagnostics is None
        assert_allclose(sol.ac_voltages["S"], slack_phasors(1.0, 0.0))
        assert_allclose(sol.slack_injections["S"], 0.0)


def test_flat_start_magnitudes_and_angles(microgrid):
    x = flat_start(microgrid)
    e_full = x.full_ac()
    assert_allclose(np.abs(e_full), 1.0, atol=1e-12)
    model = as_model(microgrid)
    # phase b of every bus sits at -120 degrees
    for i in range(len(model.ac_bus_ids)):
        assert np.angle(e_full[3 * i + 1]) == pytest.approx(-2 * np.pi / 3, abs=1e-12)


def test_flat_start_copies_edc_setpoint():
    case = BUNDLED["microgrid26_balanced"]()
    x = flat_start(case)
    model = as_model(case)
    assert x.e_dc[model.dc_bus_ids.index("D19")] == 1.000
    assert x.e_dc[model.dc_bus_ids.index("D20")] == 0.998
    assert x.e_dc[model.dc_bus_ids.index("D24")] == 1.0


def test_flat_start_puts_dc_v_nodes_at_their_setpoint():
    case = BUNDLED["dc4"]()
    (k, bus), = [(k, b) for k, b in enumerate(case.dc_buses) if b.kind == DcBusKind.V]
    buses = list(case.dc_buses)
    buses[k] = dataclasses.replace(bus, e_set=1.05)
    case = dataclasses.replace(case, dc_buses=tuple(buses))
    assert flat_start(case).e_dc[k] == 1.05
    sol = solve(case)
    assert sol.converged and sol.dc_voltages[bus.id] == pytest.approx(1.05, abs=1e-8)


def _negative_thevenin(model, c):
    """E-_th and Z-_th at converter c's AC terminal from their definitions, by a
    dense solve of the non-slack block Y_uu: the flat-start injections conj(S/E)
    of the PQ and PV setpoints and the converters' S+, with the slack phasors."""
    case, y = model.case, model.adm.y_ac.toarray()
    s = np.zeros(model.n_ac_nodes, dtype=complex)
    for i, bus in enumerate(case.ac_buses):
        if bus.kind in (AcBusKind.PQ, AcBusKind.PV):
            s[3 * i : 3 * i + 3] = np.array(bus.p_set) + 1j * np.array(
                bus.q_set if bus.kind == AcBusKind.PQ else (0.0,) * 3)
    for conv, term in zip(case.converters, model.conv_ac):
        s[term] += ((conv.p_pos_set or 0.0) + 1j * (conv.q_pos_set or 0.0)) / 3.0
    e_flat = np.tile(residuals.NOMINAL, model.n_ac_nodes // 3)
    u, held = model.unknown_full, np.flatnonzero(model.col_of_full < 0)
    y_uu = y[np.ix_(u, u)]
    inj = np.conj(s / e_flat)[u] - y[np.ix_(u, held)] @ model.slack_voltage[held]
    e = np.linalg.solve(y_uu, inj)
    term = model.col_of_full[model.conv_ac[c]]
    unit = np.zeros(u.size, dtype=complex)
    unit[term] = V_NEG
    return W_NEG @ e[term], W_NEG @ np.linalg.solve(y_uu, unit)[term]


def _two_bus_roots(e_th, z_th, s_neg):
    """Both roots of E- conj(E- - E-_th) = S- conj(Z-_th) / 3 through b = E- - E-_th/2:
    |b|^2 = Re k + |E-_th|^2/4 and Im(b conj E-_th) = -Im k, the smaller first."""
    k = s_neg * np.conj(z_th) / 3.0
    rho = math.sqrt(k.real + abs(e_th) ** 2 / 4.0)
    sin = -k.imag / (rho * abs(e_th))
    unit = e_th / abs(e_th)
    return [rho * unit * (cos + 1j * sin) + e_th / 2.0
            for cos in (-math.sqrt(1.0 - sin**2), math.sqrt(1.0 - sin**2))]


def test_flat_start_seeds_the_negative_sequence_of_with_negative_converters():
    seeded = 0
    for name, build in sorted(BUNDLED.items()) + sorted(LOSSY.items()):
        model = as_model(build())
        e_full = flat_start(model).full_ac()
        for c, conv in enumerate(model.case.converters):
            e_neg = W_NEG @ e_full[model.conv_ac[c]]
            if not model.conv_neg[c]:
                assert abs(e_neg) <= 1e-15, (name, conv.id)
                continue
            # the smaller root of the terminal's two-bus equation
            e_th, z_th = _negative_thevenin(model, c)
            s_neg = conv.p_neg_set + 1j * conv.q_neg_set
            small, large = _two_bus_roots(e_th, z_th, s_neg)
            assert abs(small) < abs(large) / 5, (name, conv.id)
            k = s_neg * np.conj(z_th) / 3.0
            assert abs(e_neg * np.conj(e_neg - e_th) - k) <= 1e-12 * abs(k), (name, conv.id)
            assert abs(e_neg - small) <= 1e-12 * abs(small), (name, conv.id)
            seeded += 1
    assert seeded == 2


def test_a_with_negative_converter_under_balanced_loads_keeps_the_constant_seed():
    # balanced loads and a symmetrically coupled line leave E-_th at rounding
    # level, so the two-bus equation has no root to take; S- along Z-_th keeps
    # the case solvable, by any E- of magnitude sqrt(S- conj(Z-_th) / 3)
    case = BUNDLED["hybrid_negseq"]()
    k = _first(case.ac_buses, AcBusKind.PQ)
    bus = case.ac_buses[k]
    case = _edited(case, "ac_buses", k, p_set=(sum(bus.p_set) / 3,) * 3,
                   q_set=(sum(bus.q_set) / 3,) * 3)
    case = _edited(case, "converters", 0, p_neg_set=1e-4, q_neg_set=2e-4)
    model = as_model(case)
    e_th, z_th = _negative_thevenin(model, 0)
    assert abs(e_th) <= 1e-15
    assert z_th == pytest.approx(0.09 + 0.18j, rel=1e-12)
    assert residuals.negative_seed(model).tolist() == [residuals.NEG_SEED]
    assert W_NEG @ flat_start(model).full_ac()[model.conv_ac[0]] == pytest.approx(
        residuals.NEG_SEED, rel=1e-12)
    sol = solve(model)
    assert sol.converged
    e_neg = sol.sequence_voltages[model.case.converters[0].ac_bus][2]
    assert abs(e_neg) == pytest.approx(math.sqrt(1.5e-5), rel=1e-3)


def test_jacobian_edc_setpoint_row_is_unit_diagonal(hybrid4):
    model = as_model(hybrid4)
    J = assemble_jacobian(model, flat_start(model)).toarray()
    row = next(i for i, lab in enumerate(model.labels) if lab.kind == "Edc")
    k_col = 2 * model.n_unknown + model.dc_bus_ids.index("D1")
    expected = np.zeros(model.n_x)
    expected[k_col] = 1.0
    assert_allclose(J[row], expected, atol=1e-14)


def test_jacobian_sequence_rows_are_fortescue_constants(hybrid4):
    model = as_model(hybrid4)
    J = assemble_jacobian(model, flat_start(model)).toarray()
    n = model.n_unknown
    pos = model.col_of_full[[3, 4, 5]]  # converter bus phases
    for i, lab in enumerate(model.labels):
        if lab.kind == "E0'":
            assert_allclose(J[i][pos], W_ZERO.real, atol=1e-14)
        if lab.kind == "E-'":
            assert_allclose(J[i][pos], W_NEG.real, atol=1e-14)
            assert_allclose(J[i][pos + n], -W_NEG.imag, atol=1e-14)
        if lab.kind == "E-''":
            assert_allclose(J[i][pos], W_NEG.imag, atol=1e-14)
            assert_allclose(J[i][pos + n], W_NEG.real, atol=1e-14)


CASES = {**BUNDLED, **LOSSY}


@pytest.mark.parametrize("name", sorted(BUNDLED) + sorted(LOSSY))
def test_jacobian_matches_finite_differences(name, rng):
    model = as_model(CASES[name]())
    base = flat_start(model).to_array()
    for _ in range(3):
        x = StateVector.from_array(model, base + rng.uniform(-0.05, 0.05, model.n_x))
        J = assemble_jacobian(model, x).toarray()
        FD = fd_jacobian(model, x, 1e-7)  # d(residual)/dx = -J
        err = np.abs(J + FD) / np.maximum(1.0, np.abs(FD))
        assert err.max() <= 1e-5, f"{name}: {err.max():.2e}"


@pytest.mark.parametrize("name", sorted(BUNDLED) + sorted(LOSSY))
def test_jacobian_pattern_does_not_depend_on_the_state(name, rng):
    model = as_model(CASES[name]())
    flat = flat_start(model)
    assert all(abs(c.i_pos) < CURRENT_EPS for c in operating_point(model, flat).conv)
    noisy = StateVector.from_array(model, flat.to_array() + rng.uniform(-0.05, 0.05, model.n_x))
    sol = solve(model)
    assert sol.converged
    ref = assemble_jacobian(model, flat)
    for x in (noisy, sol.x_final):
        J = assemble_jacobian(model, x)
        assert np.array_equal(J.indptr, ref.indptr)
        assert np.array_equal(J.indices, ref.indices)


def test_one_operating_point_per_residual_evaluation(monkeypatch):
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(residuals, "operating_point", counted("op", residuals.operating_point))
    monkeypatch.setattr(solver, "operating_point", counted("op", solver.operating_point))
    monkeypatch.setattr(solver, "assemble_residuals", counted("res", solver.assemble_residuals))
    sol = solve(synthetic_radial(300))
    assert sol.converged and sol.iterations == 3
    assert calls["op"] == calls["res"] == 4


def test_a_kept_jacobian_is_never_overwritten(rng):
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    x1 = flat_start(model)
    x2 = StateVector.from_array(model, x1.to_array() + rng.uniform(-0.05, 0.05, model.n_x))
    J1 = assemble_jacobian(model, x1)
    kept = J1.data.tobytes()
    J2 = assemble_jacobian(model, x2)
    assert solve(model).converged
    assert J2 is not J1 and J1.data.tobytes() == kept
    # with ``out`` the call refills that matrix and returns it
    assert assemble_jacobian(model, x2, out=J1) is J1
    assert J1.data.tobytes() == J2.data.tobytes()


def test_a_solve_builds_one_jacobian_matrix(monkeypatch):
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    built = Counter()

    class Counted(sp.csc_matrix):
        def __init__(self, *args, **kwargs):
            built["csc"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver.sp, "csc_matrix", Counted)
    sol = solve(model)
    assert sol.converged and sol.iterations == 3
    assert built["csc"] == 1


def test_branch_flows_equal_the_per_branch_products(microgrid):
    sol = solve(microgrid)
    s_from, s_to = sol.ac_branch_flows
    assert s_from.shape == s_to.shape == (len(microgrid.ac_branches), 3)
    for br, sf, st in zip(microgrid.ac_branches, s_from, s_to):
        ef, et = sol.ac_voltages[br.from_bus], sol.ac_voltages[br.to_bus]
        ys, ysh2 = np.linalg.inv(br.z_series), br.y_shunt / 2.0
        assert np.array_equal(sf, ef * np.conj(ys @ (ef - et) + ysh2 @ ef))
        assert np.array_equal(st, et * np.conj(ys @ (et - ef) + ysh2 @ et))


RESULTS = ("ac_voltages", "dc_voltages", "slack_injections", "losses", "converter_power",
           "ac_branch_flows", "dc_branch_flows", "sequence_voltages")


def _eager_derivations(sol):
    """Every result as the solve summary used to compute it at every solve, from
    the operating point at the final state."""
    from hybridpf.losses import LossBreakdown
    from hybridpf.sequence import FORTESCUE

    model, x = sol.x_final.model, sol.x_final
    case, op = model.case, operating_point(model, x)
    frm, to, ys, ysh2 = model.adm.ac_branches
    ef = op.e_full[3 * frm[:, None] + np.arange(3)]
    et = op.e_full[3 * to[:, None] + np.arange(3)]
    i_from = (ys @ (ef - et)[..., None] + ysh2 @ ef[..., None])[..., 0]
    i_to = (ys @ (et - ef)[..., None] + ysh2 @ et[..., None])[..., 0]
    dc_frm, dc_to, r = model.adm.dc_branches
    e_i, e_j = x.e_dc[dc_frm], x.e_dc[dc_to]
    cur = (e_i - e_j) / r
    ac_ids = [b.id for b in case.ac_buses]
    e_bus = op.e_full.reshape(-1, 3).copy()
    power = {}
    for c, (conv_id, cop) in enumerate(zip(case.converters.id, op.conv)):
        s_l = op.s_full[model.conv_ac[c]].sum()
        power[conv_id] = {"p_ac": float(s_l.real), "q_ac": float(s_l.imag), "p_dc": cop.p_k}
    return {
        "ac_voltages": dict(zip(ac_ids, e_bus)),
        "dc_voltages": {b.id: float(v) for b, v in zip(case.dc_buses, x.e_dc)},
        "slack_injections": {b.id: op.s_full[3 * i : 3 * i + 3].copy()
                             for i, b in enumerate(case.ac_buses) if b.kind == AcBusKind.SLACK},
        "losses": {conv_id: LossBreakdown(s_loss=cop.s_loss_pos + cop.p_cond_neg,
                                          p_filter=cop.p_filter_total, e_c=cop.e_c, i_sw=cop.i_sw)
                   for conv_id, cop in zip(case.converters.id, op.conv)},
        "converter_power": power,
        "ac_branch_flows": (ef * np.conj(i_from), et * np.conj(i_to)),
        "dc_branch_flows": (e_i * cur, -e_j * cur),
        "sequence_voltages": dict(zip(ac_ids, e_bus @ FORTESCUE.T)),
    }


def _assert_bitwise_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_bitwise_equal(a[key], b[key])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_bitwise_equal(u, v)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    else:
        assert a == b


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_derivations_equal_the_eager_summary_bit_for_bit(name):
    sol = solve(CASES[name]())
    assert not set(RESULTS) & vars(sol).keys()     # nothing is derived by solve
    assert sol.n_states == sol.x_final.model.n_x
    eager = _eager_derivations(sol)
    for result in RESULTS:
        _assert_bitwise_equal(getattr(sol, result), eager[result])
        assert getattr(sol, result) is getattr(sol, result)     # computed once, then kept


def test_zero_load_case_converges_in_one_iteration():
    case = NetworkCase(
        name="zl",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(0.0,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )
    sol = solve(case)
    assert sol.converged and sol.iterations == 1
    assert_allclose(np.abs(sol.ac_voltages["B2"]), 1.0, atol=1e-12)
    assert len(sol.residual_history) == sol.iterations


def test_cancelled_self_admittance_solves():
    """The half shunt cancels the series stamp, so Y_22 = 0. Y_ac keeps the
    diagonal slot, and NR solves S_2 = E_2 conj(Y_21 E_1), linear in E_2."""
    case = NetworkCase(
        name="cancelled",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-0.1,) * 3, q_set=(-0.05,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j, y_shunt=20j),),
    )
    sol = solve(case)
    assert sol.converged and sol.final_mismatch < 1e-8
    e1, e2 = sol.ac_voltages["B1"], sol.ac_voltages["B2"]
    assert_allclose(e2 * np.conj(10j * e1), -0.1 - 0.05j, atol=1e-10)


def test_microgrid_converges_from_flat_start(microgrid):
    sol = solve(microgrid, SolverOptions(tolerance=1e-6))
    assert sol.converged
    assert sol.iterations <= 6
    assert sol.final_mismatch < 1e-6


def test_unbalanced_microgrid_converges(microgrid_unbalanced):
    sol = solve(microgrid_unbalanced, SolverOptions(tolerance=1e-6))
    assert sol.converged and sol.iterations <= 6


def test_solution_is_deterministic(microgrid):
    a = solve(microgrid, SolverOptions(tolerance=1e-10))
    b = solve(microgrid, SolverOptions(tolerance=1e-10))
    assert a.iterations == b.iterations
    assert np.array_equal(a.x_final.to_array(), b.x_final.to_array())
    assert a.residual_history == b.residual_history


def test_multi_ic_dc_voltages_hit_both_setpoints(microgrid):
    sol = solve(microgrid, SolverOptions(tolerance=1e-10))
    assert sol.converged
    assert sol.dc_voltages["D19"] == pytest.approx(1.000, abs=1e-10)
    assert sol.dc_voltages["D20"] == pytest.approx(0.998, abs=1e-10)


def test_residual_history_matches_iterations(microgrid):
    sol = solve(microgrid, SolverOptions(tolerance=1e-8))
    assert len(sol.residual_history) == sol.iterations
    assert sol.residual_history[-1] == sol.final_mismatch


def test_non_convergence_reports_diagnostics():
    # a 30 p.u. load across a j0.1 line has no power flow solution
    case = NetworkCase(
        name="infeasible",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-30.0,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )
    sol = solve(case, SolverOptions(max_iterations=12))
    assert not sol.converged
    assert sol.diagnostics is not None
    assert len(sol.residual_history) == 12


def test_provided_init_must_match_case(microgrid, hybrid4):
    x_other = flat_start(hybrid4)
    with pytest.raises(SolverError):
        solve(microgrid, SolverOptions(init=x_other))


def test_provided_init_from_previous_solution(microgrid):
    first = solve(microgrid, SolverOptions(tolerance=1e-10))
    again = solve(microgrid, SolverOptions(tolerance=1e-8, init=first.x_final))
    assert again.converged and again.iterations == 1


@pytest.mark.parametrize("name", sorted(BUNDLED) + sorted(LOSSY))
def test_jacobian_matches_finite_differences_at_every_nr_iterate(name):
    """J against central differences at the start and at every state the solve
    reaches, each the final state of a solve capped at that many iterations."""
    model = as_model(CASES[name]())
    n = solve(model).iterations
    iterates = [flat_start(model)] + [solve(model, SolverOptions(max_iterations=k)).x_final
                                      for k in range(1, n + 1)]
    for k, x in enumerate(iterates):
        J = assemble_jacobian(model, x).toarray()
        FD = -fd_jacobian(model, x, 1e-7)
        dev = np.max(np.abs(J - FD)) / max(1.0, np.max(np.abs(FD)))
        assert dev <= 1e-6, f"{name}, iterate {k}: {dev:.2e}"


def test_non_finite_initial_state_names_the_first_bad_column():
    model = as_model(BUNDLED["ac2"]())
    init = flat_start(model).to_array()
    init[[1, 4]] = [np.nan, np.inf]
    opts = SolverOptions(init=StateVector.from_array(model, init))
    with pytest.raises(SolverError, match="^initial state is not finite at E':B2:b$"):
        solve(model, opts)


def test_overflowing_start_names_the_first_non_finite_row():
    # D3 at 1e200 p.u.: its own power E_3 (Y_dc E)_3 overflows, its neighbours' do not
    model = as_model(BUNDLED["dc4"]())
    init = flat_start(model)
    init.e_dc[model.case.dc_pos["D3"]] = 1e200
    with (pytest.raises(SolverError, match=r"^residual is not finite at Pdc:D3 \(iteration 0,")
          as err, np.errstate(over="ignore")):
        solve(model, SolverOptions(init=init))
    assert err.value.iteration == 0 and err.value.row_label == "Pdc:D3"


def test_an_overflowing_converter_terminal_names_its_power_row():
    # E of VSC1's AC bus at 1e160 its flat value: |I+|**2 overflows a Python float
    model = as_model(BUNDLED["hybrid_pacvac"]())
    e_full = flat_start(model).full_ac()
    e_full[model.conv_ac[0]] *= 1e160
    init = StateVector.from_full(model, e_full, flat_start(model).e_dc)
    with (pytest.raises(SolverError, match=r"^residual is not finite at P\+:VSC1 \(iteration 0,")
          as err, np.errstate(over="ignore", invalid="ignore")):
        solve(model, SolverOptions(init=init))
    assert err.value.iteration == 0 and err.value.row_label == "P+:VSC1"


def test_an_infeasible_start_raises_at_the_first_residual_before_any_jacobian(monkeypatch):
    calls = _counted_linear_algebra(monkeypatch)
    residual_ops, checked_ops = [], []

    def recording_residual(model, x, op=None):
        res = residuals.assemble_residuals(model, x, op)
        residual_ops.append(res.op)
        return res

    def recording_check(model, conv_id, op):
        checked_ops.append(op)
        return residuals.feasible_dc_root(model, conv_id, op)

    monkeypatch.setattr(solver, "assemble_residuals", recording_residual)
    monkeypatch.setattr(solver, "feasible_dc_root", recording_check)
    with pytest.raises(InfeasibleError, match=r"^converter VSC1: quadratic DC balance has no "
                                              r"real root \(discriminant -59 < 0\)$"):
        solve(infeasible_start_case())
    assert len(residual_ops) == 1 and not calls
    assert len(checked_ops) == 1 and checked_ops[0] is residual_ops[0]


def test_residual_turning_nan_stops_at_that_iteration(monkeypatch):
    # every residual after the start has NaN in row 5, the halved steps' too
    calls = Counter()

    def poisoned(model, x, op=None):
        res = residuals.assemble_residuals(model, x, op)
        calls["res"] += 1
        if calls["res"] > 1:
            res.values[5] = np.nan
        return res

    monkeypatch.setattr(solver, "assemble_residuals", poisoned)
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    with pytest.raises(SolverError, match="^residual is not finite at ") as err:
        solve(model)
    assert err.value.iteration == 1
    assert err.value.row_label == str(model.labels[5]) == "P:B03:c"
    assert [rec.iteration for rec in err.value.records] == [0]


def test_a_solver_error_carries_the_records_made_before_it(monkeypatch):
    # the residuals of iteration 2's trial steps have NaN in row 5
    reference = solve(BUNDLED["microgrid26_unbalanced"]())
    calls = Counter()

    def poisoned(model, x, op=None):
        res = residuals.assemble_residuals(model, x, op)
        calls["res"] += 1
        if calls["res"] > 2:
            res.values[5] = np.nan
        return res

    monkeypatch.setattr(solver, "assemble_residuals", poisoned)
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    with pytest.raises(SolverError, match="^residual is not finite at ") as err:
        solve(model)
    assert err.value.iteration == 2
    assert err.value.records == reference.records[:2]
    assert [line for rec in err.value.records for line in rec.lines(model.labels)] == list(
        reference.trace[:2])


def test_errors_outside_the_loop_carry_no_records():
    assert SolverError("x").records == ()
    with pytest.raises(SolverError, match="^singular Jacobian: ") as err:
        nr_step(sp.csc_matrix((2, 2)), np.ones(2))
    assert err.value.records == ()
    model = as_model(BUNDLED["hybrid4"]())
    init = flat_start(model)
    init.e[0] = np.nan
    with pytest.raises(SolverError, match="^initial state is not finite at ") as err:
        solve(model, SolverOptions(init=init))
    assert err.value.records == ()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_row_is_named_after_the_norm_is_cached(monkeypatch, bad):
    # rows 9 and 40 turn non-finite after the start; the norm is taken first
    calls = Counter()

    def poisoned(model, x, op=None):
        res = residuals.assemble_residuals(model, x, op)
        calls["res"] += 1
        if calls["res"] > 1:
            res.values[[9, 40]] = bad
            assert not np.isfinite(res.max_abs())
        return res

    monkeypatch.setattr(solver, "assemble_residuals", poisoned)
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    with pytest.raises(SolverError, match="^residual is not finite at ") as err:
        solve(model)
    assert err.value.iteration == 1
    assert err.value.row_label == str(model.labels[9])


def _steep_case():
    """A two-bus case loaded past its limit: NR halves its steps from iteration 3."""
    return NetworkCase(
        name="steep",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-2.2,) * 3, q_set=(-0.7,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.02 + 0.21j),),
    )


@pytest.mark.parametrize("options", [
    dict(tolerance=0.0), dict(tolerance=-1e-8), dict(tolerance=float("nan")),
    dict(max_iterations=0), dict(tolerance="1e-8"), dict(tolerance=True),
    dict(max_iterations=2.5), dict(max_iterations="3"), dict(max_iterations=float("inf")),
    dict(max_iterations=True), dict(tolerance=float("inf")), dict(tolerance=10**400),
])
def test_options_out_of_range_raise(options):
    # a NaN tolerance once ran all 50 iterations and returned converged=False; a
    # string or a fractional cap once failed inside solve with a bare TypeError; an
    # infinite tolerance once reported a converged solve at any mismatch
    message = ("max_iterations must be an integer >= 1" if "max_iterations" in options
               else "tolerance must be a finite number" if options["tolerance"] in (math.inf, 10**400)
               else "tolerance must be a number > 0")
    with pytest.raises(SolverError, match=f"^{message}$"):
        SolverOptions(**options)


def test_options_take_numpy_numbers(hybrid4):
    opts = SolverOptions(tolerance=np.float32(1e-6), max_iterations=np.int64(20))
    assert solve(hybrid4, opts).converged


def test_the_trace_lists_each_halved_step_before_its_iterate():
    sol = solve(_steep_case(), SolverOptions(max_iterations=3))
    assert list(sol.trace) == [
        "init max_mismatch=2.200000e+00 worst=P:B2:b",
        # Q:B2:b and Q:B2:c tie to within 1 ulp here (-1.1193000000000006
        # and -1.119300000000001): the worst is the first of the larger
        "iter=1 max_mismatch=1.119300e+00 worst=Q:B2:c",
        "iter=2 max_mismatch=6.951152e-01 worst=Q:B2:c",
        "iter=3 step-halving scale=0.5",
        "iter=3 step-halving scale=0.25",
        "iter=3 step-halving scale=0.125",
        "iter=3 max_mismatch=6.797207e-01 worst=Q:B2:b",
    ]
    assert sol.residual_history[-1] == pytest.approx(6.797207e-01, rel=1e-6)


def test_converged_state_satisfies_power_balances(microgrid):
    # recompute nodal power from scratch and compare against the setpoints
    from hybridpf.network import compound_admittance

    tol = 1e-8
    sol = solve(microgrid, SolverOptions(tolerance=tol))
    adm = compound_admittance(microgrid)
    e = sol.x_final.full_ac()
    s = e * np.conj(adm.y_ac @ e)
    for i, bus in enumerate(microgrid.ac_buses):
        if bus.kind == AcBusKind.PQ:
            for p in range(3):
                assert abs(s[3 * i + p].real - bus.p_set[p]) <= 10 * tol
                assert abs(s[3 * i + p].imag - bus.q_set[p]) <= 10 * tol


@pytest.mark.parametrize("name", ["microgrid26_unbalanced", "hybrid_negseq_lossy"])
def test_a_solution_keeps_the_operating_point_of_its_last_residual(name, monkeypatch):
    from hybridpf.caseio import solution_to_dict

    sol = solve(CASES[name]())
    assert sol.op.e_full.tobytes() == sol.x_final.full_ac().tobytes()

    def refuse(model, x):
        raise AssertionError("operating_point called after the solve")

    monkeypatch.setattr(solver, "operating_point", refuse)
    monkeypatch.setattr(residuals, "operating_point", refuse)
    for attr in ("ac_voltages", "dc_voltages", "slack_injections", "losses", "converter_power",
                 "ac_branch_flows", "dc_branch_flows", "sequence_voltages"):
        getattr(sol, attr)
    doc = solution_to_dict(sol, derived=True)
    assert doc["ac_voltages"] and doc["converter_losses"] and doc["ac_branch_flows"]


@pytest.mark.parametrize("name", ["microgrid26_unbalanced", "hybrid_negseq_lossy", "radial300"])
def test_summary_matches_the_per_bus_and_per_branch_formulas(name):
    from hybridpf.sequence import phase_to_sequence

    case = synthetic_radial(300) if name == "radial300" else CASES[name]()
    sol = solve(case)
    for bus, v in sol.ac_voltages.items():
        # one (n, 3) Fortescue product against one matvec per bus: equal to rounding
        seq, ref = sol.sequence_voltages[bus], phase_to_sequence(v)
        assert_allclose(seq, ref.as_array(), rtol=0, atol=1e-15)
    e_dc = sol.x_final.e_dc
    for br, p_from, p_to in zip(case.dc_branches, *sol.dc_branch_flows):
        e_i, e_j = e_dc[case.dc_pos[br.from_bus]], e_dc[case.dc_pos[br.to_bus]]
        cur = (e_i - e_j) / br.r
        assert (p_from, p_to) == (float(e_i * cur), float(-e_j * cur))


# --- the structure's kept flat start (PfStructure.flat_start) ------------------


def _counted_linear_algebra(monkeypatch) -> Counter:
    """Count solver.assemble_jacobian and solver.nr_step calls from here on."""
    calls = Counter()
    for name in ("assemble_jacobian", "nr_step"):
        def wrapper(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, wrapper)
    return calls


def _edited(case, key, k, **fields):
    """``case`` with element ``k`` of its table ``key`` changed by ``fields``."""
    elements = list(getattr(case, key))
    elements[k] = dataclasses.replace(elements[k], **fields)
    return dataclasses.replace(case, **{key: tuple(elements)})


def _first(table, kind) -> int:
    return next(k for k, element in enumerate(table) if element.kind == kind)


def _flat_key(model) -> bytes:
    """The three phasors of each slack bus in bus order, then the DC voltage
    setpoints, then the seeded E- of each with_negative converter."""
    slack = [slack_phasors(bus.v_mag, bus.v_angle) for bus in model.case.ac_buses
             if bus.kind == AcBusKind.SLACK]
    return (np.array(slack, dtype=complex).tobytes() + model.edc_set.tobytes()
            + residuals.negative_seed(model).tobytes())


@pytest.mark.parametrize("name", sorted(BUNDLED) + sorted(LOSSY))
def test_a_warm_solve_equals_a_cold_one_bit_for_bit(name, monkeypatch):
    calls = _counted_linear_algebra(monkeypatch)
    residuals.compile_case.cache_clear()
    cold = solve(CASES[name]())
    assert calls == {"assemble_jacobian": cold.iterations, "nr_step": cold.iterations}
    calls.clear()
    warm = solve(CASES[name]())
    assert warm.x_final.model.structure is cold.x_final.model.structure
    assert calls["assemble_jacobian"] == calls["nr_step"] == warm.iterations - 1
    assert warm.iterations == cold.iterations
    assert warm.x_final.to_array().tobytes() == cold.x_final.to_array().tobytes()
    assert warm.trace == cold.trace


@pytest.mark.parametrize("name", sorted(BUNDLED) + sorted(LOSSY))
def test_the_kept_factor_solves_as_nr_step_does_bit_for_bit(name):
    model = as_model(CASES[name]())
    assert model.structure.flat_start is None
    solve(model)
    kept = model.structure.flat_start
    assert kept.key == _flat_key(model)
    x0 = flat_start(model)
    r0 = residuals.assemble_residuals(model, x0).values
    assert kept.lu.solve(r0).tobytes() == nr_step(assemble_jacobian(model, x0), r0).tobytes()


def test_the_kept_key_holds_only_the_slack_phasors_and_the_dc_setpoints():
    # 48 bytes for the one slack bus plus 8 for each of the 10 DC setpoint rows
    model = as_model(synthetic_radial(1000))
    solve(model)
    assert len(model.structure.flat_start.key) == 48 + 8 * 10 == 48 + 8 * model.edc_set.size


@pytest.mark.parametrize("edit", ["pq_load", "dc_p_setpoint"])
def test_a_setpoint_outside_the_key_hits(edit, monkeypatch):
    case = BUNDLED["microgrid26_unbalanced"]()
    if edit == "pq_load":
        k = _first(case.ac_buses, AcBusKind.PQ)
        bus = case.ac_buses[k]
        scaled = _edited(case, "ac_buses", k, p_set=tuple(1.2 * p for p in bus.p_set),
                         q_set=tuple(1.2 * q for q in bus.q_set))
    else:
        k = _first(case.dc_buses, DcBusKind.P)
        scaled = _edited(case, "dc_buses", k, p_set=1.2 * case.dc_buses[k].p_set)
    solve(case)
    structure = as_model(case).structure
    kept = structure.flat_start
    calls = _counted_linear_algebra(monkeypatch)
    sol = solve(scaled)
    assert sol.converged and sol.x_final.model.structure is structure
    assert calls["assemble_jacobian"] == calls["nr_step"] == sol.iterations - 1
    assert structure.flat_start is kept
    calls.clear()
    residuals.compile_case.cache_clear()        # the same solve, cold
    cold = solve(scaled)
    assert calls["assemble_jacobian"] == calls["nr_step"] == cold.iterations == sol.iterations
    assert cold.x_final.to_array().tobytes() == sol.x_final.to_array().tobytes()


def _key_edits():
    mg = BUNDLED["microgrid26_unbalanced"]()
    slack = _first(mg.ac_buses, AcBusKind.SLACK)
    negseq = BUNDLED["hybrid_negseq"]()
    dc_v = _first(negseq.dc_buses, DcBusKind.V)
    edc = mg.converters.id.index("VSC1")
    return {
        "slack_v_mag": (mg, _edited(mg, "ac_buses", slack, v_mag=1.01)),
        "slack_v_angle": (mg, _edited(mg, "ac_buses", slack, v_angle=0.01)),
        "dc_v_node_e_set": (negseq, _edited(negseq, "dc_buses", dc_v,
                                            e_set=1.01 * negseq.dc_buses[dc_v].e_set)),
        "edc_qac_e_dc_set": (mg, _edited(mg, "converters", edc,
                                         e_dc_set=1.01 * mg.converters[edc].e_dc_set)),
    }


@pytest.mark.parametrize("edit", ["slack_v_mag", "slack_v_angle", "dc_v_node_e_set",
                                  "edc_qac_e_dc_set"])
def test_a_setpoint_in_the_key_misses_and_replaces_the_entry(edit, monkeypatch):
    base, edited = _key_edits()[edit]
    solve(base)
    structure = as_model(base).structure
    kept = structure.flat_start
    calls = _counted_linear_algebra(monkeypatch)
    sol = solve(edited)
    assert sol.converged and sol.x_final.model.structure is structure
    assert calls["assemble_jacobian"] == calls["nr_step"] == sol.iterations
    assert structure.flat_start is not kept
    assert structure.flat_start.key == _flat_key(sol.x_final.model) != kept.key
    calls.clear()
    again = solve(base)       # only the latest key is kept: a miss again
    assert calls["assemble_jacobian"] == calls["nr_step"] == again.iterations
    assert structure.flat_start.key == kept.key


def test_a_pq_load_moves_the_negative_seed_so_it_misses_and_warm_equals_cold(monkeypatch):
    base = BUNDLED["hybrid_negseq"]()
    k = _first(base.ac_buses, AcBusKind.PQ)
    bus = base.ac_buses[k]
    scaled = _edited(base, "ac_buses", k, p_set=tuple(1.1 * p for p in bus.p_set),
                     q_set=tuple(1.1 * q for q in bus.q_set))
    solve(base)
    structure = as_model(base).structure
    kept = structure.flat_start
    calls = _counted_linear_algebra(monkeypatch)
    first = solve(scaled)
    assert first.x_final.model.structure is structure
    assert calls["assemble_jacobian"] == calls["nr_step"] == first.iterations
    assert structure.flat_start is not kept
    assert structure.flat_start.key == _flat_key(first.x_final.model) != kept.key
    assert len(structure.flat_start.key) == len(kept.key) == 48 + 8 + 16
    calls.clear()
    warm = solve(scaled)
    assert calls["assemble_jacobian"] == calls["nr_step"] == warm.iterations - 1
    residuals.compile_case.cache_clear()
    cold = solve(scaled)
    assert warm.iterations == cold.iterations == first.iterations
    assert warm.x_final.to_array().tobytes() == cold.x_final.to_array().tobytes()


def test_a_given_init_neither_reads_nor_writes_the_kept_factor(monkeypatch):
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    calls = _counted_linear_algebra(monkeypatch)
    sol = solve(model, SolverOptions(init=flat_start(model)))
    assert model.structure.flat_start is None
    assert calls["assemble_jacobian"] == calls["nr_step"] == sol.iterations
    solve(model)
    kept = model.structure.flat_start
    calls.clear()
    sol = solve(model, SolverOptions(init=flat_start(model)))
    assert calls["assemble_jacobian"] == calls["nr_step"] == sol.iterations
    assert model.structure.flat_start is kept


def test_a_singular_flat_start_jacobian_raises_on_every_solve():
    # at E_dc = (2, 1) the P row of D2 reads only E_dc of D1, as D1's setpoint row does
    case = NetworkCase(
        name="singular",
        dc_buses=(DcBus("D1", DcBusKind.V, e_set=2.0), DcBus("D2", DcBusKind.P, p_set=-0.1)),
        dc_branches=(DcBranch("D1", "D2", r=0.05),),
    )
    messages = []
    for _ in range(2):
        with pytest.raises(SolverError, match="^singular Jacobian: ") as err:
            solve(case)
        assert err.value.iteration == 1
        (start,) = err.value.records
        assert (start.iteration, start.scale, start.max_mismatch) == (0, None, 19.9)
        messages.append(str(err.value))
    assert messages[1] == messages[0]
    assert as_model(case).structure.flat_start is None
    # D2's column holds only explicit zeros; the setpoint row of D1 is not at fault
    assert err.value.state_label == "Edc:D2" and messages[0].endswith("(iteration 1, state Edc:D2)")
    assert solve(_edited(case, "dc_buses", 0, e_set=1.0)).converged
    assert as_model(case).structure.flat_start is not None


def test_a_solve_that_raises_puts_its_jacobian_matrix_back(monkeypatch):
    case = NetworkCase(
        name="two DC buses",
        dc_buses=(DcBus("D1", DcBusKind.V, e_set=1.0), DcBus("D2", DcBusKind.P, p_set=-0.1)),
        dc_branches=(DcBranch("D1", "D2", r=0.05),),
    )
    structure = as_model(case).structure
    assert solve(case).converged
    (jac,) = structure.jacobians
    with pytest.raises(SolverError, match="^singular Jacobian: ") as err:
        solve(_edited(case, "dc_buses", 0, e_set=2.0))
    assert err.value.iteration == 1
    assert len(structure.jacobians) == 1 and structure.jacobians[0] is jac
    # the next solve fills that matrix again, to the bits of a solve that builds its own
    given = []
    fn = solver.assemble_jacobian
    monkeypatch.setattr(solver, "assemble_jacobian",
                        lambda *args, out=None: given.append(out) or fn(*args, out=out))
    warm = solve(_edited(case, "dc_buses", 0, e_set=1.1))
    assert given[0] is jac and structure.jacobians[0] is jac
    residuals.compile_case.cache_clear()
    cold = solve(_edited(case, "dc_buses", 0, e_set=1.1))
    assert warm.x_final.to_array().tobytes() == cold.x_final.to_array().tobytes()
    assert warm.iterations == cold.iterations


def test_clearing_the_compile_cache_drops_the_kept_factor(monkeypatch):
    case = BUNDLED["hybrid4"]()
    structure = as_model(case).structure
    solve(case)
    assert structure.flat_start is not None
    gone = weakref.ref(structure)
    del structure
    residuals.compile_case.cache_clear()
    gc.collect()
    assert gone() is None
    calls = _counted_linear_algebra(monkeypatch)
    sol = solve(case)
    assert calls["assemble_jacobian"] == calls["nr_step"] == sol.iterations


def test_the_kept_flat_start_refers_to_no_model():
    # found by reference counting alone: a cycle through a StateVector would keep
    # the structure, its model and the case alive until a collection
    gc.disable()
    try:
        case = BUNDLED["hybrid4"]()
        residuals.compile_case.cache_clear()
        for _ in range(2):      # cold, then warm
            assert solve(case).converged
        gone = weakref.ref(as_model(case).structure)
        assert gone().flat_start is not None and gone().jacobians
        residuals.compile_case.cache_clear()
        assert gone() is None
    finally:
        gc.enable()


def test_a_hit_starts_from_the_kept_state_and_operating_point(monkeypatch):
    case = BUNDLED["hybrid_negseq"]()
    solve(case)                 # a miss keeps the flat start
    model = as_model(case)
    expected = residuals.assemble_residuals(model, flat_start(model)).values
    calls, starts = Counter(), []
    real_op = residuals.operating_point

    def counted_op(model, x):
        calls["operating_point"] += 1
        return real_op(model, x)

    def recording(model, x, op=None):
        before = calls["operating_point"]
        res = residuals.assemble_residuals(model, x, op)
        starts.append((res.values.copy(), calls["operating_point"] - before))
        return res

    def refuse(case):
        raise AssertionError("flat_start called on a hit")

    monkeypatch.setattr(residuals, "operating_point", counted_op)
    monkeypatch.setattr(solver, "assemble_residuals", recording)
    monkeypatch.setattr(solver, "flat_start", refuse)
    sol = solve(case)
    assert sol.converged
    values, built = starts[0]
    assert built == 0 and values.tobytes() == expected.tobytes()
    assert calls["operating_point"] == len(starts) - 1


def test_a_solve_inside_another_gets_its_own_jacobian_matrix(monkeypatch):
    case = BUNDLED["microgrid26_unbalanced"]()
    k = _first(case.ac_buses, AcBusKind.PQ)
    other = _edited(case, "ac_buses", k, p_set=tuple(1.1 * p for p in case.ac_buses[k].p_set))
    serial = [solve(case), solve(other)]
    matrices, who, inner, outer_residuals = {"outer": [], "inner": []}, ["outer"], [], Counter()
    real_step, real_residuals = solver.nr_step, solver.assemble_residuals

    def recording_step(jacobian, *args, **kwargs):
        matrices[who[-1]].append(jacobian)
        return real_step(jacobian, *args, **kwargs)

    def start_inner(model, x, op=None):
        res = real_residuals(model, x, op)
        if who == ["outer"]:
            outer_residuals["calls"] += 1
            if outer_residuals["calls"] == 2:   # iteration 1's step: the outer holds its matrix
                who.append("inner")
                inner.append(solve(other))
                who.pop()
        return res

    monkeypatch.setattr(solver, "nr_step", recording_step)
    monkeypatch.setattr(solver, "assemble_residuals", start_inner)
    outer = solve(case)
    assert matrices["outer"] and matrices["inner"]
    assert not {id(m) for m in matrices["outer"]} & {id(m) for m in matrices["inner"]}
    assert len({id(m) for m in matrices["outer"]}) == 1
    for sol, ref in zip((outer, inner[0]), serial):
        assert sol.x_final.model.structure is ref.x_final.model.structure
        assert sol.x_final.to_array().tobytes() == ref.x_final.to_array().tobytes()
        assert sol.trace == ref.trace


def test_the_kept_arrays_are_read_only():
    model = as_model(BUNDLED["hybrid4"]())
    solve(model)
    kept = model.structure.flat_start
    op = kept.op
    for array in (kept.e, kept.f, kept.e_dc, op.e_full, op.i_full, op.s_full, op.i_dc,
                  op.p_dc_nodal):
        assert array.size
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def _constant_negative_start(model) -> StateVector:
    """The flat start with E- = NEG_SEED at V_NEG's phase at each with_negative
    terminal, the start before negative_seed's rule."""
    e_full = np.tile(residuals.NOMINAL, model.n_ac_nodes // 3)
    e_full[model.conv_ac[list(model.conv_neg)]] += V_NEG * residuals.NEG_SEED
    e_dc = np.ones(model.n_dc)
    e_dc[model.edc_node] = model.edc_set
    return StateVector.from_full(model, e_full, e_dc)


def test_the_trace_is_formatted_from_the_records_with_its_halving_lines():
    # from its seed (negative_seed) hybrid_negseq takes three full steps, cold and warm
    seeded = (
        "init max_mismatch=3.056705e-01 worst=P:B2:a",
        "iter=1 max_mismatch=7.112084e-03 worst=Q:B2:a",
        "iter=2 max_mismatch=4.250231e-06 worst=Q:B2:a",
        "iter=3 max_mismatch=3.006115e-12 worst=Q-:VSC1",
    )
    residuals.compile_case.cache_clear()
    for _ in range(2):          # cold, then warm
        sol = solve(BUNDLED["hybrid_negseq"]())
        assert sol.trace == seeded
        assert [rec.iteration for rec in sol.records] == list(range(4))
        assert [rec.scale for rec in sol.records] == [None] + [1.0] * 3
        assert sol.residual_history == tuple(rec.max_mismatch for rec in sol.records[1:])
        assert sol.residual_history[1] == 4.2502308286729296e-06
        assert sol.final_mismatch == sol.records[-1].max_mismatch
    # from the constant E- it took seven, the second at a quarter step
    model = as_model(BUNDLED["hybrid_negseq"]())
    sol = solve(model, SolverOptions(init=_constant_negative_start(model)))
    assert sol.trace == (
        "init max_mismatch=2.960000e-01 worst=P:B2:a",
        "iter=1 max_mismatch=7.498084e-03 worst=Q:B2:a",
        "iter=2 step-halving scale=0.5",
        "iter=2 step-halving scale=0.25",
        "iter=2 max_mismatch=5.628717e-03 worst=Q:B2:a",
        "iter=3 max_mismatch=1.100806e-03 worst=Q-:VSC1",
        "iter=4 max_mismatch=2.320399e-04 worst=Q-:VSC1",
        "iter=5 max_mismatch=3.058389e-05 worst=Q-:VSC1",
        "iter=6 max_mismatch=9.798107e-07 worst=Q-:VSC1",
        "iter=7 max_mismatch=1.148041e-09 worst=Q-:VSC1",
    )
    assert [rec.scale for rec in sol.records] == [None, 1.0, 0.25] + [1.0] * 5
    assert sol.residual_history[1] == 0.005628717443731335


def test_solves_in_threads_on_one_structure_equal_serial_solves():
    # more threads than cores, switching often: a J matrix written by two
    # solves at once would change a step, and with it the state's bits
    case = BUNDLED["microgrid26_unbalanced"]()
    k = _first(case.ac_buses, AcBusKind.PQ)
    cases = [_edited(case, "ac_buses", k, p_set=tuple(f * p for p in case.ac_buses[k].p_set))
             for f in (0.9, 1.0, 1.1, 1.2)]
    serial = [solve(c).x_final.to_array().tobytes() for c in cases]
    results = {j: [] for j in range(len(cases))}

    def work(j):
        for _ in range(3):
            results[j].append(solve(cases[j]).x_final.to_array().tobytes())

    threads = [threading.Thread(target=work, args=(j,)) for j in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[j] == [serial[j]] * 3 for j in results)


def test_threads_solving_with_one_kept_dense_factor_equal_a_serial_solve():
    # scipy's getrs shifts the pivots it is given in place while it runs: on a
    # factor's own pivots, threads corrupted each other's steps or the heap
    model = as_model(BUNDLED["microgrid26_unbalanced"]())
    solve(model)
    lu = model.structure.flat_start.lu
    assert isinstance(lu, solver.DenseLU)
    rhs = np.random.default_rng(7).standard_normal(model.n_x)
    expected = lu.solve(rhs).tobytes()
    results = {j: [] for j in range(8)}

    def work(j):
        for _ in range(200):
            results[j].append(lu.solve(rhs).tobytes())

    threads = [threading.Thread(target=work, args=(j,)) for j in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[j] == [expected] * 200 for j in results)
