import dataclasses
import logging

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from hybridpf import (
    AcBranch,
    AcBus,
    AcBusKind,
    NetworkCase,
    SolverError,
    SolverOptions,
    assemble_jacobian,
    flat_start,
    nr_step,
    solve,
)
from hybridpf.cases import BUNDLED, IGBT_LOSS, microgrid26
from hybridpf.residuals import StateVector, as_model
from hybridpf.sequence import W_NEG, W_ZERO
from hybridpf.verify import fd_jacobian


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


def test_flat_start_magnitudes_and_angles(microgrid):
    x = flat_start(microgrid)
    e_full = x.full_ac()
    assert_allclose(np.abs(e_full), 1.0, atol=1e-12)
    model = as_model(microgrid)
    # phase b of every bus sits at -120 degrees
    for i in range(len(model.ac_bus_ids)):
        assert np.angle(e_full[3 * i + 1]) == pytest.approx(-2 * np.pi / 3, abs=1e-12)


def test_flat_start_copies_edc_setpoint():
    case = microgrid26()
    x = flat_start(case)
    model = as_model(case)
    assert x.e_dc[model.dc_bus_ids.index("D19")] == 1.000
    assert x.e_dc[model.dc_bus_ids.index("D20")] == 0.998
    assert x.e_dc[model.dc_bus_ids.index("D24")] == 1.0


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


def _lossy(build):
    """``build`` with IGBT_LOSS on every converter: the bundled pac_qac
    converters are loss-free, so only these cover their loss gradients."""

    def lossy():
        case = build()
        convs = tuple(dataclasses.replace(c, loss=IGBT_LOSS) for c in case.converters)
        return dataclasses.replace(case, converters=convs)

    return lossy


LOSSY = {
    f"{name}_lossy": _lossy(BUNDLED[name])
    for name in ("hybrid_negseq", "multi_ic_one", "microgrid26_unbalanced")
}
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


@pytest.mark.parametrize("name", ["hybrid4", "hybrid_negseq_lossy"])
def test_fd_check_mode_accepts_correct_jacobian(name):
    sol = solve(CASES[name](), SolverOptions(tolerance=1e-8, jacobian_mode="fd_check"))
    assert sol.converged


def test_non_finite_initial_state_names_the_first_bad_column():
    model = as_model(BUNDLED["ac2"]())
    init = flat_start(model).to_array()
    init[[1, 4]] = [np.nan, np.inf]
    opts = SolverOptions(init=StateVector.from_array(model, init))
    with pytest.raises(SolverError, match="^initial state is not finite at E':B2:b$"):
        solve(model, opts)


def test_step_halving_activation_is_logged(caplog):
    case = NetworkCase(
        name="steep",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-2.2,) * 3, q_set=(-0.7,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.02 + 0.21j),),
    )
    with caplog.at_level(logging.INFO, logger="hybridpf.solver"):
        sol = solve(case, SolverOptions(tolerance=1e-8, max_iterations=40))
    if any("halving" in r.message for r in caplog.records):
        assert any("step-halving" in line for line in sol.trace)


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
