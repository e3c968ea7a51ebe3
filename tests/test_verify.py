"""Checks of the independent verification backends themselves."""

import ast
import dataclasses
import gc
import inspect
import re
import weakref

import numpy as np
import pytest

from hybridpf import SolverOptions, assemble_jacobian, assemble_residuals, solve
from hybridpf.cases import BUNDLED, synthetic_radial
from hybridpf.network import AcBranch, AcBus, AcBusKind, ConverterMode, DcBusKind
from hybridpf.residuals import StateVector, as_model, compile_case
from hybridpf.sequence import W_NEG, W_POS
from hybridpf.solver import flat_start
from hybridpf import verify
from hybridpf.verify import (
    STALL_ROUNDS,
    FixedPointError,
    fd_jacobian,
    fixed_point_solve,
)

from conftest import low_v_mag_pacvac


def _bus_voltage(x, bus_id):
    """The (3,) phase voltages of AC bus ``bus_id`` at state ``x``."""
    return x.full_ac().reshape(-1, 3)[x.model.case.ac_pos[bus_id]]


def test_two_bus_load_voltage():
    case = BUNDLED["ac2"]()
    x = fixed_point_solve(case, tol=1e-12)
    mag = np.abs(_bus_voltage(x, "B2"))
    # frozen from this oracle; cross-checked by the residual assertion below
    assert mag == pytest.approx(0.994923977631630, abs=1e-9)
    assert assemble_residuals(case, x).max_abs() <= 1e-9


def test_zero_load_network_stays_flat():
    from hybridpf import AcBranch, AcBus, AcBusKind, NetworkCase

    case = NetworkCase(
        name="zl",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(0.0,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )
    x = fixed_point_solve(case, tol=1e-12)
    assert np.max(np.abs(np.abs(x.full_ac()) - 1.0)) < 1e-12


def test_hybrid_agreement_with_newton():
    case = BUNDLED["hybrid4"]()
    x_fp = fixed_point_solve(case, tol=1e-11)
    sol = solve(case, SolverOptions(tolerance=1e-11))
    assert np.max(np.abs(x_fp.full_ac() - sol.x_final.full_ac())) <= 1e-8
    assert np.max(np.abs(x_fp.e_dc - sol.x_final.e_dc)) <= 1e-8


def test_pv_agreement_with_newton():
    # PV nodes are unknowns of the implicit solve, each with its own Q estimate
    # that a first-order step moves toward |E|*; the node is then rescaled to |E|*
    case = BUNDLED["ac4_pv"]()
    x_fp = fixed_point_solve(case, tol=1e-11)
    sol = solve(case, SolverOptions(tolerance=1e-11))
    assert np.max(np.abs(x_fp.full_ac() - sol.x_final.full_ac())) <= 1e-8
    np.testing.assert_allclose(np.abs(_bus_voltage(x_fp, "B4")), 1.02, atol=1e-10)


def test_pac_vac_agreement_with_newton():
    # the pac_vac E+ is an unknown of the implicit solve with its own Q estimate,
    # corrected as a PV node's is (Q = 3 E+ conj(I+)), then rescaled to |E+|*
    case = BUNDLED["hybrid_pacvac"]()
    x_fp = fixed_point_solve(case, tol=1e-11)
    sol = solve(case, SolverOptions(tolerance=1e-11))
    assert np.max(np.abs(x_fp.full_ac() - sol.x_final.full_ac())) <= 1e-8
    assert np.max(np.abs(x_fp.e_dc - sol.x_final.e_dc)) <= 1e-8
    assert abs(W_POS @ _bus_voltage(x_fp, "B3")) == pytest.approx(1.005, abs=1e-10)


@pytest.mark.parametrize("name", ["ac4_pv", "hybrid_pacvac"])
def test_voltage_controlled_cases_converge_in_few_sweeps(name):
    # at tol 1e-11 ac4_pv takes 24 sweeps and hybrid_pacvac 30; when the PV
    # update and the pac_vac Q lagged a round behind the solve, 212 and 226
    fixed_point_solve(BUNDLED[name](), tol=1e-11, max_sweeps=40)


def _unbalanced_pv():
    """ac4_pv with unequal P and |E| per phase at PV bus B4, fed by a branch with
    mutual coupling between the phases."""
    case = BUNDLED["ac4_pv"]()
    buses = tuple(dataclasses.replace(b, p_set=(0.03, 0.01, 0.02), v_set=(1.02, 1.01, 1.03))
                  if b.id == "B4" else b for b in case.ac_buses)
    z = (0.01 + 0.015j) * np.eye(3) + (0.002 + 0.005j) * (1 - np.eye(3))
    branches = tuple(AcBranch("B3", "B4", z) if br.to_bus == "B4" else br
                     for br in case.ac_branches)
    return dataclasses.replace(case, ac_buses=buses, ac_branches=branches)


def _pv_beside_pac_vac():
    """hybrid_pacvac with a PV bus B4 (|E| = 1.01) on a short branch from the
    converter bus B3 (|E+| = 1.005)."""
    case = BUNDLED["hybrid_pacvac"]()
    pv = AcBus("B4", AcBusKind.PV, p_set=(0.01,) * 3, v_set=(1.01,) * 3)
    branch = AcBranch("B3", "B4", 0.006 + 0.012j)
    return dataclasses.replace(case, ac_buses=(*case.ac_buses, pv),
                               ac_branches=(*case.ac_branches, branch))


def _pv_feeder():
    """synthetic_radial(300) with every tenth feeder load turned into a PV
    bus (P = 0.003, |E| = 1.0 per phase): 26 PV buses on shared feeders."""
    case = synthetic_radial(300)
    feeder = [b for b in case.ac_buses if b.kind == AcBusKind.PQ and b.id.startswith("A")]
    pv = {b.id: AcBus(b.id, AcBusKind.PV, p_set=(0.003,) * 3, v_set=(1.0,) * 3)
          for b in feeder[9::10]}
    return dataclasses.replace(case, ac_buses=tuple(pv.get(b.id, b) for b in case.ac_buses))


@pytest.mark.parametrize("build", [_unbalanced_pv, _pv_beside_pac_vac, _pv_feeder],
                         ids=["unbalanced_pv", "pv_beside_pac_vac", "pv_feeder"])
def test_voltage_controlled_nodes_agree_with_newton_and_hold_their_magnitude(build):
    # coupled voltage-controlled nodes take one joint Q step: a separate step
    # per node diverges on the last two cases
    case = build()
    x_fp = fixed_point_solve(case, tol=1e-11)
    sol = solve(case, SolverOptions(tolerance=1e-11))
    assert sol.converged
    assert np.max(np.abs(x_fp.full_ac() - sol.x_final.full_ac())) <= 1e-8
    assert np.max(np.abs(x_fp.e_dc - sol.x_final.e_dc), initial=0.0) <= 1e-8
    for bus in case.ac_buses:
        if bus.kind == AcBusKind.PV:
            np.testing.assert_allclose(np.abs(_bus_voltage(x_fp, bus.id)), bus.v_set,
                                       rtol=0, atol=1e-10)
    for conv in case.converters:
        if conv.mode == ConverterMode.PAC_VAC:
            e_pos = W_POS @ _bus_voltage(x_fp, conv.ac_bus)
            assert abs(e_pos) == pytest.approx(conv.v_mag_set, abs=1e-10)


def test_a_resistive_pv_feeder_fails_typed():
    # with no reactance anywhere, Q does not move |E| to first order
    case = BUNDLED["ac4_pv"]()
    branches = tuple(AcBranch(b.from_bus, b.to_bus, b.z_series.real) for b in case.ac_branches)
    with pytest.raises(FixedPointError, match=r"^Q-V sensitivity of the controlled nodes: "):
        fixed_point_solve(dataclasses.replace(case, ac_branches=branches))


def _scaled(case, factor):
    """``case`` with every PQ and DC P load times ``factor``."""
    ac = tuple(dataclasses.replace(b, p_set=tuple(factor * v for v in b.p_set),
                                   q_set=tuple(factor * v for v in b.q_set))
               if b.kind == AcBusKind.PQ else b for b in case.ac_buses)
    dc = tuple(dataclasses.replace(b, p_set=factor * b.p_set) if b.kind == DcBusKind.P else b
               for b in case.dc_buses)
    return dataclasses.replace(case, ac_buses=ac, dc_buses=dc)


def test_a_stalled_iteration_stops_within_the_stall_guard():
    # beyond the loadability limit the residual bottoms out at round 8 and then
    # oscillates; without the guard the default budget took seconds to run out
    with pytest.raises(FixedPointError, match=(
            rf"stalled: no new residual minimum in {STALL_ROUNDS} rounds "
            r"\(best 4\.035e-03 at round 8; residual .* at row \S+ after \d+ sweeps\)$")):
        fixed_point_solve(_scaled(synthetic_radial(1000), 20), max_sweeps=2 * (STALL_ROUNDS + 10))


def test_negative_sequence_root_is_the_small_one():
    # E- at the converter, frozen from the per-row Gauss-Seidel route this one
    # replaced: the current-division update must keep selecting the same root
    x = fixed_point_solve(BUNDLED["hybrid_negseq"](), tol=1e-11)
    e_neg = complex(W_NEG @ _bus_voltage(x, "B3"))
    assert abs(e_neg - (0.00033410523064003605 - 0.0008702507985396488j)) <= 1e-8


def _perturbed_loads(case, rng):
    """``case`` with each PQ phase load (P and Q together) scaled by its own
    factor in [0.9, 1.1]."""
    buses = []
    for bus in case.ac_buses:
        if bus.kind == AcBusKind.PQ:
            k = rng.uniform(0.9, 1.1, 3)
            bus = dataclasses.replace(bus, p_set=tuple((np.array(bus.p_set) * k).tolist()),
                                      q_set=tuple((np.array(bus.q_set) * k).tolist()))
        buses.append(bus)
    return dataclasses.replace(case, ac_buses=tuple(buses))


def test_newton_takes_the_fixed_point_root_of_perturbed_hybrid_negseq():
    # from a constant E- seed NR reached the other, large-E- root in 22 of these 60
    base = BUNDLED["hybrid_negseq"]()
    worst = 0.0
    for seed in range(1, 61):
        case = _perturbed_loads(base, np.random.default_rng([seed, 4, 0]))
        sol = solve(case, SolverOptions(tolerance=1e-10))
        assert sol.converged, seed
        x = fixed_point_solve(case, tol=1e-10)
        worst = max(worst, np.max(np.abs(sol.x_final.full_ac() - x.full_ac())),
                    np.max(np.abs(sol.x_final.e_dc - x.e_dc)))
    assert worst <= 1e-8


@pytest.mark.parametrize("budget, message", [
    (0, "max_sweeps must be at least 1, got 0"), (-5, "max_sweeps must be at least 1, got -5"),
    ("10", "max_sweeps must be an integer, not '10'"),
    (float("nan"), "max_sweeps must be an integer, not nan"),
    (float("inf"), "max_sweeps must be an integer, not inf"),
    (2.5, "max_sweeps must be an integer, not 2.5"),
    (True, "max_sweeps must be an integer, not True"),
], ids=["0", "-5", "str", "nan", "inf", "2.5", "True"])
def test_budget_below_one_sweep_raises(budget, message):
    # a str was a bare TypeError; NaN, inf and 2.5 were taken as budgets
    with pytest.raises(FixedPointError, match=f"^{re.escape(message)}$"):
        fixed_point_solve(BUNDLED["ac2"](), max_sweeps=budget)


@pytest.mark.parametrize("tol, message", [
    (0.0, "tol must be > 0, got 0.0"), (-1e-8, "tol must be > 0, got -1e-08"),
    (float("nan"), "tol must be > 0, got nan"),
    (float("inf"), "tol must be a finite number"), (10**400, "tol must be a finite number"),
    (True, "tol must be a number, not True"), ("1e-8", "tol must be a number, not '1e-8'"),
], ids=["0.0", "-1e-08", "nan", "inf", "huge-int", "True", "str"])
def test_a_tolerance_not_above_zero_raises(tol, message):
    # a NaN tolerance once ran every sweep and then reported a stall; an infinite
    # or a True tolerance returned a state of residual 9.7e-2, and a str was a
    # bare TypeError
    with pytest.raises(FixedPointError, match=f"^{re.escape(message)}$"):
        fixed_point_solve(BUNDLED["ac2"](), tol=tol)


def test_singular_reduced_admittance_raises():
    # a lossless ladder whose shunts make det(Y) over B2, B3 exactly zero:
    # Y22 = 20j, Y33 = 5j, Y23 = 10j
    from hybridpf import AcBranch, AcBus, AcBusKind, NetworkCase

    zero = (0.0,) * 3
    case = NetworkCase(
        name="lc",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=zero, q_set=zero),
            AcBus("B3", AcBusKind.PQ, p_set=zero, q_set=zero),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j, y_shunt=50j),
                     AcBranch("B2", "B3", z_series=0.1j, y_shunt=30j)),
    )
    messages = []
    for _ in range(2):          # a failed build leaves nothing cached
        with pytest.raises(FixedPointError, match="singular") as err:
            fixed_point_solve(case)
        messages.append(str(err.value))
    assert messages[0].startswith("reduced admittance matrix is singular: ")  # no empty row
    assert messages[1] == messages[0]


def test_singular_reduced_admittance_names_the_empty_rows():
    # the half shunt cancels the series stamp, so Y_22 = 0 in every phase
    from hybridpf import AcBranch, AcBus, AcBusKind, NetworkCase

    case = NetworkCase(
        name="cancelled",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-0.1,) * 3, q_set=(-0.05,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j, y_shunt=20j),),
    )
    with pytest.raises(FixedPointError, match=r"^reduced admittance matrix is singular "
                       r"\(empty rows: B2:a, B2:b, B2:c\): "):
        fixed_point_solve(case)


def test_non_finite_residual_stops_at_once(monkeypatch):
    real = verify.assemble_residuals

    def poisoned(model, x):
        res = real(model, x)
        res.values[0] = np.nan
        return res

    monkeypatch.setattr(verify, "assemble_residuals", poisoned)
    with pytest.raises(FixedPointError, match=r"^fixed-point residual is not finite after 2 "
                                              r"sweeps \(nan at row P:B2:a\)$"):
        fixed_point_solve(BUNDLED["ac2"](), max_sweeps=100)


def test_the_first_residual_evaluation_is_at_the_flat_start(monkeypatch):
    # hybrid_negseq: the seeded E- of its with_negative converter included
    model = as_model(BUNDLED["hybrid_negseq"]())
    states = []

    def recording(model, x):
        states.append(x.to_array().copy())
        return assemble_residuals(model, x)

    monkeypatch.setattr(verify, "assemble_residuals", recording)
    fixed_point_solve(model)
    assert states[0].tobytes() == flat_start(model).to_array().tobytes()


def test_non_convergence_names_the_worst_row():
    # two rounds are far too few for the pac_vac coupling
    with pytest.raises(FixedPointError, match=r"after 4 sweeps .* at row P\+:VSC1"):
        fixed_point_solve(BUNDLED["hybrid_pacvac"](), max_sweeps=4)


def test_an_overflow_in_the_converter_arithmetic_names_its_power_row():
    case = low_v_mag_pacvac()
    sol = solve(case)
    assert sol.converged and sol.iterations == 14
    with pytest.raises(FixedPointError, match=r"^fixed-point residual is not finite after 30 "
                                              r"sweeps \(nan at row P\+:VSC1\)$"):
        fixed_point_solve(case)


def _state_bytes(x):
    return x.to_array().tobytes()


@pytest.mark.parametrize("name", ["microgrid26_unbalanced", "hybrid_pacvac"])
def test_a_setpoint_variant_reuses_the_operators(name, monkeypatch):
    factored = []
    real = verify.splu
    monkeypatch.setattr(verify, "splu", lambda a: factored.append(a.shape) or real(a))
    x = fixed_point_solve(BUNDLED[name]())
    assert len(factored) == 2                   # the reduced AC and DC matrices
    variant = _scaled(BUNDLED[name](), 1.05)
    y = fixed_point_solve(variant)
    assert len(factored) == 2
    assert y.model.structure is x.model.structure
    assert assemble_residuals(variant, y).max_abs() <= 1e-10
    assert _state_bytes(y) != _state_bytes(x)
    ops = x.model.structure.fixed_point
    arrays = [a for v in vars(ops).values()
              for a in ((v.data, v.indices, v.indptr) if hasattr(v, "indptr") else (v,))
              if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("name", ["microgrid26_unbalanced", "hybrid_pacvac", "hybrid_negseq",
                                  "ac4_pv"])
def test_a_warm_call_gives_the_cold_state_bit_for_bit(name):
    compile_case.cache_clear()
    cold = fixed_point_solve(BUNDLED[name]())
    warm = fixed_point_solve(BUNDLED[name]())
    assert warm.model.structure is cold.model.structure
    assert _state_bytes(warm) == _state_bytes(cold)


@pytest.mark.parametrize("name", ["microgrid26_unbalanced", "hybrid_pacvac", "hybrid_negseq"])
def test_a_variant_in_between_leaves_the_operators_as_they_were(name):
    first = fixed_point_solve(BUNDLED[name]())
    between = fixed_point_solve(_scaled(BUNDLED[name](), 0.9))
    again = fixed_point_solve(BUNDLED[name]())
    assert between.model.structure is first.model.structure
    assert _state_bytes(between) != _state_bytes(first)
    assert _state_bytes(again) == _state_bytes(first)


def test_cleared_operators_die_without_the_cycle_collector():
    gc.disable()
    try:
        x = fixed_point_solve(synthetic_radial(300))
        refs = [weakref.ref(x.model.structure.fixed_point), weakref.ref(x.model.structure)]
        compile_case.cache_clear()
        del x
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_fd_jacobian_exact_on_linear_rows(hybrid4):
    model = as_model(hybrid4)
    x = flat_start(model)
    fd = fd_jacobian(model, x, 1e-5)
    row = next(i for i, lab in enumerate(model.labels) if lab.kind == "Edc")
    k_col = 2 * model.n_unknown + model.dc_bus_ids.index("D1")
    expected = np.zeros(model.n_x)
    expected[k_col] = -1.0  # derivative of the mismatch E* - E_k
    np.testing.assert_allclose(fd[row], expected, atol=1e-9)


def test_fd_step_sensitivity(hybrid4, rng):
    model = as_model(hybrid4)
    base = flat_start(model).to_array()
    x = StateVector.from_array(model, base + rng.uniform(-0.03, 0.03, model.n_x))
    f6 = fd_jacobian(model, x, 1e-6)
    f7 = fd_jacobian(model, x, 1e-7)
    assert np.max(np.abs(f6 - f7)) / max(1.0, np.max(np.abs(f7))) <= 1e-4


def test_fd_matches_minus_analytic(hybrid4, rng):
    model = as_model(hybrid4)
    base = flat_start(model).to_array()
    x = StateVector.from_array(model, base + rng.uniform(-0.03, 0.03, model.n_x))
    J = assemble_jacobian(model, x).toarray()
    fd = fd_jacobian(model, x, 1e-7)
    assert np.max(np.abs(J + fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-5


def test_dc_only_agreement():
    case = BUNDLED["dc4"]()
    x_fp = fixed_point_solve(case, tol=1e-12)
    sol = solve(case, SolverOptions(tolerance=1e-12))
    assert np.max(np.abs(x_fp.e_dc - sol.x_final.e_dc)) <= 1e-9


def test_verify_module_does_not_import_newton_code():
    # independence rule: the oracle must not touch the solver or its Jacobian
    tree = ast.parse(inspect.getsource(verify))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("solver" in name for name in imported)


def test_verify_module_computes_no_loss():
    # the coupling targets read the losses of the residual's operating point
    tree = ast.parse(inspect.getsource(verify))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "losses" not in imported and "hybridpf.losses" not in imported
