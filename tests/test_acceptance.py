"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Checks that re-derive quantities do so from scratch (fresh admittance builds
and nodal products), not from the solver's own residual bookkeeping.
"""

import dataclasses
import gc
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from hybridpf import SolverOptions, assemble_jacobian, solve
from hybridpf.caseio import dumps_case, loads_case, save_solution
from hybridpf.cases import BUNDLED, synthetic_radial
from hybridpf.losses import LossParams, converter_losses, switching_current
from hybridpf.network import (
    ConverterMode,
    build_ac_admittance,
    build_dc_admittance,
    validate_topology,
)
from hybridpf.residuals import (
    StateVector,
    as_model,
    assemble_residuals,
    compile_case,
    feasible_dc_root,
    feasible_root_from_coeffs,
)
from hybridpf.sequence import phase_to_sequence
from hybridpf.solver import flat_start
from hybridpf.verify import fd_jacobian, fixed_point_solve

EPS = 1e-8          # solver tolerance used throughout the acceptance runs
SMALL_CASES = sorted(BUNDLED)
ORACLE_CASES = {**BUNDLED, "radial1000": lambda: synthetic_radial(1000)}


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


# 1. convergence parity ---------------------------------------------------------


def test_convergence_parity(microgrid):
    t0 = time.perf_counter()
    sol = solve(microgrid, SolverOptions(tolerance=1e-6))
    wall = time.perf_counter() - t0
    ok = sol.converged and sol.iterations <= 6 and wall < 1.0
    _report("convergence-parity",
            ok, f"iterations={sol.iterations} (<=6), wall={wall * 1e3:.1f} ms (<1 s)")


# 2. multi-IC DC voltage control ------------------------------------------------


def test_multi_ic_dc_control(microgrid):
    sol = solve(microgrid, SolverOptions(tolerance=EPS))
    d19 = abs(sol.dc_voltages["D19"] - 1.000)
    d20 = abs(sol.dc_voltages["D20"] - 0.998)
    ok = sol.converged and d19 <= EPS and d20 <= EPS

    # coinciding setpoints: demoting the second DC-voltage controller must not
    # change the AC-side solution
    two = solve(BUNDLED["multi_ic_two"](), SolverOptions(tolerance=EPS))
    one = solve(BUNDLED["multi_ic_one"](), SolverOptions(tolerance=EPS))
    d_ac = float(np.max(np.abs(two.x_final.full_ac() - one.x_final.full_ac())))
    setpoints = [abs(two.dc_voltages[b] - 1.01) for b in ("D1", "D3")]
    ok = ok and two.converged and one.converged and d_ac <= 1e-6 \
        and max(setpoints) <= EPS
    _report("multi-ic-dc-control", ok,
            f"|dE_dc|=({d19:.1e},{d20:.1e}), pair AC diff={d_ac:.1e} (<=1e-6)")


# 3. oracle equivalence ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_equivalence(name):
    case = ORACLE_CASES[name]()
    sol = solve(case, SolverOptions(tolerance=1e-11))
    ref = fixed_point_solve(case, tol=1e-11, max_sweeps=200000)
    assert sol.converged
    d_ac = (np.max(np.abs(sol.x_final.full_ac() - ref.full_ac()))
            if sol.x_final.full_ac().size else 0.0)
    d_dc = (np.max(np.abs(sol.x_final.e_dc - ref.e_dc))
            if sol.x_final.e_dc.size else 0.0)
    disc = float(max(d_ac, d_dc))
    _report(f"oracle-equivalence[{name}]", disc <= 1e-8, f"max|dV|={disc:.2e}")


# 4. conservation ----------------------------------------------------------------


def _nodal_injections(case, x):
    """Recomputed from scratch: fresh admittance build, S = E conj(Y E)."""
    y_ac = build_ac_admittance(case)
    y_dc = build_dc_admittance(case)
    e = x.full_ac()
    s_ac = e * np.conj(y_ac @ e) if e.size else np.zeros(0, dtype=complex)
    p_dc = x.e_dc * (y_dc @ x.e_dc) if x.e_dc.size else np.zeros(0)
    return s_ac, p_dc


def _branch_losses(case, x):
    e = x.full_ac()
    ids = [b.id for b in case.ac_buses]
    p_loss_ac = 0.0
    for br in case.ac_branches:
        i, j = ids.index(br.from_bus), ids.index(br.to_bus)
        ef, et = e[3 * i:3 * i + 3], e[3 * j:3 * j + 3]
        ys = np.linalg.inv(br.z_series)
        ysh2 = br.y_shunt / 2.0
        s_f = ef * np.conj(ys @ (ef - et) + ysh2 @ ef)
        s_t = et * np.conj(ys @ (et - ef) + ysh2 @ et)
        p_loss_ac += float(np.sum(s_f + s_t).real)
    dc_ids = [b.id for b in case.dc_buses]
    p_loss_dc = 0.0
    for br in case.dc_branches:
        i, j = dc_ids.index(br.from_bus), dc_ids.index(br.to_bus)
        cur = (x.e_dc[i] - x.e_dc[j]) / br.r
        p_loss_dc += float((x.e_dc[i] - x.e_dc[j]) * cur)
    return p_loss_ac, p_loss_dc


@pytest.mark.parametrize("name", SMALL_CASES)
def test_conservation(name):
    case = BUNDLED[name]()
    sol = solve(case, SolverOptions(tolerance=EPS))
    assert sol.converged
    x = sol.x_final
    s_ac, p_dc = _nodal_injections(case, x)
    ids = [b.id for b in case.ac_buses]
    dc_ids = [b.id for b in case.dc_buses]

    worst_conv = 0.0
    for conv in case.converters:
        i = ids.index(conv.ac_bus)
        k = dc_ids.index(conv.dc_bus)
        lb = sol.losses[conv.id]
        gap = abs(float(np.sum(s_ac[3 * i:3 * i + 3]).real)
                  + lb.s_loss.real + lb.p_filter - float(p_dc[k]))
        worst_conv = max(worst_conv, gap)

    p_loss_ac, p_loss_dc = _branch_losses(case, x)
    gap_ac = abs(float(np.sum(s_ac.real)) - p_loss_ac) if s_ac.size else 0.0
    gap_dc = abs(float(np.sum(p_dc)) - p_loss_dc) if p_dc.size else 0.0

    ok = worst_conv <= 10 * EPS and gap_ac <= 10 * EPS and gap_dc <= 10 * EPS
    _report(f"conservation[{name}]", ok,
            f"converter={worst_conv:.1e}, grid ac={gap_ac:.1e}, dc={gap_dc:.1e} (<=1e-7)")


# 5. sequence invariants ----------------------------------------------------------


def test_sequence_invariants_balanced(microgrid):
    sol = solve(microgrid, SolverOptions(tolerance=1e-11))
    worst = 0.0
    for bus, v in sol.ac_voltages.items():
        seq = phase_to_sequence(v)
        worst = max(worst, abs(seq.zero), abs(seq.negative))
    _report("sequence-invariants-balanced", worst <= 1e-10,
            f"max(|E0|,|E-|)={worst:.2e} over all nodes")


def test_sequence_invariants_unbalanced(microgrid_unbalanced):
    sol = solve(microgrid_unbalanced, SolverOptions(tolerance=EPS))
    assert sol.converged
    conv_buses = [c.ac_bus for c in microgrid_unbalanced.converters]
    worst_ic = max(
        max(abs(phase_to_sequence(sol.ac_voltages[b]).zero),
            abs(phase_to_sequence(sol.ac_voltages[b]).negative))
        for b in conv_buses
    )
    # the unbalance must actually be present elsewhere for this to be meaningful
    spread = max(abs(phase_to_sequence(sol.ac_voltages["B09"]).negative), 0.0)
    ok = worst_ic <= EPS and spread > 1e-3
    _report("sequence-invariants-unbalanced", ok,
            f"IC nodes max(|E0|,|E-|)={worst_ic:.2e}, load node |E-|={spread:.2e}")


# 6. Jacobian correctness ----------------------------------------------------------


@pytest.mark.parametrize("name", SMALL_CASES)
def test_jacobian_against_finite_differences(name):
    case = BUNDLED[name]()
    model = as_model(case)
    rng = np.random.default_rng(hash(name) % 2**32)
    base = flat_start(model).to_array()
    worst = 0.0
    for _ in range(10):
        x = StateVector.from_array(model, base + rng.uniform(-0.05, 0.05, model.n_x))
        J = assemble_jacobian(model, x).toarray()
        fd = fd_jacobian(model, x, 1e-7)
        worst = max(worst, float(np.max(np.abs(J + fd) / np.maximum(1.0, np.abs(fd)))))
    _report(f"jacobian-correctness[{name}]", worst <= 1e-5,
            f"max rel err={worst:.2e} over 10 random states")


# 7. root selection -----------------------------------------------------------------


def test_root_selection_against_scan():
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    while checked < 1000:
        r1, r2 = rng.uniform(-1.9, 1.9, size=2)
        if abs(r1 - r2) < 0.01 or abs(abs(r1 - 1) - abs(r2 - 1)) < 1e-6:
            continue
        a = rng.uniform(0.5, 20.0)
        b = -a * (r1 + r2)
        c = a * r1 * r2
        got = feasible_root_from_coeffs(a, b, -c)
        roots = np.roots((a, b, c)).real       # the companion matrix's eigenvalues
        assert roots.size == 2, (a, b, c)
        expected = min(roots, key=lambda r: abs(r - 1.0))
        worst = max(worst, abs(got - expected))
        checked += 1
    _report("root-selection", worst <= 1e-9,
            f"max |closed-form - eigenvalue root|={worst:.2e} over 1000 draws")


# 8. loss-model limits ----------------------------------------------------------------


def test_loss_model_limits():
    zero = converter_losses(0.7 - 0.3j, 1.02, LossParams.zero())
    exact_zero = zero.s_loss == 0j and zero.i_sw == 0.0 and zero.e_c == 0j

    getcontext().prec = 50
    pi = Decimal("3.14159265358979323846264338327950288419716939937511")
    x = pi / 200

    def cot(v):
        v2 = v * v
        return (1 / v - v / 3 - v * v2 / 45 - 2 * v * v2**2 / 945
                - v * v2**3 / 4725 - 2 * v * v2**4 / 93555)

    oracle = float(2 * (Decimal("2e-6") / Decimal("1e-4")) / 200 * cot(x))
    params = LossParams(t_on=1e-6, t_off=0.7e-6, t_rec=0.3e-6, t_s=1e-4, n_ratio=200.0)
    got = switching_current(1.0, params)
    diff = abs(got - oracle)
    ok = exact_zero and diff <= 1e-9
    _report("loss-model-limits", ok,
            f"zero-params exact={exact_zero}, worked value diff={diff:.2e}")


# 9. scaling ----------------------------------------------------------------------------


def test_scaling_subquadratic():
    stats = {}
    for n in (50, 200, 1000):
        case = synthetic_radial(n)
        model = as_model(case)
        sol = solve(case, SolverOptions(tolerance=EPS))
        assert sol.converged and sol.iterations <= 10
        nnz = assemble_jacobian(model, sol.x_final).nnz
        stats[n] = (model.n_x, sol.iterations,
                    sol.timings.total_s / sol.iterations, nnz)
    for n, (states, iters, per_iter, nnz) in stats.items():
        print(f"  scaling n={n}: states={states} iterations={iters} "
              f"per-iteration={per_iter * 1e3:.2f} ms nnz={nnz}")
    state_ratio = stats[1000][0] / stats[50][0]
    time_ratio = stats[1000][2] / stats[50][2]
    nnz_ratio = stats[1000][3] / stats[50][3]
    # linear growth would give ratios ~state_ratio; quadratic ~state_ratio^2
    ok = (stats[1000][1] <= 10
          and time_ratio <= 0.5 * state_ratio**2
          and nnz_ratio <= 2.0 * state_ratio)
    _report("scaling", ok,
            f"states x{state_ratio:.1f}, per-iteration time x{time_ratio:.1f} "
            f"(quadratic would be x{state_ratio**2:.0f}), nnz x{nnz_ratio:.1f}")


def test_scaling_validate_and_summary_subquadratic(tmp_path):
    sizes = (2000, 8000)
    cases = {n: synthetic_radial(n) for n in sizes}
    models = {n: as_model(case) for n, case in cases.items()}
    # the operating point of each size's first residual, as solve builds it
    first_ops = {n: assemble_residuals(model, flat_start(model)).op
                 for n, model in models.items()}
    texts = {n: dumps_case(case) for n, case in cases.items()}
    solutions = {}

    # each returns the seconds of its call that are not part of the measurement
    def validate(n):
        validate_topology(cases[n])
        return 0.0

    def compile_model(n):
        compile_case.cache_clear()           # a cold cache: a full compile
        compile_case(cases[n])
        return 0.0

    def compile_hit(n):
        # a new object with the same content: the structural key and the setpoints
        t0 = time.process_time()
        compile_case(cases[n])
        twin = dataclasses.replace(cases[n])
        excluded = time.process_time() - t0
        assert compile_case(twin).structure is compile_case(cases[n]).structure
        return excluded

    def feasibility(n):
        # the check solve makes at its first residual, before its Newton loop
        model = models[n]
        for conv_id, mode in zip(model.case.converters.id, model.conv_mode):
            if mode == ConverterMode.EDC_QAC:
                feasible_dc_root(model, conv_id, first_ops[n])
        return 0.0

    def summary(n):
        # the results a Solution derives from its final state on first access,
        # timed on the same clock as the rest
        t0 = time.process_time()
        sol = solve(models[n], SolverOptions(tolerance=EPS))
        assert sol.converged
        excluded = time.process_time() - t0
        for result in ("ac_voltages", "dc_voltages", "slack_injections", "losses",
                       "converter_power"):
            getattr(sol, result)
        solutions[n] = sol
        return excluded

    def fixed_point(n):
        fixed_point_solve(models[n], tol=EPS)
        return 0.0

    def load(n):
        loads_case(texts[n])
        return 0.0

    def save(n):
        save_solution(solutions[n], tmp_path / f"radial{n}.solution.json")
        return 0.0

    best = {}
    runs = (("validate", validate, 7), ("compile", compile_model, 3),
            ("compile_hit", compile_hit, 5), ("feasibility", feasibility, 7), ("summary", summary, 3),
            ("fixed_point", fixed_point, 3), ("load", load, 3), ("save", save, 3))
    for name, run, repeat in runs:
        for _ in range(repeat):
            # sizes alternate so that a drift in machine speed hits both alike
            for n in sizes:
                gc.collect()
                gc.disable()
                try:
                    t0 = time.process_time()
                    excluded = run(n)
                    cpu = time.process_time() - t0 - excluded
                finally:
                    gc.enable()
                best[name, n] = min(best.get((name, n), float("inf")), cpu)
    ratios = {name: best[name, 8000] / best[name, 2000] for name, _, _ in runs}
    # 4x more buses: linear growth gives about 4x, quadratic 16x
    ok = all(r <= 8.0 for r in ratios.values())
    _report("scaling-validate-compile-feasibility-summary-fixed-point-load-save", ok,
            "radial2000 -> radial8000: "
            + ", ".join(f"{name} x{r:.1f}" for name, r in ratios.items()) + " (<=8)")
