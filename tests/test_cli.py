import inspect
import json

import pytest

from hybridpf import SolverOptions, cli, residuals, solve
from hybridpf.caseio import load_case, load_solution, save_case
from hybridpf.cases import BUNDLED, bundled_case_path, synthetic_radial
from hybridpf.network import (
    AcBranch,
    AcBus,
    AcBusKind,
    NetworkCase,
)
from hybridpf.verify import fixed_point_solve

from conftest import infeasible_start_case, low_v_mag_pacvac


@pytest.fixture
def microgrid_path():
    return str(bundled_case_path("microgrid26_balanced"))


@pytest.fixture
def bad_case_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1, "name": "bad", "units": "pu",
        "ac_buses": [{"id": "B1", "kind": "slack", "v_mag": 1.0, "oops": True}],
    }))
    return str(path)


@pytest.fixture
def diverging_case_path(tmp_path):
    case = NetworkCase(
        name="too_heavy",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-30.0,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )
    path = tmp_path / "diverging.json"
    save_case(case, path)
    return str(path)


def test_solve_microgrid_exits_zero(microgrid_path, capsys):
    rc = cli.main(["solve", microgrid_path, "--tol", "1e-6", "--trace"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged" in out
    iters = [line for line in out.splitlines() if line.startswith("iter=")]
    assert 1 <= len(iters) <= 6
    # --trace prints the solution's trace lines, the start line first
    trace = solve(load_case(microgrid_path), SolverOptions(tolerance=1e-6)).trace
    assert out.splitlines()[: len(trace)] == list(trace)
    assert trace[0].startswith("init max_mismatch=")


def test_solve_bad_case_exits_one(bad_case_path, capsys):
    rc = cli.main(["solve", bad_case_path])
    err = capsys.readouterr().err
    assert rc == 1
    assert "oops" in err


def test_solve_diverging_case_exits_two(diverging_case_path, capsys):
    rc = cli.main(["solve", diverging_case_path, "--max-iter", "8"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "residual history" in out


@pytest.fixture
def cancelled_case_path(tmp_path):
    """Two buses whose half shunt cancels the series stamp, so Y_22 = 0."""
    path = tmp_path / "cancelled.json"
    save_case(NetworkCase(
        name="cancelled",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-0.1,) * 3, q_set=(-0.05,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j, y_shunt=20j),),
    ), path)
    return str(path)


def test_solve_cancelled_self_admittance_exits_zero(cancelled_case_path, capsys):
    rc = cli.main(["solve", cancelled_case_path])
    assert rc == 0
    assert "converged in 1 iterations" in capsys.readouterr().out


def test_verify_cancelled_self_admittance_names_the_bus(cancelled_case_path, capsys):
    rc = cli.main(["verify", cancelled_case_path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "singular (empty rows: B2:a, B2:b, B2:c)" in err


def test_defaults_are_the_library_defaults():
    parser = cli._build_parser()
    solve_args = parser.parse_args(["solve", "x"])
    assert (solve_args.tol, solve_args.max_iter) == (SolverOptions.tolerance,
                                                     SolverOptions.max_iterations)
    assert parser.parse_args(["bench", "x"]).tol == SolverOptions.tolerance
    fixed_point = inspect.signature(fixed_point_solve).parameters
    verify_args = parser.parse_args(["verify", "x"])
    assert (verify_args.tol, verify_args.max_sweeps) == (fixed_point["tol"].default,
                                                         fixed_point["max_sweeps"].default)


def test_solve_has_no_flat_start_flag(capsys):
    # flat start is the default; --init is the only other start
    with pytest.raises(SystemExit) as exit_:
        cli.main(["solve", str(bundled_case_path("ac2")), "--flat-start"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --flat-start" in capsys.readouterr().err


def test_solve_writes_solution_and_csv(tmp_path, capsys):
    case_path = tmp_path / "case.json"
    save_case(BUNDLED["hybrid4"](), case_path)
    sol_path = tmp_path / "out.json"
    vcsv = tmp_path / "v.csv"
    hcsv = tmp_path / "h.csv"
    rc = cli.main(["solve", str(case_path), "--out", str(sol_path),
                   "--csv-voltages", str(vcsv), "--csv-history", str(hcsv)])
    assert rc == 0
    doc = json.loads(sol_path.read_text())
    assert doc["converged"] is True
    assert vcsv.exists() and hcsv.exists()


def test_solve_init_from_solution(tmp_path, capsys):
    case_path = tmp_path / "case.json"
    save_case(BUNDLED["hybrid4"](), case_path)
    sol_path = tmp_path / "warm.json"
    assert cli.main(["solve", str(case_path), "--out", str(sol_path)]) == 0
    rc = cli.main(["solve", str(case_path), "--init", str(sol_path), "--trace"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iter=1" in out and "iter=2" not in out


@pytest.mark.parametrize("doc", [[1], {"schema_version": 3}])
def test_solve_init_from_a_file_of_the_wrong_shape_exits_one(tmp_path, doc, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(doc))
    rc = cli.main(["solve", str(bundled_case_path("ac2")), "--init", str(init)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {init}: at $: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_solve_init_compiles_the_case_once(tmp_path, monkeypatch, capsys):
    case_path = tmp_path / "case.json"
    save_case(BUNDLED["microgrid26_unbalanced"](), case_path)
    sol_path = tmp_path / "warm.json"
    assert cli.main(["solve", str(case_path), "--out", str(sol_path)]) == 0
    keys = []
    monkeypatch.setattr(residuals, "_structure_key",
                        lambda case, key=residuals._structure_key: keys.append(1) or key(case))
    assert cli.main(["solve", str(case_path), "--init", str(sol_path)]) == 0
    assert len(keys) == 1


def test_solve_full_writes_the_derived_blocks(tmp_path, capsys):
    case_path = tmp_path / "case.json"
    save_case(BUNDLED["microgrid26_unbalanced"](), case_path)
    sol_path, full_path = tmp_path / "sol.json", tmp_path / "full.json"
    assert cli.main(["solve", str(case_path), "--out", str(sol_path)]) == 0
    assert cli.main(["solve", str(case_path), "--full", "--out", str(full_path)]) == 0
    full = load_solution(full_path)
    assert {"ac_branch_flows", "dc_branch_flows", "sequence_voltages"} <= full.keys()
    filled = load_solution(sol_path, load_case(case_path))
    assert filled.keys() - load_solution(sol_path).keys() == {
        "ac_branch_flows", "dc_branch_flows", "sequence_voltages"}
    del filled["timings_s"], full["timings_s"]
    assert filled == full


def test_verify_bundled_feeder_exits_zero(capsys):
    rc = cli.main(["verify", str(bundled_case_path("ac2"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "discrepancy" in out


def test_verify_zero_threshold_exits_two(capsys):
    rc = cli.main(["verify", str(bundled_case_path("ac2")), "--threshold", "0"])
    assert rc == 2


def test_verify_zero_sweep_budget_exits_two(capsys):
    rc = cli.main(["verify", str(bundled_case_path("ac2")), "--max-sweeps", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "verify failed: max_sweeps must be at least 1" in err


@pytest.mark.filterwarnings("error")       # numpy's overflow warning would reach stderr
def test_verify_exits_two_where_the_fixed_point_overflows(tmp_path, capsys):
    # NR converges; the fixed point's converter arithmetic overflows on the way
    path = tmp_path / "low_v_mag.json"
    save_case(low_v_mag_pacvac(), path)
    rc = cli.main(["verify", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == [
        "verify failed: fixed-point residual is not finite after 30 sweeps "
        "(nan at row P+:VSC1)"]


def test_solve_an_infeasible_start_exits_two(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_case(infeasible_start_case(), path)
    rc = cli.main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "solve failed: converter VSC1: quadratic DC balance has no real root "
        "(discriminant -59 < 0)"]


def test_verify_radial1000_exits_zero(tmp_path, capsys):
    path = tmp_path / "radial1000.json"
    save_case(synthetic_radial(1000), path)
    rc = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "discrepancy" in out


def test_verify_detects_corrupted_solver(monkeypatch, capsys):
    # simulate a solver defect: every AC voltage shifted by 1e-6
    from hybridpf import solver as solver_mod

    real_solve = solver_mod.solve

    def corrupted(case, options=None, on_iteration=None):
        sol = real_solve(case, options, on_iteration)
        sol.x_final.e += 1e-6
        return sol

    monkeypatch.setattr(cli, "solve", corrupted)
    rc = cli.main(["verify", str(bundled_case_path("ac2"))])
    out = capsys.readouterr().out
    assert rc == 2
    assert "discrepancy" in out


def test_bench_emits_csv_rows(tmp_path, capsys):
    case_path = tmp_path / "case.json"
    save_case(BUNDLED["ac2"](), case_path)
    out_csv = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(case_path), "--repeat", "5", "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("case,n_states,iterations")
    assert len(lines) == 1 + 5


def test_bench_stdout(microgrid_path, capsys):
    rc = cli.main(["bench", microgrid_path])
    out = capsys.readouterr().out
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "microgrid26_balanced"
    assert int(row[1]) == 110  # 17 buses x 6 + 8 DC states


def test_validate_ok(microgrid_path, capsys):
    assert cli.main(["validate", microgrid_path]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad(bad_case_path, capsys):
    assert cli.main(["validate", bad_case_path]) == 1
