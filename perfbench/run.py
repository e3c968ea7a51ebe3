"""Run one workload of the hybridpf benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from ``src/``
of that checkout and nowhere else.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced passes
and prints the per-layer metrics, the tracing overhead among them, and writes
every span to ``perfbench/out/``.  A table for people comes first; the last
line of standard output is one JSON object.  The exit code is 0 only when every
answer was correct.  See README.md beside this file for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("paper_sweep", "radial_pipeline", "crosscheck")
SETUP_REPEATS = 3

IMPORT_REPEATS = 5
GROWTH_LAYERS = {   # .growth name -> per-layer time it is taken from
    "load_case": "caseio.load_case_s",
    "save_solution": "caseio.save_solution_s",
    "validate_topology": "network.validate_topology_s",
    "compound_admittance": "network.compound_admittance_s",
    "compile_case_self": "residuals.compile_case_self_s",
    "feasible_dc_root": "residuals.feasible_dc_root_s",
    "assemble_jacobian": "solver.assemble_jacobian_s",
    "nr_step": "solver.nr_step_s",
    "solve_self": "solver.solve_self_s",
}
TIMED_IMPORT = ("import time; t0 = time.perf_counter(); "
                "import hybridpf, hybridpf.caseio, hybridpf.cases, hybridpf.verify; "
                "print(time.perf_counter() - t0)")


def metric_units() -> dict:
    """Unit of every metric by name, as the checkout's BENCHMARK.json lists it."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def import_program():
    """Import hybridpf from this checkout's src/; None when it is not there."""
    if not (SRC / "hybridpf" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hybridpf
    import hybridpf.caseio
    import hybridpf.cases
    import hybridpf.verify

    return hybridpf


def import_seconds() -> float:
    """Median time to import the program, each time in a fresh interpreter."""
    env = os.environ | {"PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", TIMED_IMPORT], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


# --- statistics -------------------------------------------------------------


def p90(values) -> float:
    """90th percentile; the maximum when fewer than 100 samples leave fewer
    than ten beyond it."""
    if len(values) < 100:
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def tail(values) -> tuple[float, float] | None:
    """Highest of the usual percentiles that has at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


def median_of(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# --- passes -----------------------------------------------------------------


def run_passes(steps, seconds: float) -> None:
    """Run ``steps`` (a cycle of callables) whole, again and again, while the
    next cycle is predicted to end within ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for step in steps:
            step()
        cycle = time.perf_counter() - t0
        if time.perf_counter() - start + cycle > seconds:
            return


def layer_metrics(tracer, result) -> dict:
    """Per-layer numbers of one traced pass."""
    total, own, calls = spans.layer_totals(tracer.spans)
    probed: dict[str, list] = {}
    for idx, found in tracer.attrs.items():
        probed.setdefault(tracer.spans[idx][0], []).append(found)

    def summed(name, key):
        return sum(f[key] for f in probed.get(name, []) if key in f)

    def share(num, den):
        return num / den if den else 0.0

    y = "network.compound_admittance"
    j = "solver.assemble_jacobian"
    c = tracer.counters
    return {
        "caseio.load_case_s": total["caseio.load_case"],
        "caseio.save_solution_s": total["caseio.save_solution"],
        "caseio.bytes_in": c["caseio.bytes_in"],
        "caseio.bytes_out": c["caseio.bytes_out"],
        "network.validate_topology_s": total["network.validate_topology"],
        "network.validate_topology_calls": calls["network.validate_topology"],
        "network.compound_admittance_s": total[y],
        "network.y_ac_nnz": share(summed(y, "nnz"), len(probed.get(y, []))),
        "network.y_ac_zero_frac": share(summed(y, "zeros"), summed(y, "nnz")),
        "residuals.compile_case_self_s": own["residuals.compile_case"],
        "residuals.assemble_residuals_s": total["residuals.assemble_residuals"],
        "residuals.assemble_residuals_calls": calls["residuals.assemble_residuals"],
        "residuals.operating_point_calls": calls["residuals.operating_point"],
        "residuals.feasible_dc_root_s": total["residuals.feasible_dc_root"],
        "residuals.feasible_dc_root_calls": calls["residuals.feasible_dc_root"],
        "solver.assemble_jacobian_s": total[j],
        "solver.jacobian_nnz": share(summed(j, "nnz"), len(probed.get(j, []))),
        "solver.jacobian_zero_frac": share(summed(j, "zeros"), summed(j, "nnz")),
        "solver.nr_step_s": total["solver.nr_step"],
        "solver.lu_fill_ratio": share(summed("solver.nr_step", "lu_nnz"),
                                      summed("solver.nr_step", "j_nnz")),
        "solver.solve_self_s": own["solver.solve"],
        "solver.residual_evals_per_iter": share(calls["residuals.assemble_residuals"],
                                                result.iterations),
        "verify.fixed_point_solve_s": total["verify.fixed_point_solve"],
        "verify.residual_checks": calls["verify.residual_check"],
        "verify.converged_frac": share(c["verify.converged"], c["verify.routes"]),
    }


def measure(workload, args, hp):
    """Timed passes; returns (results, per-layer metrics or None)."""
    import workloads as wl

    results = []
    if not args.trace:
        untraced = spans.NullTracer()
        run_passes([lambda: results.append(workload.run_pass(untraced))], args.seconds)
        return results, None

    plain, traced, small, dumps = [], [], [], []

    def untraced_pass():
        plain.append(workload.run_pass(spans.NullTracer()))

    def traced_pass(into, **size):
        tracer = spans.Tracer()
        with spans.installed(tracer, hp):
            res = workload.run_pass(tracer, **size)
        metrics = layer_metrics(tracer, res)
        into.append(metrics | {"_pass_s": sum(res.op_s)})
        dumps.append({"size": size, "metrics": metrics, **tracer.dump()})
        if not size:
            results.append(res)

    steps = [untraced_pass, lambda: traced_pass(traced)]
    if workload.name == "radial_pipeline":
        steps.append(lambda: traced_pass(small, n_buses=wl.GROWTH_BUSES))
    run_passes(steps, args.seconds)
    results[:0] = plain

    layers = median_of(traced)
    untraced_s = statistics.median(sum(r.op_s) for r in plain)
    traced_s = layers.pop("_pass_s")
    small_layers = median_of(small) if small else None
    for name, key in GROWTH_LAYERS.items():
        layers[f"{name}.growth"] = 0.0 if small_layers is None else spans.growth(
            small_layers[key], layers[key], wl.PIPELINE_BUSES / wl.GROWTH_BUSES)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    layers["trace.untraced_pass_s"] = untraced_s

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                "passes": dumps}))
    print(f"spans written to {path.relative_to(ROOT)}")
    return results, layers


def op_ms(result) -> float:
    """Mean wall time of one op of a pass, in ms."""
    return 1e3 * sum(result.op_s) / len(result.op_s)


def end_to_end(results, import_s, setup_s) -> dict:
    return {
        "op_ms_best_pass": min(op_ms(r) for r in results),
        "nr_iterations": results[0].iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(setup_s),
    }


def print_table(name, results, metrics, units, samples) -> None:
    attempted, failed = results[0].attempted, results[0].failed
    print(f"{name}: {len(results)} passes")
    for key, value in metrics.items():
        n = samples.get(key)
        print(f"  {key:36s} {value:14.6g} {units[key]:6s}" + (f" n={n}" if n else ""))
    ops = [t for r in results for t in r.op_s]
    pass_ms = [op_ms(r) for r in results]
    print(f"  {'op_ms_median_pass':36s} {statistics.median(pass_ms):14.6g} ms     "
          f"n={len(results)}")
    print(f"  {'ops_per_s':36s} {1e3 / statistics.median(pass_ms):14.6g} 1/s    "
          f"n={len(results)}")
    print(f"  {'op_ms_p50':36s} {1e3 * statistics.median(ops):14.6g} ms     n={len(ops)}")
    print(f"  {'op_ms_p90':36s} {1e3 * p90(ops):14.6g} ms     n={len(ops)}")
    top = tail(ops)
    if top:
        print(f"  {'op_ms_p' + format(top[0], 'g'):36s} {1e3 * top[1]:14.6g} ms     n={len(ops)}")
    solve_s = statistics.median(sum(r.solve_s) for r in results)
    print(f"  {'solve_s':36s} {solve_s:14.6g} s      n={len(results)}")
    detail = ", ".join(f"{k}={v}" for k, v in sorted(results[0].failures.items()))
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} ratio  "
          f"failed={failed} attempted={attempted} in each pass"
          + (f" ({detail})" if detail else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # one BLAS thread; set before numpy is imported
    hp = import_program()
    if hp is None:
        print(f"error: no hybridpf sources under {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        kind = wl.WORKLOADS[args.workload]
        extra = {}
        if args.trace and kind is wl.RadialPipeline:
            extra["sizes"] = (wl.PIPELINE_BUSES, wl.GROWTH_BUSES)
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = kind(args.seed, workdir, **extra)
            setup_s.append(time.perf_counter() - t0)
        try:
            results, layers = measure(workload, args, hp)
            correct, error = True, None
        except wl.WrongAnswer as exc:
            results, layers = [], None
            correct, error = False, str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not correct:
        print(f"error: wrong answer: {error}", file=sys.stderr)
        # The run stops at the first wrong answer and counts as one failure.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        metrics = layers
        samples = {}
    else:
        metrics = end_to_end(results, import_seconds(), setup_s)
        samples = {"op_ms_best_pass": len(results), "setup_s": len(setup_s)}
    units = metric_units()
    print_table(args.workload, results, metrics, units, samples)
    print(json.dumps({
        "correct": True,
        # Every pass repeats the inputs of the first and must give the same
        # outcomes, so the counts are those of one pass: they depend on the
        # seed alone, not on how many passes fitted in the run.
        "attempted": results[0].attempted,
        "failed": results[0].failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
