"""Command-line front end: solve, verify, bench, validate.

Exit codes: 0 success, 1 input or output error (parse/schema/topology, or an
unwritable output path), 2 solve-stage failure (non-convergence, singular
Jacobian, DC infeasibility, or a verify discrepancy above the threshold).
``solve --trace`` prints the solve's trace lines once it returns, or the lines
of the records a SolverError carries once it raises.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import sys

import numpy as np

from . import caseio
from .errors import HybridPfError
from .residuals import as_model
from .solver import SolverOptions, solve
from .verify import fixed_point_solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVE = 2

# the fixed-point route's own defaults of tol and max_sweeps
_FIXED_POINT = inspect.signature(fixed_point_solve).parameters


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridpf",
        description="Unified Newton-Raphson power flow for hybrid AC/DC networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a case file")
    ps.add_argument("case")
    ps.add_argument("--tol", type=float, default=SolverOptions.tolerance)
    ps.add_argument("--max-iter", type=int, default=SolverOptions.max_iterations)
    ps.add_argument("--init", metavar="SOLUTION_FILE",
                    help="initialise from a previously saved solution (default: flat start)")
    ps.add_argument("--out", metavar="PATH", help="write the solution file here")
    ps.add_argument("--full", action="store_true",
                    help="also write the branch flows and sequence voltages to --out")
    ps.add_argument("--trace", action="store_true", help="print the trace before the summary")
    ps.add_argument("--csv-voltages", metavar="PATH")

    pv = sub.add_parser("verify", help="cross-check NR against the fixed-point backend")
    pv.add_argument("case")
    pv.add_argument("--threshold", type=float, default=1e-8)
    pv.add_argument("--tol", type=float, default=_FIXED_POINT["tol"].default,
                    help="convergence tolerance used by both methods")
    pv.add_argument("--max-sweeps", type=int, default=_FIXED_POINT["max_sweeps"].default)

    pb = sub.add_parser("bench", help="time the NR stages over repeated runs")
    pb.add_argument("cases", nargs="+")
    pb.add_argument("--repeat", type=int, default=1)
    pb.add_argument("--tol", type=float, default=SolverOptions.tolerance)
    pb.add_argument("--out", metavar="CSV", help="write timing rows here (default stdout)")

    pc = sub.add_parser("validate", help="schema and topology checks only")
    pc.add_argument("case")
    return parser


def cmd_solve(args) -> int:
    case = caseio.load_case(args.case)
    model = as_model(case)   # compiled once, for the restart and the solve
    init = None
    if args.init:
        init = caseio.state_from_solution(caseio.load_solution(args.init), model)
    options = SolverOptions(tolerance=args.tol, max_iterations=args.max_iter, init=init)
    try:
        solution = solve(model, options)
    except HybridPfError as exc:
        if args.trace:      # the records of the iterates made before a SolverError
            for rec in getattr(exc, "records", ()):
                print(*rec.lines(model.labels), sep="\n")
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE

    if args.trace:
        print(*solution.trace, sep="\n")
    status = "converged" if solution.converged else "NOT CONVERGED"
    print(f"case {case.name}: {status} in {solution.iterations} iterations "
          f"({solution.n_states} states, final mismatch {solution.final_mismatch:.3e})")
    for bus, inj in sorted(solution.slack_injections.items()):
        total = complex(np.sum(inj))
        print(f"slack {bus}: P = {total.real:+.6f} p.u., Q = {total.imag:+.6f} p.u.")
    for cid in sorted(solution.losses):
        lb = solution.losses[cid]
        cp = solution.converter_power[cid]
        print(f"converter {cid}: P_ac = {cp['p_ac']:+.6f}, P_dc = {cp['p_dc']:+.6f}, "
              f"loss = {lb.s_loss.real:.6f}, filter = {lb.p_filter:.6f}")
    if not solution.converged:
        print("residual history: "
              + " ".join(f"{r:.3e}" for r in solution.residual_history))
    print(f"# timings_s total={solution.timings.total_s:.6f}")

    if args.out:
        caseio.save_solution(solution, args.out, case, derived=args.full)
    if args.csv_voltages:
        caseio.export_voltages_csv(solution, args.csv_voltages)
    return EXIT_OK if solution.converged else EXIT_SOLVE


def cmd_verify(args) -> int:
    case = caseio.load_case(args.case)
    try:
        solution = solve(case, SolverOptions(tolerance=args.tol))
        if not solution.converged:
            print("NR did not converge", file=sys.stderr)
            return EXIT_SOLVE
        reference = fixed_point_solve(solution.x_final.model, tol=args.tol,
                                      max_sweeps=args.max_sweeps)
    except HybridPfError as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE

    x = solution.x_final
    diff = np.concatenate([x.full_ac() - reference.full_ac(), x.e_dc - reference.e_dc])
    disc = float(np.max(np.abs(diff), initial=0.0))
    print(f"max voltage discrepancy NR vs fixed-point: {disc:.3e} p.u. "
          f"(threshold {args.threshold:.3e})")
    return EXIT_OK if disc <= args.threshold else EXIT_SOLVE


def cmd_bench(args) -> int:
    rows = []
    for case_path in args.cases:
        case = caseio.load_case(case_path)
        for _ in range(args.repeat):
            try:
                solution = solve(case, SolverOptions(tolerance=args.tol))
            except HybridPfError as exc:
                print(f"solve failed: {exc}", file=sys.stderr)
                return EXIT_SOLVE
            t = solution.timings
            rows.append([case.name, solution.n_states, solution.iterations,
                         f"{t.residual_s:.6f}", f"{t.jacobian_s:.6f}",
                         f"{t.linear_s:.6f}", f"{t.total_s:.6f}",
                         int(solution.converged)])
    header = ["case", "n_states", "iterations", "t_residual_s", "t_jacobian_s",
              "t_linsolve_s", "t_total_s", "converged"]
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    case = caseio.load_case(args.case)
    print(f"case {case.name}: schema and topology OK "
          f"({len(case.ac_buses)} AC buses, {len(case.dc_buses)} DC buses, "
          f"{len(case.converters)} converters)")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "bench": cmd_bench,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (HybridPfError, OSError) as exc:   # the files; commands catch solve-stage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
