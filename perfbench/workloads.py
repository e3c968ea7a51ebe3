"""Seeded inputs and the three workloads of the hybridpf benchmark.

Every workload is a closed loop with one client in one process.  Its unit of
measurement is a *pass* over a fixed, seed-determined list of inputs, so the NR
iteration count of a pass repeats exactly.  Each solve gets a fresh
``NetworkCase`` object, because ``compile_case`` caches on object identity and a
re-solved object would silently skip compilation.

The program receives only generated cases: the seed perturbs every PQ phase load
and every DC P-node setpoint by a factor drawn from [0.9, 1.1].
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from pathlib import Path

import numpy as np

import hybridpf
from hybridpf import caseio, cases, residuals, verify
from hybridpf.errors import InfeasibleError, SolverError
from hybridpf.network import AcBusKind, DcBusKind

PAPER_CASES = (
    "microgrid26_balanced",
    "microgrid26_unbalanced",
    "multi_ic_two",
    "multi_ic_one",
    "hybrid_negseq",
    "hybrid_pacvac",
    "hybrid4",
)
PAPER_VARIANTS = 30           # seeded variants per paper case: 210 solves a pass
PIPELINE_BUSES = 10_000
GROWTH_BUSES = 3_000          # second size of the traced run, for .growth
CROSSCHECK_RADIAL = (30, 100)
CROSS_TOL = 1e-10             # NR and fixed-point tolerance of the cross-check
# Fixed-point sweep budget of the cross-check (the program's default is 20,000).
# microgrid26 needs about 2,440 sweeps and radial30 about 1,370; radial100 needs
# over 20,000 and fails either way, so a pass stays short enough to repeat.
FIXED_POINT_SWEEPS = 3_200
MAX_DISCREPANCY = 1e-8        # NR vs fixed point, max |dV| in p.u.
NR_TOL = hybridpf.SolverOptions().tolerance

# Held before the traced runs patch the name, to empty the cache between passes.
_compile_cache = residuals.compile_case


class WrongAnswer(Exception):
    """The program returned a result that fails the benchmark's checks."""


@dataclasses.dataclass
class PassResult:
    """What one pass did.  Times are wall seconds of the program's calls only."""

    op_s: list = dataclasses.field(default_factory=list)
    solve_s: list = dataclasses.field(default_factory=list)
    iterations: int = 0
    attempted: int = 0
    failures: Counter = dataclasses.field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def perturb(case, rng: np.random.Generator):
    """Copy of ``case`` with each PQ phase load (P and Q of one phase together)
    and each DC P-node setpoint scaled by its own factor in [0.9, 1.1]."""
    ac = []
    for bus in case.ac_buses:
        if bus.kind == AcBusKind.PQ:
            k = rng.uniform(0.9, 1.1, 3)
            bus = dataclasses.replace(
                bus,
                p_set=tuple(float(p * f) for p, f in zip(bus.p_set, k)),
                q_set=tuple(float(q * f) for q, f in zip(bus.q_set, k)),
            )
        ac.append(bus)
    dc = []
    for bus in case.dc_buses:
        if bus.kind == DcBusKind.P:
            bus = dataclasses.replace(bus, p_set=float(bus.p_set * rng.uniform(0.9, 1.1)))
        dc.append(bus)
    return dataclasses.replace(case, ac_buses=tuple(ac), dc_buses=tuple(dc))


def fresh(case):
    """A new NetworkCase object with the same content (a compile-cache miss)."""
    return dataclasses.replace(case)


def paper_variants(seed: int, count: int) -> list:
    out = []
    for k, name in enumerate(PAPER_CASES):
        base = cases.BUNDLED[name]()
        out += [perturb(base, rng_for(seed, k, v)) for v in range(count)]
    return out


def radial_variant(seed: int, n_buses: int):
    return perturb(cases.synthetic_radial(n_buses), rng_for(seed, n_buses))


def _nr(case, tracer, result: PassResult, tol: float):
    """One timed hybridpf.solve; returns the Solution, or None when it failed."""
    t0 = time.perf_counter()
    try:
        with tracer.span("solver.solve"):
            sol = hybridpf.solve(case, hybridpf.SolverOptions(tolerance=tol))
    except (SolverError, InfeasibleError):
        result.failures["nr_error"] += 1
        return None
    finally:
        result.solve_s.append(time.perf_counter() - t0)
    result.iterations += sol.iterations
    if not (sol.converged and sol.final_mismatch < tol):
        result.failures["nr_not_converged"] += 1
        return None
    return sol


def _check_residual(sol, tol: float) -> None:
    """Re-evaluate the residual of a converged state apart from the solve loop."""
    x = sol.x_final
    res = residuals.assemble_residuals(x.model, x).max_abs()
    if not res < tol:
        raise WrongAnswer(f"{x.model.case.name}: solve reports convergence but the "
                          f"residual of its state is {res:.3e}")


class PaperSweep:
    """Many small solves of seeded paper-case variants, built in memory."""

    name = "paper_sweep"

    def __init__(self, seed: int, workdir: Path):
        self.pool = paper_variants(seed, PAPER_VARIANTS)
        self.reference = None     # iterations and final states of the first pass

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        states = []
        for case in self.pool:
            case = fresh(case)
            tracer.op += 1
            result.attempted += 1
            sol = _nr(case, tracer, result, NR_TOL)
            result.op_s.append(result.solve_s[-1])
            if sol is not None and self.reference is None:
                with tracer.paused():   # later passes must match this one
                    _check_residual(sol, NR_TOL)
            states.append(None if sol is None else sol.x_final.to_array())
        _same_as_first_pass(self, result, states)
        return result


class RadialPipeline:
    """File to file: load_case -> solve -> save_solution on a large radial case."""

    name = "radial_pipeline"

    def __init__(self, seed: int, workdir: Path, sizes=(PIPELINE_BUSES,)):
        self.workdir = workdir
        self.paths = {}
        for n in sizes:
            self.paths[n] = workdir / f"radial{n}.json"
            caseio.save_case(radial_variant(seed, n), self.paths[n])
        self.reference = None

    def run_pass(self, tracer, n_buses: int = PIPELINE_BUSES) -> PassResult:
        try:
            return self._file_to_file(tracer, n_buses)
        finally:
            # Each file-to-file pass stands for one CLI process: drop the compiled
            # model so that peak memory does not grow with the number of passes.
            _compile_cache.cache_clear()

    def _file_to_file(self, tracer, n_buses: int) -> PassResult:
        result = PassResult(attempted=1)
        src = self.paths[n_buses]
        out = self.workdir / f"radial{n_buses}.solution.json"
        tracer.op += 1
        tracer.count("caseio.bytes_in", src.stat().st_size)
        t0 = time.perf_counter()
        with tracer.span("caseio.load_case"):
            case = caseio.load_case(src)
        sol = _nr(case, tracer, result, NR_TOL)
        if sol is not None:
            with tracer.span("caseio.save_solution"):
                caseio.save_solution(sol, out, case)
        result.op_s.append(time.perf_counter() - t0)
        if sol is None:
            return result
        tracer.count("caseio.bytes_out", out.stat().st_size)

        with tracer.paused():
            _check_residual(sol, NR_TOL)
            reloaded = caseio.state_from_solution(caseio.load_solution(out), case)
        for part in ("e", "f", "e_dc"):
            if not np.array_equal(getattr(reloaded, part), getattr(sol.x_final, part)):
                raise WrongAnswer(f"{src.name}: saved solution reloads to another state ({part})")
        if n_buses == PIPELINE_BUSES:
            _same_as_first_pass(self, result, [sol.x_final.to_array()])
        return result


class Crosscheck:
    """NR at 1e-10, then the independent fixed-point route, on every case."""

    name = "crosscheck"

    def __init__(self, seed: int, workdir: Path):
        self.cases = paper_variants(seed, 1) + [
            radial_variant(seed, n) for n in CROSSCHECK_RADIAL
        ]
        self.reference = None

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        elapsed = 0.0
        states = []
        for case in self.cases:
            case = fresh(case)
            tracer.op += 1
            result.attempted += 1
            sol = _nr(case, tracer, result, CROSS_TOL)
            elapsed += result.solve_s[-1]
            states.append(None if sol is None else sol.x_final.to_array())
            if sol is None:
                continue
            with tracer.paused():
                _check_residual(sol, CROSS_TOL)
            t0 = time.perf_counter()
            try:
                with tracer.span("verify.fixed_point_solve"):
                    ref = verify.fixed_point_solve(
                        case, tol=CROSS_TOL, max_sweeps=FIXED_POINT_SWEEPS)
            except verify.FixedPointError:
                ref = None
            elapsed += time.perf_counter() - t0
            tracer.count("verify.routes")
            if ref is None:
                result.failures["fixed_point_not_converged"] += 1
                continue
            tracer.count("verify.converged")
            x = sol.x_final
            disc = max(np.max(np.abs(x.full_ac() - ref.full_ac()), initial=0.0),
                       np.max(np.abs(x.e_dc - ref.e_dc), initial=0.0))
            if disc <= MAX_DISCREPANCY:
                continue
            # Both routes met the tolerance, yet they disagree: each state solves
            # the power flow, so NR found another root.  That is a failed check,
            # not a wrong number; anything else is a wrong answer.
            with tracer.paused():
                ref_res = residuals.assemble_residuals(x.model, ref).max_abs()
            if ref_res <= CROSS_TOL:
                result.failures["routes_disagree"] += 1
            else:
                raise WrongAnswer(f"{case.name}: NR and fixed point differ by {disc:.3e} "
                                  f"and the fixed-point residual is {ref_res:.3e}")
        result.op_s.append(elapsed)
        _same_as_first_pass(self, result, states)
        return result


def _same_as_first_pass(workload, result: PassResult, states) -> None:
    """Identical inputs must give the same iteration count, the same failures
    and bit-identical states in every pass."""
    if workload.reference is None:
        workload.reference = (result.iterations, result.failures, states)
        return
    iterations, failures, first = workload.reference
    same = iterations == result.iterations and failures == result.failures and all(
        (a is None) == (b is None) and (a is None or np.array_equal(a, b))
        for a, b in zip(first, states)
    )
    if not same:
        raise WrongAnswer(f"{workload.name}: a repeated pass gave another result")


WORKLOADS = {w.name: w for w in (PaperSweep, RadialPipeline, Crosscheck)}
