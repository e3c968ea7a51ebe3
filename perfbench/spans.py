"""Span recorder and the wrappers that trace hybridpf's layers from outside.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists: ``parent``
is the index of the enclosing span (-1 at the top) and ``op`` the id of the
benchmark operation (one solve, one file pass or one cross-checked case) that
caused it, so every span of one solve shares an id.  A layer's self time is its
duration minus the durations of its direct children; children never overlap
because the program is single-threaded.

The wrappers replace module attributes at the names the program looks its
callees up by and always call the original function.  Counts that need work of
their own (sparsity of Y and J, LU fill) are taken in ``trace.probe`` spans,
which are children of the caller's span, so that work is left out of every
layer's self time and shows only in the tracing overhead.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

PROBE = "trace.probe"


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._probed_ops: dict[str, int] = {}
        self._paused = False

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside, such as the benchmark's own checks, go unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def first_in_op(self, key: str) -> bool:
        """True once per operation for ``key``: limits costly probes to one call."""
        if self._probed_ops.get(key) == self.op:
            return False
        self._probed_ops[key] = self.op
        return True

    def wrap(self, name: str, fn, probe=None):
        """``fn`` recorded as span ``name``; ``probe(tracer, args, result)``
        returns a dict of counts stored with the span."""

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if probe is not None:
                p = self.begin(PROBE)
                try:
                    found = probe(self, args, out)
                finally:
                    self.end(p)
                if found:
                    self.attrs[idx] = found
            return out

        return traced

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }


class NullTracer:
    """Stand-in for untraced runs: records nothing and patches nothing."""

    op = 0

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()

    def count(self, key, value=1.0):
        pass


def self_times(spans) -> list[float]:
    """Duration minus the summed durations of direct children, per span."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: total seconds, total self seconds and call count."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t_self in zip(spans, self_times(spans)):
        total[s[0]] += s[2] - s[1]
        own[s[0]] += t_self
        calls[s[0]] += 1
    return total, own, calls


def growth(small: float, large: float, ratio: float) -> float:
    """Exponent k with large/small = ratio**k: 1 for linear, 2 for quadratic."""
    if small <= 0 or large <= 0:
        return 0.0
    return math.log(large / small) / math.log(ratio)


# --- probes: counts recorded at the layer boundaries --------------------------


def _sparsity(matrix) -> dict:
    return {"nnz": int(matrix.nnz), "zeros": int((matrix.data == 0).sum())}


def _probe_admittance(tracer, args, adm):
    return _sparsity(adm.y_ac)


def _probe_jacobian(tracer, args, jac):
    return _sparsity(jac)


def _probe_lu(tracer, args, dx):
    """Fill of one factorization per operation: LU is refactored here, with
    the solver's own settings, because nr_step does not return its factors."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as sla

    if not tracer.first_in_op("lu"):
        return None
    jac = sp.csc_matrix(args[0])
    lu = sla.splu(jac)
    return {"lu_nnz": int(lu.L.nnz + lu.U.nnz), "j_nnz": int(jac.nnz)}


def patch_targets(hp):
    """(module, attribute, span name, probe) for every traced program call.

    ``solver`` imports its callees into its own namespace, so they are wrapped
    there; ``residuals`` looks up compile_case, validate_topology,
    compound_admittance and operating_point in its own globals.
    """
    return [
        (hp.solver, "assemble_jacobian", "solver.assemble_jacobian", _probe_jacobian),
        (hp.solver, "nr_step", "solver.nr_step", _probe_lu),
        (hp.solver, "assemble_residuals", "residuals.assemble_residuals", None),
        (hp.solver, "feasible_dc_root", "residuals.feasible_dc_root", None),
        (hp.solver, "operating_point", "residuals.operating_point", None),
        (hp.residuals, "compile_case", "residuals.compile_case", None),
        (hp.residuals, "validate_topology", "network.validate_topology", None),
        (hp.residuals, "compound_admittance", "network.compound_admittance",
         _probe_admittance),
        (hp.residuals, "operating_point", "residuals.operating_point", None),
        (hp.caseio, "validate_topology", "network.validate_topology", None),
        (hp.verify, "assemble_residuals", "verify.residual_check", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, hp):
    """Patch the program's call sites with ``tracer`` wrappers; undo on exit."""
    saved = []
    try:
        for module, attr, name, probe in patch_targets(hp):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, probe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
