"""Tests of the benchmark itself: seeded inputs, repeatable counts, span arithmetic."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hybridpf  # noqa: E402
from hybridpf import caseio  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def test_same_seed_gives_byte_identical_case_json():
    a = caseio.dumps_case(wl.radial_variant(7, 300))
    assert a == caseio.dumps_case(wl.radial_variant(7, 300))
    assert a != caseio.dumps_case(wl.radial_variant(8, 300))
    first = [caseio.dumps_case(c) for c in wl.paper_variants(7, 2)]
    assert first == [caseio.dumps_case(c) for c in wl.paper_variants(7, 2)]


def test_perturbation_scales_only_loads_within_ten_percent():
    base = hybridpf.cases.microgrid26(unbalanced=True)
    case = wl.perturb(base, wl.rng_for(3, 0))
    for old, new in zip(base.ac_buses, case.ac_buses):
        if old.kind != hybridpf.AcBusKind.PQ:
            assert new is old
            continue
        for p0, p1, q0, q1 in zip(old.p_set, new.p_set, old.q_set, new.q_set):
            if p0:
                assert 0.9 <= p1 / p0 <= 1.1
                if q0:
                    assert q1 / q0 == pytest.approx(p1 / p0)
    for old, new in zip(base.dc_buses, case.dc_buses):
        if old.kind == hybridpf.DcBusKind.P and old.p_set:
            assert 0.9 <= new.p_set / old.p_set <= 1.1
    assert case.converters == base.converters


def _small_sweep(seed, tmp_path):
    sweep = wl.PaperSweep(seed, tmp_path)
    sweep.pool = sweep.pool[:: wl.PAPER_VARIANTS]   # one variant of each paper case
    return sweep


def test_nr_iterations_repeat_exactly(tmp_path):
    a = _small_sweep(5, tmp_path)
    first = a.run_pass(spans.NullTracer())
    again = a.run_pass(spans.NullTracer())      # raises if a state differs
    other = _small_sweep(5, tmp_path).run_pass(spans.NullTracer())
    tracer = spans.Tracer()
    with spans.installed(tracer, hybridpf):
        traced = a.run_pass(tracer)
    assert first.failed == 0
    assert first.iterations == again.iterations == other.iterations == traced.iterations


def test_wrappers_see_the_program_calls_and_are_removed(tmp_path):
    pipeline = wl.RadialPipeline(2, tmp_path, sizes=(300,))
    saved = hybridpf.solver.assemble_jacobian
    tracer = spans.Tracer()
    with spans.installed(tracer, hybridpf):
        result = pipeline.run_pass(tracer, n_buses=300)
    assert hybridpf.solver.assemble_jacobian is saved
    m = run.layer_metrics(tracer, result)
    assert m["network.validate_topology_calls"] == 2       # loads_case + compile_case
    assert m["residuals.feasible_dc_root_calls"] == 3      # one per edc_qac converter
    assert m["residuals.assemble_residuals_calls"] == result.iterations + 1
    assert m["caseio.bytes_in"] > 0 and m["caseio.bytes_out"] > 0
    assert 0 < m["solver.jacobian_zero_frac"] < 1
    assert m["solver.lu_fill_ratio"] > 0
    assert all(s[2] is not None for s in tracer.spans)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]; d holds a probe.
    tree = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["d", 5.0, 9.0, 0, 1],
        [spans.PROBE, 8.0, 8.5, 3, 1],
        ["c", 9.5, 9.75, 0, 2],
    ]
    assert spans.self_times(tree) == [2.75, 2.0, 1.0, 3.5, 0.5, 0.25]
    total, own, calls = spans.layer_totals(tree)
    assert total["c"] == 1.25 and own["c"] == 1.25 and calls["c"] == 2
    assert own["a"] + sum(own[n] for n in ("b", "c", "d", spans.PROBE)) == total["a"]


def test_growth_exponent():
    assert spans.growth(1.0, 100.0, 10.0) == pytest.approx(2.0)
    assert spans.growth(2.0, 2.0 * 10 / 3, 10 / 3) == pytest.approx(1.0)


def test_benchmark_json_lists_the_metrics_the_runner_prints(tmp_path):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    pipeline = wl.RadialPipeline(2, tmp_path, sizes=(300,))
    tracer = spans.Tracer()
    with spans.installed(tracer, hybridpf):
        result = pipeline.run_pass(tracer, n_buses=300)
    traced = set(run.layer_metrics(tracer, result))
    traced |= {f"{g}.growth" for g in run.GROWTH_LAYERS}
    traced |= {"trace.overhead_frac", "trace.untraced_pass_s"}
    assert {m["name"] for m in doc["per_layer"]} == traced
    untraced = run.end_to_end([result], 0.1, [0.1])
    assert {m["name"] for m in doc["end_to_end"]} == set(untraced)
    assert set(run.metric_units()) == traced | set(untraced)
