import dataclasses
import functools
import gc
import json
import math
import re
from pathlib import Path

import numpy as np
import orjson
import pytest

from hybridpf import (CaseFormatError, DataError, SolverOptions, TopologyError, caseio, cases,
                      solve, solver)
from hybridpf.caseio import (
    dumps_case,
    export_voltages_csv,
    load_case,
    load_solution,
    loads_case,
    save_case,
    save_solution,
    solution_to_dict,
    state_from_solution,
)
from hybridpf.cases import BUNDLED, bundled_case_path, synthetic_radial
from hybridpf.network import AcBusKind, NetworkCase
from hybridpf.residuals import _structure_key

from conftest import LOSSY, case_columns, with_z_series


def test_load_bundled_microgrid_counts():
    case = load_case(bundled_case_path("microgrid26_balanced"))
    assert len(case.ac_buses) == 18
    assert len(case.dc_buses) == 8
    assert len(case.converters) == 4
    modes = sorted(c.mode.value for c in case.converters)
    assert modes == ["edc_qac", "edc_qac", "pac_qac", "pac_qac"]
    slack = [b for b in case.ac_buses if b.kind == AcBusKind.SLACK]
    assert len(slack) == 1 and slack[0].id == "B01"


def test_round_trip_is_idempotent(tmp_path):
    case = BUNDLED["ac2"]()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_case(case, p1)
    loaded = load_case(p1)
    save_case(loaded, p2)
    assert p1.read_text() == p2.read_text()


def test_minimal_case_round_trip(tmp_path):
    path = tmp_path / "mini.json"
    save_case(BUNDLED["ac2"](), path)
    case = load_case(path)
    assert [b.id for b in case.ac_buses] == ["B1", "B2"]
    assert case.ac_buses[1].p_set == (-0.1, -0.1, -0.1)


def _si_pu_twin_docs():
    # 100 kVA, 400 V line-to-line (230.94 V phase-ground), 800 V DC
    s_base = 100e3
    v_pg = 400.0 / math.sqrt(3.0)
    z_ac = v_pg**2 / s_base
    z_dc = 800.0**2 / s_base
    base = {"s_base_va": s_base, "v_base_ac_v": 400.0,
            "v_base_dc_v": 800.0, "f_line_hz": 50.0}
    pu = {
        "schema_version": 1, "name": "twin", "units": "pu", "base": base,
        "ac_buses": [
            {"id": "B1", "kind": "slack", "v_mag": 1.0},
            {"id": "B2", "kind": "pq", "p": [-0.1, -0.08, -0.12], "q": [-0.02, -0.01, -0.03]},
        ],
        "dc_buses": [
            {"id": "D1", "kind": "v", "e": 1.0},
            {"id": "D2", "kind": "p", "p": -0.05},
        ],
        "ac_branches": [{"from": "B1", "to": "B2", "z_self": [0.01, 0.02]}],
        "dc_branches": [{"from": "D1", "to": "D2", "r": 0.05}],
        "converters": [],
    }
    si = json.loads(json.dumps(pu))
    si["units"] = "si"
    si["ac_buses"][0]["v_mag"] = v_pg
    si["ac_buses"][1]["p"] = [v * s_base for v in pu["ac_buses"][1]["p"]]
    si["ac_buses"][1]["q"] = [v * s_base for v in pu["ac_buses"][1]["q"]]
    si["dc_buses"][0]["e"] = 800.0
    si["dc_buses"][1]["p"] = -0.05 * s_base
    si["ac_branches"][0]["z_self"] = [0.01 * z_ac, 0.02 * z_ac]
    si["dc_branches"][0]["r"] = 0.05 * z_dc
    return pu, si


def test_si_file_matches_pu_twin():
    pu_doc, si_doc = _si_pu_twin_docs()
    case_pu = loads_case(json.dumps(pu_doc))
    case_si = loads_case(json.dumps(si_doc))
    assert case_pu.ac_buses[0].v_mag == pytest.approx(case_si.ac_buses[0].v_mag, abs=1e-12)
    for a, b in zip(case_pu.ac_buses[1].p_set, case_si.ac_buses[1].p_set):
        assert a == pytest.approx(b, abs=1e-12)
    assert np.max(np.abs(case_pu.ac_branches[0].z_series
                         - case_si.ac_branches[0].z_series)) <= 1e-12
    assert case_pu.dc_branches[0].r == pytest.approx(case_si.dc_branches[0].r, abs=1e-12)
    assert case_pu.dc_buses[0].e_set == pytest.approx(case_si.dc_buses[0].e_set, abs=1e-12)


@pytest.mark.parametrize("units", ["pu", "si"])
def test_z_self_z_mutual_and_y_shunt_self_fill_the_3x3_matrices(units):
    doc = _si_pu_twin_docs()[units == "si"]
    doc["ac_branches"] = [{"from": "B1", "to": "B2", "z_self": [0.5, 1.0],
                           "z_mutual": [0.125, 0.25], "y_shunt_self": [0.0, 0.75]}]
    case = loads_case(json.dumps(doc))
    z_base = case.base.z_base_ac if units == "si" else 1.0
    z, m = (0.5 + 1.0j) * (1.0 / z_base), (0.125 + 0.25j) * (1.0 / z_base)
    assert np.array_equal(case.ac_branches.z_series[0], [[z, m, m], [m, z, m], [m, m, z]])
    assert np.array_equal(case.ac_branches.y_shunt[0], np.eye(3) * 0.75j * z_base)


@pytest.mark.parametrize("name, key, field", [
    ("hybrid_pacvac", "q_pos", "pac_vac converter must not carry q_pos_set"),
    ("hybrid_pacvac", "e_dc", "pac_vac converter must not carry e_dc_set"),
    ("hybrid_pacvac", "p_neg", "positive_only converter must not carry p_neg_set"),
    ("hybrid_pacvac", "q_neg", "positive_only converter must not carry q_neg_set"),
    ("hybrid4", "p_pos", "edc_qac converter must not carry p_pos_set"),
    ("hybrid4", "v_mag", "edc_qac converter must not carry v_mag_set"),
])
def test_a_converter_setpoint_that_its_mode_never_reads_is_refused(name, key, field):
    # such a setpoint once loaded, solved to the same state and was written back
    doc = caseio.case_to_dict(BUNDLED[name]())
    doc["converters"][0][key] = 0.5
    with pytest.raises(CaseFormatError, match=f"^converter VSC1: {field}$"):
        loads_case(orjson.dumps(doc))


def _set(key, k, field, value):
    def edit(doc):
        doc[key][k][field] = value
    return edit


def _drop(key, k, field):
    def edit(doc):
        del doc[key][k][field]
    return edit


_Z = [0.01, 0.02]
_M = [[_Z] * 3] * 3


def _branch(**fields):
    def edit(doc):
        doc["ac_branches"][0] = {"from": "B1", "to": "B2", **fields}
    return edit


LOADER_FAULTS = {   # id -> (an edit of hybrid4's document, the exact message)
    "element-not-object": (lambda doc: doc["dc_buses"].__setitem__(1, ["D2"]),
                           "at dc_buses[1]: expected an object"),
    "unhashable-kind": (_set("ac_buses", 1, "kind", ["converter"]),
                        "at ac_buses[1].kind: unknown AC bus kind ['converter']"),
    "unhashable-mode": (_set("converters", 0, "mode", ["edc_qac"]),
                        "at converters[0].mode: unknown converter mode ['edc_qac']"),
    "unhashable-policy": (_set("converters", 0, "sequence_policy", {"p": 1}),
                          "at converters[0].sequence_policy: unknown sequence_policy {'p': 1}"),
    "unknown-ac-kind": (_set("ac_buses", 1, "kind", "load"),
                        "at ac_buses[1].kind: unknown AC bus kind 'load'"),
    "unknown-dc-kind": (_set("dc_buses", 1, "kind", "pq"),
                        "at dc_buses[1].kind: unknown DC bus kind 'pq'"),
    "unknown-mode": (_set("converters", 0, "mode", "edc_vac"),
                     "at converters[0].mode: unknown converter mode 'edc_vac'"),
    "unknown-policy": (_set("converters", 0, "sequence_policy", "negative_only"),
                       "at converters[0].sequence_policy: unknown sequence_policy "
                       "'negative_only'"),
    "missing-field": (_drop("dc_branches", 0, "r"), "at dc_branches[0]: missing field 'r'"),
    "missing-field-for-kind": (_drop("ac_buses", 0, "v_mag"),
                               "at ac_buses[0]: missing field 'v_mag' for kind 'slack'"),
    "no-series-impedance": (_branch(), "at ac_branches[0]: exactly one of z_series or z_self "
                                       "is required"),
    "two-series-impedances": (_branch(z_self=_Z, z_series=_M),
                              "at ac_branches[0]: exactly one of z_series or z_self is required"),
    "mutual-with-z-series": (_branch(z_series=_M, z_mutual=_Z),
                             "at ac_branches[0]: z_mutual is only valid together with z_self"),
    "two-shunts": (_branch(z_self=_Z, y_shunt=_M, y_shunt_self=_Z),
                   "at ac_branches[0]: give either y_shunt or y_shunt_self, not both"),
    "empty-r-eq-table": (lambda doc: doc["converters"][0]["loss"].update(r_eq_table=[]),
                         "at converters[0].loss: r_eq_table must be a non-empty list of "
                         "[current, ohm_pu] pairs"),
    "units": (lambda doc: doc.update(units="kw"), "at units: units must be 'pu' or 'si', got 'kw'"),
    "list-field-not-list": (lambda doc: doc.update(dc_branches={"from": "D1"}),
                            "at dc_branches: expected a list"),
}


@pytest.mark.parametrize("fault", LOADER_FAULTS)
def test_each_loader_rule_names_its_location(fault):
    edit, message = LOADER_FAULTS[fault]
    doc = caseio.case_to_dict(BUNDLED["hybrid4"]())
    edit(doc)
    with pytest.raises(CaseFormatError) as err:
        loads_case(orjson.dumps(doc))
    assert str(err.value) == message


def test_an_unreadable_solution_file_is_a_format_error_naming_it(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(CaseFormatError) as err:
        load_solution(path)
    assert str(err.value) == f"{path}: cannot read file: [Errno 2] No such file or directory: " \
        f"{str(path)!r}"


def test_a_converter_given_plain_strings_round_trips():
    case = BUNDLED["hybrid_negseq"]()
    conv = case.converters[0]
    plain = dataclasses.replace(conv, mode=conv.mode.value,
                                sequence_policy=conv.sequence_policy.value)
    text = dumps_case(dataclasses.replace(case, converters=(plain,) + case.converters[1:]))
    assert text == dumps_case(case)
    assert loads_case(text).converters[0].mode is conv.mode


def test_a_base_beyond_the_float_range_is_located():
    pu, _ = _si_pu_twin_docs()
    text = json.dumps(pu).replace('"s_base_va": 100000.0', '"s_base_va": 1' + "0" * 400)
    with pytest.raises(CaseFormatError, match=r"^at base\.s_base_va: expected a finite number$"):
        loads_case(text)


def test_unknown_field_rejected_with_location():
    doc = {
        "schema_version": 1, "name": "x", "units": "pu",
        "ac_buses": [{"id": "B1", "kind": "slack", "v_mag": 1.0, "frobnicate": 1}],
    }
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert "frobnicate" in str(err.value)
    assert "ac_buses[0]" in str(err.value)


@pytest.mark.parametrize("grid, bus_id, field, value, kind", [
    ("ac_buses", "B1", "p", [9, 9, 9], "slack"),
    ("dc_buses", "D2", "e", 1.2, "p"),
], ids=["ac", "dc"])
def test_a_field_of_another_kind_is_rejected(grid, bus_id, field, value, kind):
    doc = json.loads(dumps_case(BUNDLED["hybrid4"]()))
    k = [bus["id"] for bus in doc[grid]].index(bus_id)
    doc[grid][k][field] = value
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at {grid}[{k}]: field {field!r} is not valid for kind {kind!r}"


@pytest.mark.parametrize("key, k, field", [
    ("ac_buses", 1, "id"), ("dc_buses", 1, "id"),
    ("ac_branches", 0, "from"), ("ac_branches", 0, "to"),
    ("dc_branches", 0, "from"), ("dc_branches", 0, "to"),
    ("converters", 0, "id"), ("converters", 0, "ac_bus"), ("converters", 0, "dc_bus"),
])
@pytest.mark.parametrize("value", [["X"], 7], ids=["list", "number"])
def test_an_id_that_is_not_a_string_is_rejected_at_its_path(key, k, field, value):
    doc = json.loads(dumps_case(BUNDLED["hybrid4"]()))
    doc[key][k][field] = value
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at {key}[{k}].{field}: expected a string"


@pytest.mark.parametrize("field, value, message", [
    ("name", [1], "expected a string"),
    ("description", 7, "expected a string"),
    ("schema_version", True, "unsupported schema_version True"),
    ("schema_version", 1.0, "unsupported schema_version 1.0"),
], ids=["name", "description", "schema_version-bool", "schema_version-float"])
def test_a_top_level_scalar_of_another_type_is_rejected_at_its_field(field, value, message):
    doc = json.loads(dumps_case(BUNDLED["hybrid4"]()))
    doc[field] = value
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at {field}: {message}"


def test_bus_id_shared_by_ac_and_dc_grids_is_format_error():
    doc = {
        "schema_version": 1, "name": "x", "units": "pu",
        "ac_buses": [{"id": "N1", "kind": "slack", "v_mag": 1.0}],
        "dc_buses": [{"id": "N1", "kind": "v", "e": 1.0}],
    }
    with pytest.raises(CaseFormatError, match="unique"):
        loads_case(json.dumps(doc))


def test_converter_with_missing_dc_bus_names_the_id():
    doc = {
        "schema_version": 1, "name": "x", "units": "pu",
        "ac_buses": [
            {"id": "B1", "kind": "slack", "v_mag": 1.0},
            {"id": "B2", "kind": "converter"},
        ],
        "ac_branches": [{"from": "B1", "to": "B2", "z_self": [0.01, 0.02]}],
        "dc_buses": [{"id": "D1", "kind": "converter"}],
        "converters": [{"id": "VSC1", "ac_bus": "B2", "dc_bus": "D9",
                        "mode": "edc_qac", "e_dc": 1.0, "q_pos": 0.0}],
    }
    with pytest.raises(TopologyError) as err:
        loads_case(json.dumps(doc))
    assert "D9" in str(err.value)


def test_parse_error_reports_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(CaseFormatError) as err:
        load_case(path)
    assert "broken.json" in str(err.value)


def test_missing_file_is_format_error(tmp_path):
    with pytest.raises(CaseFormatError):
        load_case(tmp_path / "absent.json")


def test_solution_round_trip_bit_exact(tmp_path, hybrid4):
    sol = solve(hybrid4, SolverOptions(tolerance=1e-10))
    path = tmp_path / "sol.json"
    save_solution(sol, path)
    doc = load_solution(path)
    assert doc["converged"] is True and doc["schema_version"] == 3
    assert "state" not in doc
    assert doc["dc_voltages"] == {b: float(v) for b, v in sol.dc_voltages.items()}
    v_b2 = doc["ac_voltages"]["B2"]
    assert v_b2[0][0] == sol.ac_voltages["B2"][0].real  # repr round-trip is exact
    x = state_from_solution(doc, hybrid4)
    assert np.array_equal(x.to_array(), sol.x_final.to_array())


def test_version_1_solution_restarts_to_the_same_state(tmp_path, hybrid4):
    """Version 1 files also held a "state" block that repeated the voltage dicts."""
    sol = solve(hybrid4, SolverOptions(tolerance=1e-10))
    x = sol.x_final
    doc = {**solution_to_dict(sol), "schema_version": 1, "state": {
        "ac_bus_ids": list(x.model.ac_bus_ids), "dc_bus_ids": list(x.model.dc_bus_ids),
        "e": x.e.tolist(), "f": x.f.tolist(), "e_dc": x.e_dc.tolist()}}
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc))
    restart = state_from_solution(load_solution(path), hybrid4)
    assert np.array_equal(restart.to_array(), x.to_array())
    assert solve(hybrid4, SolverOptions(init=restart)).iterations == 1


def test_version_2_solution_restarts_to_the_same_state(tmp_path, hybrid4):
    """Version 2 files always held the derived blocks; given the case, nothing is added."""
    sol = solve(hybrid4, SolverOptions(tolerance=1e-10))
    doc = {**solution_to_dict(sol, derived=True), "schema_version": 2}
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc))
    assert load_solution(path) == load_solution(path, hybrid4) == doc
    restart = state_from_solution(load_solution(path), hybrid4)
    assert np.array_equal(restart.to_array(), sol.x_final.to_array())
    assert solve(hybrid4, SolverOptions(init=restart)).iterations == 1


def test_a_file_with_every_derived_block_computes_none_of_them(tmp_path, hybrid4, monkeypatch):
    sol = solve(hybrid4, SolverOptions(tolerance=1e-10))
    doc = {**solution_to_dict(sol, derived=True), "schema_version": 2}
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc))

    def computed(*args):
        raise AssertionError("a derived block was computed")

    for module in (caseio, solver):
        for name in ("ac_flows", "dc_flows", "sequence_sets"):
            monkeypatch.setattr(module, name, computed)
    assert load_solution(path, hybrid4) == doc


def test_file_to_file_makes_no_element_object(tmp_path):
    path, out = tmp_path / "radial1000.json", tmp_path / "sol.json"
    save_case(synthetic_radial(1000), path)
    case = load_case(path)
    save_solution(solve(case), out)
    assert load_solution(out)["converged"]
    for name in ("ac_buses", "dc_buses", "ac_branches", "dc_branches"):
        assert set(getattr(case, name)._views) == {None}, name


def test_solution_of_another_case_is_rejected(tmp_path, hybrid4):
    path = tmp_path / "sol.json"
    save_solution(solve(BUNDLED["ac2"]()), path)
    with pytest.raises(CaseFormatError, match="does not match the case bus lists"):
        state_from_solution(load_solution(path), hybrid4)


@pytest.mark.parametrize("where", ["ac", "dc"])
def test_malformed_solution_voltages_are_a_format_error(where, hybrid4):
    doc = solution_to_dict(solve(hybrid4))
    if where == "ac":
        doc["ac_voltages"]["B2"] = doc["ac_voltages"]["B2"][:2]     # two phases
    else:
        doc["dc_voltages"]["D1"] = [1.0, 0.0]
    with pytest.raises(CaseFormatError, match="^solution voltages are malformed: "):
        state_from_solution(doc, hybrid4)


@pytest.mark.parametrize("doc, where", [
    ([1], "at $: expected an object"),
    ("text", "at $: expected an object"),
    ({"schema_version": 3}, "at $: missing field 'ac_voltages'"),
    ({"schema_version": 3, "ac_voltages": {}}, "at $: missing field 'dc_voltages'"),
    ({"schema_version": 3, "ac_voltages": [], "dc_voltages": {}},
     "at ac_voltages: expected an object"),
    ({"schema_version": 2, "ac_voltages": {}, "dc_voltages": None},
     "at dc_voltages: expected an object"),
])
def test_a_solution_file_of_the_wrong_shape_is_a_format_error(tmp_path, doc, where):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseFormatError, match=rf"^{re.escape(f'{path}: {where}')}$"):
        load_solution(path)


@pytest.mark.parametrize("doc", [[1], {"schema_version": 3},
                                 {"ac_voltages": {}, "dc_voltages": 1.0}])
def test_a_solution_document_of_the_wrong_shape_is_a_format_error(doc, hybrid4):
    with pytest.raises(CaseFormatError, match=r"^at (\$|dc_voltages): "):
        state_from_solution(doc, hybrid4)


def test_unknown_solution_schema_version_is_rejected(tmp_path, hybrid4):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({**solution_to_dict(solve(hybrid4)), "schema_version": 4}))
    with pytest.raises(CaseFormatError, match="unsupported solution schema_version"):
        load_solution(path)


@pytest.mark.parametrize("version", [True, 1.0, "2"])
def test_a_solution_schema_version_that_is_not_an_integer_is_rejected(tmp_path, hybrid4,
                                                                      version):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({**solution_to_dict(solve(hybrid4)), "schema_version": version}))
    with pytest.raises(CaseFormatError) as err:
        load_solution(path)
    assert str(err.value) == (f"{path}: at schema_version: "
                              f"unsupported solution schema_version {version!r}")


def test_unconverged_solution_serializes(tmp_path):
    from hybridpf import AcBranch, AcBus, NetworkCase

    case = NetworkCase(
        name="hard",
        ac_buses=(
            AcBus("B1", AcBusKind.SLACK, v_mag=1.0),
            AcBus("B2", AcBusKind.PQ, p_set=(-30.0,) * 3, q_set=(0.0,) * 3),
        ),
        ac_branches=(AcBranch("B1", "B2", z_series=0.1j),),
    )
    sol = solve(case, SolverOptions(max_iterations=8))
    assert not sol.converged
    path = tmp_path / "sol.json"
    save_solution(sol, path)
    doc = load_solution(path)
    assert doc["converged"] is False
    assert doc["diagnostics"] == sol.diagnostics == (
        "did not converge within 8 iterations; final max mismatch 9.614e+01 at Q:B2:c")
    assert len(doc["residual_history"]) == 8


def test_solved_microgrid_solution_has_dc_setpoints(tmp_path, microgrid):
    tol = 1e-6
    sol = solve(microgrid, SolverOptions(tolerance=tol))
    path = tmp_path / "mg.json"
    save_solution(sol, path)
    doc = load_solution(path)
    assert abs(doc["dc_voltages"]["D19"] - 1.000) <= tol
    assert abs(doc["dc_voltages"]["D20"] - 0.998) <= tol


def test_csv_exports(tmp_path, hybrid4):
    sol = solve(hybrid4, SolverOptions(tolerance=1e-10))
    vpath = tmp_path / "v.csv"
    export_voltages_csv(sol, vpath)
    vlines = vpath.read_text().strip().splitlines()
    assert vlines[0] == "bus,phase,re,im,mag,angle_deg"
    assert len(vlines) == 1 + 2 * 3 + 2  # two AC buses x three phases + two DC buses
    first = vlines[1].split(",")
    assert float(first[2]) == 1.0  # plain parseable numbers, no repr wrappers


def test_dumps_case_numbers_round_trip():
    case = BUNDLED["ac2"]()
    doc = with_z_series(json.loads(dumps_case(case)))
    assert doc["ac_branches"][0]["z_series"][0][0] == [0.0, 0.1]


@pytest.mark.parametrize("path", sorted(Path(cases.__file__).parent.glob("data/*.json")),
                         ids=lambda path: path.stem)
def test_bundled_file_round_trips(path):
    """Each bundled file is in the canonical form dumps_case writes."""
    assert dumps_case(load_case(path)) == path.read_text()


_WRITTEN = {**BUNDLED, **LOSSY,
            **{f"radial{n}": functools.partial(synthetic_radial, n) for n in (300, 1000, 10000)}}


@pytest.mark.parametrize("name", sorted(_WRITTEN))
def test_save_case_writes_the_text_of_dumps_case(name, tmp_path):
    case, path = _WRITTEN[name](), tmp_path / "case.json"
    save_case(case, path)
    assert path.read_bytes() == dumps_case(case).encode()


def test_a_shunt_of_signed_zeros_is_written():
    case = BUNDLED["ac2"]()
    y = np.zeros((3, 3), dtype=complex)
    y.real[0, 0] = -0.0
    branch = dataclasses.replace(case.ac_branches[0], y_shunt=y)
    case = dataclasses.replace(case, ac_branches=(branch,))
    again = loads_case(dumps_case(case))
    assert again.ac_branches.y_shunt.tobytes() == case.ac_branches.y_shunt.tobytes()


@pytest.mark.parametrize("name", ["ac2", "microgrid26_unbalanced"])
def test_a_case_file_is_its_document_indented_by_two_spaces(name):
    case = BUNDLED[name]()
    assert dumps_case(case).encode() == \
        orjson.dumps(caseio.case_to_dict(case), option=orjson.OPT_INDENT_2) + b"\n"


@pytest.mark.parametrize("where, value", [
    ("name", "a\ud800b"), ("ac_buses", np.int64(7)),
], ids=["lone-surrogate", "numpy-id"])
def test_a_value_json_cannot_hold_is_a_data_error_naming_its_field(where, value):
    case = BUNDLED["ac2"]()
    if where == "name":
        case = dataclasses.replace(case, name=value)
    else:
        buses = (dataclasses.replace(case.ac_buses[0], id=value),) + tuple(case.ac_buses[1:])
        case = dataclasses.replace(case, ac_buses=buses, ac_branches=())
    with pytest.raises(DataError, match=f"^case field '{where}' cannot be written: "):
        dumps_case(case)


_NUMBERS = [   # (where, field, a Python value; the same given as a numpy scalar)
    *[("converter", name, 0.37) for name in
      ("e_dc_set", "q_pos_set", "p_pos_set", "q_neg_set", "p_neg_set", "v_mag_set")],
    ("converter", "filter_z", 0.003 + 0.021j),
    *[("loss", name, 3.7e-6) for name in ("t_on", "t_off", "t_rec", "t_s")],
    ("loss", "n_ratio", 170.5),
    ("loss", "r_eq_table", ((0.0, 0.007), (4.5, 0.013))),
    *[("base", name, 230.5) for name in ("s_base_va", "v_base_ac_v", "v_base_dc_v", "f_line_hz")],
]


def _numpy(value):
    if isinstance(value, tuple):
        return tuple(map(_numpy, value))
    return np.complex128(value) if isinstance(value, complex) else np.float64(value)


# the bundled case whose first converter reads each setpoint that hybrid4's does not
_READER = {"p_pos_set": "hybrid_pacvac", "v_mag_set": "hybrid_pacvac",
           "p_neg_set": "hybrid_negseq", "q_neg_set": "hybrid_negseq"}


def _with_field(case, where, name, value):
    """``case`` with field ``name`` of its base, its first converter or that
    converter's loss set to ``value``."""
    if where == "base":
        return dataclasses.replace(case, base=dataclasses.replace(case.base, **{name: value}))
    conv = case.converters[0]
    if where == "loss":
        conv = dataclasses.replace(conv, loss=dataclasses.replace(conv.loss, **{name: value}))
    else:
        conv = dataclasses.replace(conv, **{name: value})
    return dataclasses.replace(case, converters=(conv,) + case.converters[1:])


@pytest.mark.parametrize("where, name, value", _NUMBERS, ids=[name for _, name, _ in _NUMBERS])
def test_a_number_given_as_a_numpy_scalar_is_written_as_the_python_number(where, name, value):
    case = BUNDLED[_READER.get(name, "hybrid4")]()
    text = dumps_case(_with_field(case, where, name, value))
    assert text != dumps_case(case)
    assert dumps_case(_with_field(case, where, name, _numpy(value))) == text


def test_an_integer_base_is_written_as_a_float():
    case = BUNDLED["hybrid4"]()
    given = dataclasses.replace(case, base=dataclasses.replace(case.base, s_base_va=100_000))
    assert dumps_case(given) == dumps_case(case)


@pytest.mark.parametrize("n", [30, 1000, 10000])
def test_synthetic_radial_is_built_with_the_collector_paused(n, monkeypatch):
    enabled = []

    def network_case(*args, **kwargs):
        enabled.append(gc.isenabled())
        return NetworkCase(*args, **kwargs)

    monkeypatch.setattr(cases, "NetworkCase", network_case)
    paused = synthetic_radial(n)
    assert enabled == [False] and gc.isenabled()
    running = synthetic_radial.__wrapped__(n)
    assert enabled == [False, True]
    assert case_columns(paused) == case_columns(running)
    assert _structure_key(paused) == _structure_key(running)


def test_bundled_lists_every_case_file():
    assert sorted(BUNDLED) == [
        "ac2", "ac4_pv", "dc4", "hybrid4", "hybrid_negseq", "hybrid_pacvac",
        "microgrid26_balanced", "microgrid26_unbalanced", "multi_ic_one", "multi_ic_two",
    ]


# --- batched load: every fault is still named by its element -------------------

_RADIAL300 = dumps_case(synthetic_radial(300))
_WHERE = ["first", "middle", "last"]


def _pick(positions, where):
    return positions[{"first": 0, "middle": len(positions) // 2, "last": -1}[where]]


def _corrupt_z(z, fault):
    """Corrupt one z_series in place; returns the location suffix and message."""
    if fault == "string":
        z[1][2][0] = "0.1"
        return ".z_series[1][2]", "expected a number"
    if fault == "true":
        z[0][0][1] = True
        return ".z_series[0][0]", "expected a number"
    if fault == "null":
        z[2][1] = None
        return ".z_series[2][1]", "expected a complex number as [re, im]"
    if fault == "nan":
        z[1][2][0] = float("nan")
        return ".z_series[1][2]", "expected a finite number"
    if fault == "infinity":
        z[0][0][1] = float("inf")
        return ".z_series[0][0]", "expected a finite number"
    if fault == "huge":
        z[2][0][0] = 10**400
        return ".z_series[2][0]", "expected a finite number"
    if fault == "short_row":
        z[1].pop()
        return ".z_series[1]", "expected a 3x3 matrix"
    z[2].append([0.0, 0.0])  # ragged: one row longer than the others
    return ".z_series[2]", "expected a 3x3 matrix"


def _corrupt_bus(bus, fault):
    """Corrupt one PQ bus in place; returns the location suffix and message."""
    if fault == "string":
        bus["p"][1] = "x"
        return ".p[1]", "expected a number"
    if fault == "true":
        bus["q"][2] = True
        return ".q[2]", "expected a number"
    if fault == "null":
        bus["p"] = None
        return ".p", "expected three per-phase values [a, b, c]"
    if fault == "nan":
        bus["p"][1] = float("nan")
        return ".p[1]", "expected a finite number"
    if fault == "infinity":
        bus["q"][2] = -float("inf")
        return ".q[2]", "expected a finite number"
    if fault == "huge":
        bus["p"][0] = -(10**400)
        return ".p[0]", "expected a finite number"
    if fault == "short_row":
        bus["q"].pop()
        return ".q", "expected three per-phase values [a, b, c]"
    bus["p"][0] = [bus["p"][0]]  # ragged: one entry nested deeper than the others
    return ".p[0]", "expected a number"


_FAULTS = ["string", "true", "nan", "infinity", "huge", "null", "short_row", "ragged_row"]


@pytest.mark.parametrize("where", _WHERE)
@pytest.mark.parametrize("fault", _FAULTS)
def test_branch_value_fault_is_located(fault, where):
    doc = with_z_series(json.loads(_RADIAL300))
    k = _pick(range(len(doc["ac_branches"])), where)
    field, msg = _corrupt_z(doc["ac_branches"][k]["z_series"], fault)
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at ac_branches[{k}]{field}: {msg}"


def _corrupt_pair(branch, fault):
    """Corrupt one branch's z_self pair in place; returns the location suffix and
    message.  The parts of a pair are not located by index."""
    z = branch["z_self"]
    if fault == "string":
        z[0] = "0.1"
        return ".z_self", "expected a number"
    if fault == "true":
        z[1] = True
        return ".z_self", "expected a number"
    if fault == "null":
        branch["z_self"] = None
        return ".z_self", "expected a complex number as [re, im]"
    if fault == "nan":
        z[0] = float("nan")
        return ".z_self", "expected a finite number"
    if fault == "infinity":
        z[1] = float("inf")
        return ".z_self", "expected a finite number"
    if fault == "huge":
        z[0] = 10**400
        return ".z_self", "expected a finite number"
    if fault == "short_row":
        z.pop()
        return ".z_self", "expected a complex number as [re, im]"
    z.append(0.0)  # ragged: one part more than a pair has
    return ".z_self", "expected a complex number as [re, im]"


@pytest.mark.parametrize("where", _WHERE)
@pytest.mark.parametrize("fault", _FAULTS)
def test_z_self_value_fault_is_located(fault, where):
    doc = json.loads(_RADIAL300)
    k = _pick(range(len(doc["ac_branches"])), where)
    field, msg = _corrupt_pair(doc["ac_branches"][k], fault)
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at ac_branches[{k}]{field}: {msg}"


@pytest.mark.parametrize("where", _WHERE)
@pytest.mark.parametrize("fault", _FAULTS)
def test_bus_value_fault_is_located(fault, where):
    doc = json.loads(_RADIAL300)
    k = _pick([k for k, b in enumerate(doc["ac_buses"]) if b["kind"] == "pq"], where)
    field, msg = _corrupt_bus(doc["ac_buses"][k], fault)
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at ac_buses[{k}]{field}: {msg}"


@pytest.mark.parametrize("where", _WHERE)
@pytest.mark.parametrize("fault", ["asymmetric", "singular"])
def test_branch_matrix_fault_names_the_branch(fault, where):
    doc = with_z_series(json.loads(_RADIAL300))
    k = _pick(range(len(doc["ac_branches"])), where)
    br = doc["ac_branches"][k]
    if fault == "asymmetric":
        br["z_series"][0][1] = [0.0, 0.5]
        what = "z_series must be symmetric"
    else:
        br["z_series"] = [[[0.01, 0.02]] * 3] * 3
        what = "z_series is singular"
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"ac_branches[{k}] ({br['from']}-{br['to']}): {what}"


# --- batched writer: the same document as the per-element one -------------------

DERIVED = ("sequence_voltages", "ac_branch_flows", "dc_branch_flows")


def _reference_solution_doc(solution):
    """The per-element solution_to_dict that the batched writer replaced, with every
    block schema 2 wrote; schema 3 writes the derived ones (DERIVED) on request."""

    def cx(z):
        z = complex(z)
        return [z.real, z.imag]

    case = solution.x_final.model.case
    return {
        "schema_version": 3,
        "case_name": case.name,
        "converged": solution.converged,
        "iterations": solution.iterations,
        "final_mismatch": solution.final_mismatch,
        "n_states": solution.n_states,
        "residual_history": list(solution.residual_history),
        "diagnostics": solution.diagnostics,
        "ac_voltages": {bus: [cx(v) for v in vs] for bus, vs in solution.ac_voltages.items()},
        "sequence_voltages": {
            bus: [cx(v) for v in seq] for bus, seq in solution.sequence_voltages.items()
        },
        "dc_voltages": dict(solution.dc_voltages),
        "slack_injections": {bus: [cx(v) for v in vs]
                             for bus, vs in solution.slack_injections.items()},
        "converter_losses": {
            cid: {"s_loss": cx(lb.s_loss), "p_filter": lb.p_filter,
                  "e_c": cx(lb.e_c), "i_sw": lb.i_sw}
            for cid, lb in solution.losses.items()
        },
        "converter_power": {cid: dict(p) for cid, p in solution.converter_power.items()},
        "ac_branch_flows": [
            {"from": br.from_bus, "to": br.to_bus,
             "s_from": [cx(v) for v in s_from], "s_to": [cx(v) for v in s_to]}
            for br, s_from, s_to in zip(case.ac_branches, *solution.ac_branch_flows)
        ],
        "dc_branch_flows": [
            {"from": br.from_bus, "to": br.to_bus, "p_from": float(p_from), "p_to": float(p_to)}
            for br, p_from, p_to in zip(case.dc_branches, *solution.dc_branch_flows)
        ],
        "trace": list(solution.trace),
        "timings_s": {
            "residual": solution.timings.residual_s,
            "jacobian": solution.timings.jacobian_s,
            "linear_solve": solution.timings.linear_s,
            "total": solution.timings.total_s,
        },
    }


_WRITER_CASES = {
    **BUNDLED,
    **LOSSY,
    "radial300": lambda: synthetic_radial(300),
}


@pytest.mark.parametrize("name", sorted(_WRITER_CASES))
def test_solution_document_equals_the_per_element_writer(name, tmp_path):
    sol = solve(_WRITER_CASES[name]())
    full = _reference_solution_doc(sol)
    facts = {key: block for key, block in full.items() if key not in DERIVED}
    assert solution_to_dict(sol) == facts
    assert solution_to_dict(sol, derived=True) == full
    path, full_path = tmp_path / "sol.json", tmp_path / "full.json"
    save_solution(sol, path)
    save_solution(sol, full_path, derived=True)
    assert load_solution(path) == facts
    assert load_solution(full_path) == full
    # the file and its case give the --full document, key order included
    model = sol.x_final.model
    assert list(load_solution(path, model).items()) == list(load_solution(full_path).items())
    assert load_solution(full_path, model) == full
    assert "\n" not in path.read_text().rstrip("\n")   # compact: one line
    restart = state_from_solution(load_solution(path), model)
    assert np.array_equal(restart.to_array(), sol.x_final.to_array())


def test_derived_blocks_are_most_of_a_full_file(tmp_path):
    sol = solve(synthetic_radial(1000))
    path, full_path = tmp_path / "sol.json", tmp_path / "full.json"
    save_solution(sol, path)
    save_solution(sol, full_path, derived=True)
    assert path.stat().st_size < 0.3 * full_path.stat().st_size


def test_loading_with_another_case_is_rejected(tmp_path, hybrid4):
    path = tmp_path / "sol.json"
    save_solution(solve(BUNDLED["ac2"]()), path)
    with pytest.raises(CaseFormatError, match="does not match the case bus lists"):
        load_solution(path, hybrid4)


# --- the codec: orjson reads every file and writes solutions; json what it refuses ---

@pytest.mark.parametrize("name", ["microgrid26_unbalanced", "hybrid_negseq"])
def test_a_solution_file_written_by_json_loads_as_one_written_now(name, tmp_path):
    case = BUNDLED[name]()
    sol = solve(case)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(solution_to_dict(sol)) + "\n")    # as every earlier file
    save_solution(sol, new)
    assert old.read_bytes() != new.read_bytes()
    old_doc, new_doc = load_solution(old), load_solution(new)
    assert repr(old_doc) == repr(new_doc)
    old_x, new_x = (state_from_solution(doc, case).to_array() for doc in (old_doc, new_doc))
    assert old_x.tobytes() == new_x.tobytes() == sol.x_final.to_array().tobytes()


def test_floats_parse_to_their_bits_whichever_codec_wrote_them():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64, endpoint=False)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e-7, 5e24]
    values = np.concatenate([bits.view(float), specials, rng.standard_normal(20_000),
                             rng.uniform(0, 1e-300, 20_000)])
    values = values[np.isfinite(values)]
    assert values.size > 100_000 and (np.abs(values) < 2.2250738585072014e-308).sum() > 50
    numbers = values.tolist()
    for text in (json.dumps(numbers), orjson.dumps(numbers)):
        parsed = np.array(caseio._parse(text, None))
        assert parsed.dtype == float and parsed.tobytes() == values.tobytes()
    # and a reader of earlier versions parses what is written now to the same bits
    assert np.array(json.loads(orjson.dumps(numbers))).tobytes() == values.tobytes()


@pytest.mark.parametrize("name", ["hybrid_negseq", "microgrid26_unbalanced", "radial300"])
def test_a_case_read_from_str_or_bytes_has_the_same_columns(name):
    text = _RADIAL300 if name == "radial300" else bundled_case_path(name).read_text()
    assert case_columns(loads_case(text)) == case_columns(loads_case(text.encode()))


@pytest.mark.parametrize("text", ["{ not json", '{"a": 1,}', "", '{"a": [1, 2}'],
                         ids=["bare-word", "trailing-comma", "empty", "unclosed"])
def test_invalid_json_is_named_by_the_standard_library_message(text, tmp_path):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"invalid JSON: {exc}"
    path = tmp_path / "broken.json"
    path.write_text(text)
    for load in (loads_case, lambda t: loads_case(t.encode())):
        with pytest.raises(CaseFormatError) as err:
            load(text)
        assert str(err.value) == message
    for load in (load_case, load_solution):
        with pytest.raises(CaseFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("keys, where", [
    (("converters", 0, "loss", "t_on_s"), "converters[0].loss.t_on_s"),
    (("converters", 0, "loss", "r_eq_table", 0, 1), "converters[0].loss.r_eq_table[0]"),
    (("converters", 0, "filter_z", 0), "converters[0].filter_z"),
    (("ac_branches", 0, "y_shunt", 0, 0, 1), "ac_branches[0].y_shunt[0][0]"),
], ids=["t_on", "r_eq", "filter_z", "y_shunt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -(10**400)],
                         ids=["nan", "inf", "huge"])
def test_a_non_finite_element_number_in_a_file_is_located(keys, where, value):
    # the elements refuse these too, but the loader names the place in the file first
    doc = json.loads(dumps_case(BUNDLED["hybrid4"]()))
    doc["ac_branches"][0]["y_shunt"] = [[[0.0, 0.0] for _ in range(3)] for _ in range(3)]
    *parents, last = keys
    obj = doc
    for key in parents:
        obj = obj[key]
    obj[last] = value
    with pytest.raises(CaseFormatError) as err:
        loads_case(json.dumps(doc))
    assert str(err.value) == f"at {where}: expected a finite number"


def test_a_file_that_is_not_utf8_is_invalid_json(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "Gärten"}'.encode("latin-1"))
    for load in (load_case, load_solution):
        with pytest.raises(CaseFormatError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: invalid JSON: 'utf-8' codec can't decode")
