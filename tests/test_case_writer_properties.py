"""Property tests of the case writer: a bundled case with drawn numbers and
names is written, read back and written again.

The numbers are finite floats weighted toward where orjson's digits differ from
``repr``'s (subnormals, -0.0, [1e-5, 1e-4), 1e16 and up); the names are drawn
text, non-ASCII among it, which orjson writes as UTF-8.  A branch's matrices
are often drawn in or near the compact forms the writer picks: equal diagonal
or off-diagonal entries, or entries that differ only in the sign of a zero.
"""

import math

import orjson
import pytest

from hybridpf import CaseFormatError, TopologyError
from hybridpf.caseio import case_to_dict, dumps_case, loads_case, save_case
from hybridpf.cases import BUNDLED

from conftest import case_columns, with_z_series

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_MAGNITUDES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),   # subnormals
    st.floats(min_value=1e-5, max_value=1e-4, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
)
ANY = st.builds(math.copysign, _MAGNITUDES, st.sampled_from([1.0, -1.0]))
NONNEG = _MAGNITUDES
POSITIVE = _MAGNITUDES.map(lambda x: x or 1.0)
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
ABOVE_ONE = _MAGNITUDES.map(lambda x: x if x > 1.0 else 2.0 + x)


def _pair(re=ANY, im=ANY):
    return st.tuples(re, im).map(list)


def _entries(data, entry):
    """Three entries drawn from ``entry``: each its own, or one drawn three times."""
    if data.draw(st.booleans()):
        return [data.draw(entry) for _ in range(3)]
    return [data.draw(entry)] * 3


def _symmetric(data, diag, off):
    """A symmetric 3x3 matrix of [re, im] pairs, with its diagonal and its
    off-diagonal entries each drawn by _entries."""
    m = [[None] * 3 for _ in range(3)]
    for p, value in enumerate(_entries(data, diag)):
        m[p][p] = list(value)
    for (p, q), value in zip(((0, 1), (0, 2), (1, 2)), _entries(data, off)):
        m[p][q], m[q][p] = list(value), list(value)
    return m


def _bus(data, bus):
    fields = {"pq": {"p": ANY, "q": ANY}, "pv": {"p": ANY, "v": ANY},
              "slack": {"v_mag": POSITIVE, "v_angle_rad": ANY},
              "p": {"p": ANY}, "v": {"e": POSITIVE}}.get(bus["kind"], {})
    for name, strategy in fields.items():
        triple = isinstance(bus[name], list)
        bus[name] = data.draw(st.lists(strategy, min_size=3, max_size=3) if triple else strategy)


def _ac_branch(data, branch):
    # a drawn resistance on the diagonal keeps the (bundled, equal) reactance that
    # makes z_series regular
    with_z_series({"ac_branches": [branch]})    # the branch's z_self as its z_series
    reactance = branch["z_series"][0][0][1]
    entry = st.one_of(_pair(), _pair(SIGNED_ZERO, SIGNED_ZERO))
    branch["z_series"] = _symmetric(data, _pair(st.one_of(ANY, SIGNED_ZERO), st.just(reactance)),
                                    entry)
    branch["y_shunt"] = _symmetric(data, entry, entry)
    branch.pop("y_shunt_self", None)


# (mode, sequence_policy) -> the setpoints a converter of that layout reads and carries
_READS = {("edc_qac", "positive_only"): {"e_dc": POSITIVE, "q_pos": ANY},
          ("pac_qac", "positive_only"): {"p_pos": ANY, "q_pos": ANY},
          ("pac_qac", "with_negative"): {"p_pos": ANY, "q_pos": ANY, "p_neg": ANY, "q_neg": ANY},
          ("pac_vac", "positive_only"): {"p_pos": ANY, "v_mag": POSITIVE}}


def _converter(data, conv):
    layout = data.draw(st.sampled_from(sorted(_READS)))
    for key in ("e_dc", "q_pos", "p_pos", "p_neg", "q_neg", "v_mag"):
        conv.pop(key, None)
    conv["mode"], conv["sequence_policy"] = layout
    conv.update({name: data.draw(strategy) for name, strategy in _READS[layout].items()})
    conv["filter_z"] = data.draw(_pair(NONNEG, ANY))
    currents = sorted(set(data.draw(st.lists(NONNEG, min_size=1, max_size=4))))
    conv["loss"] = {"r_eq_table": [[i, data.draw(NONNEG)] for i in currents],
                    "t_on_s": data.draw(NONNEG), "t_off_s": data.draw(NONNEG),
                    "t_rec_s": data.draw(NONNEG), "t_s_s": data.draw(POSITIVE),
                    "n_ratio": data.draw(ABOVE_ONE)}


def _renamed(doc, suffix):
    """``doc`` with ``suffix`` on every id and every reference to one."""
    for key in ("ac_buses", "dc_buses"):
        for bus in doc.get(key, []):
            bus["id"] += suffix
    for key, refs in (("ac_branches", ("from", "to")), ("dc_branches", ("from", "to")),
                      ("converters", ("id", "ac_bus", "dc_bus"))):
        for obj in doc.get(key, []):
            for ref in refs:
                obj[ref] += suffix


def _drawn_case(data):
    """A bundled case with one drawn element of each list, a drawn base and drawn
    names; a draw that breaks an element rule, or leaves a DC island without a
    voltage source, is rejected."""
    doc = case_to_dict(BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))]())
    for key, fill in (("ac_buses", _bus), ("dc_buses", _bus), ("ac_branches", _ac_branch),
                      ("dc_branches", lambda data, br: br.update(r=data.draw(POSITIVE))),
                      ("converters", _converter)):
        if doc.get(key):
            fill(data, doc[key][data.draw(st.integers(0, len(doc[key]) - 1))])
    doc["base"] = {key: data.draw(ANY) for key in doc["base"]}
    doc["name"], doc["description"] = data.draw(st.text()), data.draw(st.text())
    _renamed(doc, data.draw(st.text()))
    try:
        return loads_case(orjson.dumps(doc))
    except (CaseFormatError, TopologyError):
        hypothesis.reject()


@hypothesis.settings(max_examples=100, deadline=1000, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(data=st.data())
def test_a_written_case_reads_back_bit_for_bit_and_writes_the_same_text(data, tmp_path_factory):
    case = _drawn_case(data)
    text = dumps_case(case)
    again = loads_case(text)
    assert case_columns(again) == case_columns(case)
    assert dumps_case(again) == text
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    save_case(case, path)
    assert path.read_bytes() == text.encode()
