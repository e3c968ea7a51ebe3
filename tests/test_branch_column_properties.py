"""Property tests of the branch matrix columns of a table built from AcBranch
records: a scalar z becomes np.eye(3) * z, a matrix is kept as given, bit for
bit, in an all-scalar, an all-matrix and a mixed column; a bad value in a mixed
column is named at its position.

The parts of a drawn complex are signed zeros, negative numbers, subnormals and
numbers near 1e300, among any other finite floats.
"""

import numpy as np
import pytest

from hybridpf import DataError
from hybridpf.network import AcBranch, AcBranchTable

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _signed(magnitudes):
    return st.builds(lambda x, sign: x * sign, magnitudes, st.sampled_from([1.0, -1.0]))


def _scalars(re, im):
    """A complex, a numpy complex or a float, of parts drawn from ``re`` and ``im``."""
    return st.one_of(st.builds(complex, re, im), st.builds(np.complex128, re, im), re)


_NEAR_1E300 = st.floats(min_value=1e299, max_value=1e301)
ANY = _signed(st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),   # subnormals
    _NEAR_1E300,
    st.sampled_from([0.0, 1.0]),
))
LARGE = _signed(st.one_of(st.floats(min_value=1e-4, allow_infinity=False), _NEAR_1E300))
SCALARS = _scalars(ANY, ANY)
# |det(np.eye(3) * z)| = |z|**3 clears the table's singular rule where |z| >= 1e-4
REGULAR = st.one_of(_scalars(LARGE, ANY), st.builds(complex, ANY, LARGE))


def _matrix(data, entry):
    """A symmetric 3x3 matrix of ``entry`` draws, as nested lists or an array."""
    m = [[None] * 3 for _ in range(3)]
    for p in range(3):
        for q in range(p, 3):
            m[p][q] = m[q][p] = data.draw(entry)
    return np.array(m, complex) if data.draw(st.booleans()) else m


def _value(data, kind, entry):
    if kind == "mixed":
        kind = data.draw(st.sampled_from(["scalar", "matrix"]))
    if kind == "scalar":
        return data.draw(entry)
    # a diagonal z_series stays regular; a shunt takes any symmetric matrix
    if entry is REGULAR:
        return np.diag([complex(data.draw(entry)) for _ in range(3)])
    return _matrix(data, entry)


def _expected(value) -> np.ndarray:
    if np.ndim(value) == 0:
        with np.errstate(over="ignore"):    # exact, but numpy may flag parts near 1e308
            return np.eye(3, dtype=complex) * complex(value)
    return np.array(value, complex)


def _branches(data, kind, n):
    return [AcBranch(f"B{k}", f"B{k + 1}", _value(data, kind, REGULAR), _value(data, kind, SCALARS))
            for k in range(n)]


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(data=st.data(), kind=st.sampled_from(["scalar", "matrix", "mixed"]),
                  n=st.integers(1, 6))
def test_a_branch_column_holds_each_value_as_its_3x3_bit_for_bit(data, kind, n):
    branches = _branches(data, kind, n)
    table = AcBranchTable(elements=tuple(branches))
    for name in ("z_series", "y_shunt"):
        expected = np.stack([_expected(getattr(br, name)) for br in branches])
        assert getattr(table, name).tobytes() == expected.tobytes()


BAD = {True: "must be a number, not True", None: "must be a number, not None",
       "list": "must be a 3x3 matrix, not [0.1]", "dict": "must be a number, not {}"}


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(data=st.data(), bad=st.sampled_from(sorted(BAD, key=str)),
                  name=st.sampled_from(["z_series", "y_shunt"]), n=st.integers(2, 6))
def test_a_bad_value_in_a_mixed_column_is_named_at_its_position(data, bad, name, n):
    branches = _branches(data, "mixed", n)
    k = data.draw(st.integers(0, n - 1))
    value = {"list": [0.1], "dict": {}}.get(bad, bad)
    fields = {"z_series": branches[k].z_series, "y_shunt": branches[k].y_shunt, name: value}
    branches[k] = AcBranch(f"B{k}", f"B{k + 1}", **fields)
    with pytest.raises(DataError) as err:
        AcBranchTable(elements=tuple(branches))
    assert str(err.value) == f"ac_branches[{k}] (B{k}-B{k + 1}): {name} {BAD[bad]}"
