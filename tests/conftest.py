import dataclasses
import os

import numpy as np
import pytest

from hybridpf.cases import BUNDLED, IGBT_LOSS
from hybridpf.residuals import compile_case

try:
    from hypothesis import Phase, settings
except ImportError:     # the property tests skip themselves
    pass
else:
    # HYPOTHESIS_PROFILE=ci runs the same examples but reports a failure as
    # found, without shrinking it: shrinking whole cases takes minutes
    settings.register_profile("ci", phases=[phase for phase in Phase if phase != Phase.shrink])
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def _with_igbt_loss(build):
    """``build`` with IGBT_LOSS on every converter: the bundled pac_qac
    converters are loss-free, so only these variants cover their loss gradients."""

    def lossy():
        case = build()
        convs = tuple(dataclasses.replace(c, loss=IGBT_LOSS) for c in case.converters)
        return dataclasses.replace(case, converters=convs)

    return lossy


LOSSY = {
    f"{name}_lossy": _with_igbt_loss(BUNDLED[name])
    for name in ("hybrid_negseq", "multi_ic_one", "microgrid26_unbalanced")
}


def case_columns(case) -> dict:
    """Every column of the case's tables, bit for bit, the converters' loss tables
    as their repr (so a signed zero counts); the name, the description, and the
    base as its repr."""
    cols = {"case": (case.name, case.description, repr(case.base))}
    for key in ("ac_buses", "dc_buses", "ac_branches", "dc_branches", "converters"):
        table = getattr(case, key)
        for name in table.layout:
            col = getattr(table, name)
            if name == "loss":
                col = tuple(map(repr, col))
            cols[key, name] = col if isinstance(col, tuple) else (col.dtype, col.shape,
                                                                   col.tobytes())
    return cols


@pytest.fixture(autouse=True)
def cold_compile_cache():
    """Empty compile_case's caches after each test: they are process state, and
    a later test (perfbench's among them) may count the compiles it causes."""
    yield
    compile_case.cache_clear()


@pytest.fixture(scope="session")
def microgrid():
    return BUNDLED["microgrid26_balanced"]()


@pytest.fixture(scope="session")
def microgrid_unbalanced():
    return BUNDLED["microgrid26_unbalanced"]()


@pytest.fixture(scope="session")
def hybrid4():
    return BUNDLED["hybrid4"]()


@pytest.fixture(scope="session")
def small_cases():
    """All bundled small/medium cases by name."""
    return {name: build() for name, build in BUNDLED.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
