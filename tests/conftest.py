import dataclasses
import os

import numpy as np
import pytest

from hybridpf.cases import BUNDLED, IGBT_LOSS
from hybridpf.network import (
    AcBranch,
    AcBus,
    AcBusKind,
    Converter,
    ConverterMode,
    DcBranch,
    DcBus,
    DcBusKind,
    NetworkCase,
)
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


def infeasible_start_case() -> NetworkCase:
    """An edc_qac converter whose quadratic DC balance has no real root at the
    flat start: the 1.5 p.u. slack drives 15 p.u. through the 0.1 p.u. branch
    into the converter, more than the 1 p.u. DC branch can take (discriminant
    1 - 4 * 15 = -59)."""
    return NetworkCase(
        name="infeasible_start",
        ac_buses=(AcBus("S", AcBusKind.SLACK, v_mag=1.5), AcBus("C", AcBusKind.CONVERTER)),
        dc_buses=(DcBus("D1", DcBusKind.CONVERTER), DcBus("D2", DcBusKind.P, p_set=-0.1)),
        ac_branches=(AcBranch("S", "C", z_series=0.1),),
        dc_branches=(DcBranch("D1", "D2", r=1.0),),
        converters=(Converter("VSC1", "C", "D1", ConverterMode.EDC_QAC, e_dc_set=1.0,
                              q_pos_set=0.0),),
    )


def low_v_mag_pacvac() -> NetworkCase:
    """hybrid_pacvac with VSC1 holding 0.5 p.u. instead of 1.005: NR converges,
    and the fixed point's converter current grows until its square overflows."""
    case = BUNDLED["hybrid_pacvac"]()
    (conv,) = case.converters
    return dataclasses.replace(case, converters=(dataclasses.replace(conv, v_mag_set=0.5),))


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


def with_z_series(doc) -> dict:
    """``doc``, a case document, with each AC branch's z_self and z_mutual turned
    back into the full z_series they stand for (a list of its own per entry)."""
    for branch in doc.get("ac_branches", []):
        if "z_self" in branch:
            z, m = branch.pop("z_self"), branch.pop("z_mutual", [0.0, 0.0])
            branch["z_series"] = [[list(z if p == q else m) for q in range(3)] for p in range(3)]
    return doc


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
