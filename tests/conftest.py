import numpy as np
import pytest

from hybridpf import cases
from hybridpf.residuals import compile_case


@pytest.fixture(autouse=True)
def cold_compile_cache():
    """Empty compile_case's caches after each test: they are process state, and
    a later test (perfbench's among them) may count the compiles it causes."""
    yield
    compile_case.cache_clear()


@pytest.fixture(scope="session")
def microgrid():
    return cases.microgrid26(unbalanced=False)


@pytest.fixture(scope="session")
def microgrid_unbalanced():
    return cases.microgrid26(unbalanced=True)


@pytest.fixture(scope="session")
def hybrid4():
    return cases.hybrid_edc()


@pytest.fixture(scope="session")
def small_cases():
    """All bundled small/medium cases by name."""
    return {name: build() for name, build in cases.BUNDLED.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
