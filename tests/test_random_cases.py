"""Property tests of both solution routes on small random hybrid cases.

A drawn case has an AC slack and one to six PQ or PV buses on a random tree,
two to five DC P buses on a random tree, each grid with at most one meshing
branch, and one to three converters, each on its own converter AC and DC bus
branched to a random bus of each grid.  Converter 0 holds the DC voltage
(edc_qac); the others are edc_qac, pac_qac (some tracking negative-sequence
references of 1e-4) or pac_vac.  Loads are unbalanced, and each converter has
either no losses or IGBT-like ones.

Both routes must return a state that meets their tolerance or raise a
HybridPfError; no other exception may escape either of them.
"""

import numpy as np
import pytest

from hybridpf import HybridPfError, InfeasibleError, SolverOptions, assemble_residuals, solve
from hybridpf.cases import IGBT_LOSS
from hybridpf.losses import LossParams
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
    SequencePolicy,
)
from hybridpf.verify import fixed_point_solve

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXED_POINT_TOL = 1e-10


def _uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def _triple(lo, hi):
    return st.tuples(*[_uniform(lo, hi)] * 3)


def _tree(draw, n) -> list:
    """The (from, to) index pairs of a random tree over ``n`` nodes, plus at most
    one meshing branch."""
    ends = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    if n > 2 and draw(st.booleans()):
        ends.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True))))
    return ends


def _z(draw) -> complex:
    return complex(draw(_uniform(0.005, 0.05)), draw(_uniform(0.01, 0.1)))


def _converter(draw, k, ac_bus, dc_bus) -> Converter:
    mode = (ConverterMode.EDC_QAC if k == 0
            else draw(st.sampled_from([ConverterMode.EDC_QAC, ConverterMode.PAC_QAC,
                                       ConverterMode.PAC_VAC])))
    setpoints = {}
    if mode == ConverterMode.EDC_QAC:
        setpoints.update(e_dc_set=draw(_uniform(0.95, 1.05)), q_pos_set=draw(_uniform(-0.1, 0.1)))
    elif mode == ConverterMode.PAC_QAC:
        setpoints.update(p_pos_set=draw(_uniform(-0.2, 0.2)), q_pos_set=draw(_uniform(-0.1, 0.1)))
        if draw(st.booleans()):
            setpoints.update(sequence_policy=SequencePolicy.WITH_NEGATIVE,
                             p_neg_set=1e-4, q_neg_set=1e-4)
    else:
        setpoints.update(p_pos_set=draw(_uniform(-0.2, 0.2)), v_mag_set=draw(_uniform(0.5, 1.5)))
    lossy = draw(st.booleans())
    return Converter(f"VSC{k}", ac_bus, dc_bus, mode,
                     loss=IGBT_LOSS if lossy else LossParams.zero(),
                     filter_z=0.002 + 0.012j if lossy else 0j, **setpoints)


@st.composite
def hybrid_cases(draw) -> NetworkCase:
    ac = [AcBus("S", AcBusKind.SLACK, v_mag=draw(_uniform(0.95, 1.6)),
                v_angle=draw(_uniform(-0.2, 0.2)))]
    for i in range(1, draw(st.integers(1, 6)) + 1):
        if draw(st.booleans()):
            ac.append(AcBus(f"B{i}", AcBusKind.PQ, p_set=draw(_triple(-0.3, 0.1)),
                            q_set=draw(_triple(-0.1, 0.1))))
        else:
            ac.append(AcBus(f"B{i}", AcBusKind.PV, p_set=draw(_triple(0.0, 0.2)),
                            v_set=(draw(_uniform(0.95, 1.05)),) * 3))
    dc = [DcBus(f"D{j}", DcBusKind.P, p_set=draw(_uniform(-0.2, 0.2)))
          for j in range(draw(st.integers(2, 5)))]
    ac_branches = [AcBranch(ac[i].id, ac[j].id, z_series=_z(draw))
                   for i, j in _tree(draw, len(ac))]
    dc_branches = [DcBranch(dc[i].id, dc[j].id, r=draw(_uniform(0.01, 0.1)))
                   for i, j in _tree(draw, len(dc))]
    converters = []
    for k in range(draw(st.integers(1, 3))):
        ac_bus, dc_bus = f"C{k}", f"K{k}"
        ac_branches.append(AcBranch(ac_bus, draw(st.sampled_from(ac)).id, z_series=_z(draw)))
        dc_branches.append(DcBranch(dc_bus, draw(st.sampled_from(dc)).id,
                                    r=draw(_uniform(0.01, 0.1))))
        converters.append(_converter(draw, k, ac_bus, dc_bus))
    ac += [AcBus(c.ac_bus, AcBusKind.CONVERTER) for c in converters]
    dc += [DcBus(c.dc_bus, DcBusKind.CONVERTER) for c in converters]
    return NetworkCase(name="drawn", ac_buses=tuple(ac), dc_buses=tuple(dc),
                       ac_branches=tuple(ac_branches), dc_branches=tuple(dc_branches),
                       converters=tuple(converters))


@hypothesis.settings(max_examples=100, deadline=None, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(case=hybrid_cases())
def test_both_routes_meet_their_tolerance_or_raise_a_typed_error(case):
    edc = {c.id for c in case.converters if c.mode == ConverterMode.EDC_QAC}
    options = SolverOptions()
    with np.errstate(all="ignore"):     # a diverging route may overflow on its way
        try:
            sol = solve(case, options)
        except InfeasibleError as exc:
            assert str(exc).split(":")[0] in {f"converter {cid}" for cid in edc}
        except HybridPfError:
            pass
        else:
            if sol.converged:
                assert assemble_residuals(case, sol.x_final).max_abs() < options.tolerance
        try:
            x = fixed_point_solve(case, tol=FIXED_POINT_TOL, max_sweeps=2000)
        except HybridPfError:
            pass
        else:
            assert assemble_residuals(case, x).max_abs() <= FIXED_POINT_TOL
