"""Bundled study cases, whose only definition is the JSON files under ``data/``
(see docs/case_format.md), and the synthetic radial generator."""

from __future__ import annotations

from functools import partial
from importlib import resources

from .caseio import _gc_paused, load_case
from .losses import LossParams
from .network import (
    AcBranch,
    AcBus,
    AcBusKind,
    BaseQuantities,
    Converter,
    ConverterMode,
    DcBranch,
    DcBus,
    DcBusKind,
    NetworkCase,
)

# datasheet-style IGBT parameters: 10 kHz switching on a 50 Hz grid
IGBT_LOSS = LossParams(
    r_eq_table=((0.0, 0.008), (5.0, 0.012)),
    t_on=1.0e-6, t_off=1.4e-6, t_rec=0.6e-6, t_s=1.0e-4, n_ratio=200.0,
)

_BASE = BaseQuantities(s_base_va=100e3, v_base_ac_v=400.0, v_base_dc_v=800.0, f_line_hz=50.0)
_DATA = resources.files("hybridpf") / "data"


def _pq(bus_id, p, q):
    return AcBus(bus_id, AcBusKind.PQ, p_set=(p, p, p), q_set=(q, q, q))


def bundled_case_path(name: str):
    """Filesystem path of a bundled case file (for the CLI and tests)."""
    ref = _DATA / f"{name}.json"
    if not ref.is_file():
        raise KeyError(f"no bundled case named {name!r}")
    return ref


# one loader per file under data/, keyed by stem; each call returns a fresh case
BUNDLED = {
    ref.name.removesuffix(".json"): partial(load_case, ref)
    for ref in sorted(_DATA.iterdir(), key=lambda ref: ref.name) if ref.name.endswith(".json")
}


def microgrid26(unbalanced=False) -> NetworkCase:
    """The bundled 26-node hybrid microgrid analog, balanced or unbalanced."""
    return BUNDLED["microgrid26_unbalanced" if unbalanced else "microgrid26_balanced"]()


@_gc_paused
def synthetic_radial(n_buses: int) -> NetworkCase:
    """Radial hybrid grid with ``n_buses`` total buses for scaling studies.

    Lightly loaded parallel AC feeders plus DC islands of ten buses, each
    island held by one edc_qac converter and fed by one pac_qac converter.
    Deterministic layout; no randomness.
    """
    if n_buses < 30:
        raise ValueError("synthetic_radial needs at least 30 buses")
    n_islands = max(1, n_buses // 100)
    n_feeder = n_buses - 1 - 12 * n_islands  # slack + 10 DC + 2 converter AC per island
    n_feeders = max(2, n_feeder // 60)

    ac_buses = [AcBus("S", AcBusKind.SLACK, v_mag=1.0)]
    ac_branches = []
    feeder_tail = []
    counts = [n_feeder // n_feeders] * n_feeders
    for i in range(n_feeder % n_feeders):
        counts[i] += 1
    for f, count in enumerate(counts):
        prev = "S"
        for k in range(count):
            bus_id = f"A{f}_{k}"
            ac_buses.append(_pq(bus_id, -0.002, -0.0006))
            ac_branches.append(AcBranch(prev, bus_id, z_series=0.002 + 0.004j))
            prev = bus_id
        feeder_tail.append(prev)

    dc_buses, dc_branches, converters = [], [], []
    for isl in range(n_islands):
        kv = f"KV{isl}"   # edc_qac terminal
        kp = f"KP{isl}"   # pac_qac terminal
        av = f"AV{isl}"
        ap = f"AP{isl}"
        host_v = feeder_tail[isl % len(feeder_tail)]
        host_p = feeder_tail[(isl + 1) % len(feeder_tail)]
        ac_buses.append(AcBus(av, AcBusKind.CONVERTER))
        ac_buses.append(AcBus(ap, AcBusKind.CONVERTER))
        ac_branches.append(AcBranch(host_v, av, z_series=0.003 + 0.005j))
        ac_branches.append(AcBranch(host_p, ap, z_series=0.003 + 0.005j))
        chain = [kv] + [f"P{isl}_{m}" for m in range(8)] + [kp]
        dc_buses.append(DcBus(kv, DcBusKind.CONVERTER))
        for m in range(8):
            dc_buses.append(DcBus(f"P{isl}_{m}", DcBusKind.P, p_set=-0.004))
        dc_buses.append(DcBus(kp, DcBusKind.CONVERTER))
        for a, b in zip(chain, chain[1:]):
            dc_branches.append(DcBranch(a, b, r=0.02))
        converters.append(
            Converter(f"VE{isl}", av, kv, ConverterMode.EDC_QAC,
                      e_dc_set=1.0, q_pos_set=0.005,
                      loss=IGBT_LOSS, filter_z=0.002 + 0.012j)
        )
        converters.append(
            Converter(f"VP{isl}", ap, kp, ConverterMode.PAC_QAC,
                      p_pos_set=0.01, q_pos_set=0.0,
                      loss=LossParams.zero(), filter_z=0.001 + 0.008j)
        )

    return NetworkCase(
        name=f"radial{n_buses}",
        description=f"synthetic radial hybrid grid, {n_buses} buses, "
                    f"{n_feeders} AC feeders, {n_islands} DC islands",
        base=_BASE,
        ac_buses=tuple(ac_buses),
        dc_buses=tuple(dc_buses),
        ac_branches=tuple(ac_branches),
        dc_branches=tuple(dc_branches),
        converters=tuple(converters),
    )
