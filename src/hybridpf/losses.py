"""Physics-based VSC loss model: conduction, switching and RL-filter losses.

Conduction losses are represented by a series voltage drop proportional to the
terminal current, E_c = R_eq(|I|) * I, where R_eq is the equivalent IGBT
resistance (a piecewise-linear function of the current magnitude).  Switching
losses are represented by a DC-side current source

    I_sw = 2 * (T_on + T_off + T_rec) / T_s * (1/N) * cot(pi/N) * |I|

with N the switching-to-line frequency ratio.  The total converter loss is

    S_loss = E_c * conj(I) + I_sw * E_dc

and the active filter loss is Re{Z_filter} * |I|^2.  All quantities are in
per-unit on the system power base; commutation times are in seconds.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import dataclass

from .errors import ParameterError, finite_number


@dataclass(frozen=True)
class LossParams:
    """Datasheet-style parameters of one converter.

    ``r_eq_table`` is a tuple of (current magnitude, resistance) points in
    ascending current order; a single point means a constant resistance and
    the table is extrapolated flat on both sides.  Times are seconds.
    """

    r_eq_table: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    t_on: float = 0.0
    t_off: float = 0.0
    t_rec: float = 0.0
    t_s: float = 1.0
    n_ratio: float = 2.0

    def __post_init__(self):
        if not isinstance(self.r_eq_table, (tuple, list)) or not self.r_eq_table:
            raise ParameterError(f"r_eq_table must be a non-empty tuple or list of [current, "
                                 f"resistance] pairs, not {self.r_eq_table!r}")
        for name in ("t_on", "t_off", "t_rec", "t_s", "n_ratio"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name, ParameterError))
        for point in self.r_eq_table:
            if isinstance(point, str) or not isinstance(point, Sized) or len(point) != 2:
                raise ParameterError(f"r_eq_table points must be [current, resistance] pairs, "
                                     f"not {point!r}")
        object.__setattr__(self, "r_eq_table", tuple(
            tuple(finite_number(x, "r_eq_table entry", ParameterError) for x in point)
            for point in self.r_eq_table))
        xs = [p[0] for p in self.r_eq_table]
        if xs[0] < 0 or any(b <= a for a, b in zip(xs, xs[1:])):
            raise ParameterError("r_eq_table currents must be >= 0 and strictly increasing")
        if any(p[1] < 0 for p in self.r_eq_table):
            raise ParameterError("r_eq_table resistances must be >= 0")
        for name in ("t_on", "t_off", "t_rec"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.t_s <= 0:
            raise ParameterError("t_s must be > 0")
        if self.n_ratio <= 1:
            raise ParameterError("n_ratio must be > 1")

    @classmethod
    def zero(cls) -> "LossParams":
        """Loss-free parameter set (exact zeros everywhere)."""
        return cls()

    @classmethod
    def constant(cls, r_eq: float, **kwargs) -> "LossParams":
        return cls(r_eq_table=((0.0, r_eq),), **kwargs)

    @property
    def switching_factor(self) -> float:
        """The current-to-I_sw proportionality 2*(T_on+T_off+T_rec)/T_s * cot(pi/N)/N."""
        t_sum = self.t_on + self.t_off + self.t_rec
        if t_sum == 0.0:
            return 0.0
        angle = math.pi / self.n_ratio
        return 2.0 * (t_sum / self.t_s) * (1.0 / self.n_ratio) / math.tan(angle)

    def r_eq(self, i_mag: float) -> float:
        """Equivalent resistance at current magnitude ``i_mag`` (flat extrapolation)."""
        pts = self.r_eq_table
        if i_mag <= pts[0][0]:
            return pts[0][1]
        if i_mag >= pts[-1][0]:
            return pts[-1][1]
        for (x0, r0), (x1, r1) in zip(pts, pts[1:]):
            if x0 <= i_mag <= x1:
                return r0 + (r1 - r0) * (i_mag - x0) / (x1 - x0)
        return pts[-1][1]  # unreachable

    def r_eq_slope(self, i_mag: float) -> float:
        """d R_eq / d|I| of the active table segment (0 outside the table)."""
        pts = self.r_eq_table
        if i_mag < pts[0][0] or i_mag >= pts[-1][0]:
            return 0.0
        for (x0, r0), (x1, r1) in zip(pts, pts[1:]):
            if x0 <= i_mag < x1:
                return (r1 - r0) / (x1 - x0)
        return 0.0


@dataclass(frozen=True)
class LossBreakdown:
    """Loss quantities of one converter at one operating point (per-unit)."""

    s_loss: complex = 0j
    p_filter: float = 0.0
    e_c: complex = 0j
    i_sw: float = 0.0


def conduction_voltage(i_ac: complex, params: LossParams) -> complex:
    """Series voltage drop R_eq(|I|) * I modelling conduction losses."""
    return params.r_eq(abs(i_ac)) * i_ac


def switching_current(i_mag: float, params: LossParams) -> float:
    """DC current source modelling switching losses; linear in the current magnitude."""
    if i_mag < 0:
        raise ParameterError("current magnitude must be >= 0")
    return params.switching_factor * i_mag


def converter_losses(i_ac: complex, e_dc: float, params: LossParams) -> LossBreakdown:
    """Total conversion losses S_loss = E_c * conj(I) + I_sw * E_dc.

    The conduction part is purely real for a real R_eq table (R_eq |I|^2); the
    switching part is the DC source discharged at the DC-side voltage.
    """
    e_c = conduction_voltage(i_ac, params)
    i_sw = switching_current(abs(i_ac), params)
    s_loss = e_c * i_ac.conjugate() + i_sw * e_dc
    return LossBreakdown(s_loss=s_loss, e_c=e_c, i_sw=i_sw)


def filter_losses(i_ac: complex, z_filter: complex) -> float:
    """Active power dissipated in the RL filter, Re{Z_filter} * |I|^2."""
    return z_filter.real * (i_ac.real**2 + i_ac.imag**2)
