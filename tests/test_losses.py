"""Converter loss model checks, including the high-precision switching oracle.

The independent oracle evaluates cot(pi/N) through its Laurent series with
50-digit Decimal arithmetic, so the switching-current formula is verified
against something that shares no code (and no float rounding) with the
implementation.
"""

import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest

from hybridpf import (
    LossParams,
    ParameterError,
    conduction_voltage,
    converter_losses,
    filter_losses,
    solve,
    switching_current,
)
from hybridpf.cases import BUNDLED
from hybridpf.network import SequencePolicy
from hybridpf.sequence import W_NEG, W_POS

from conftest import LOSSY

getcontext().prec = 50
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")


def cot_series(x: Decimal) -> Decimal:
    # cot x = 1/x - x/3 - x^3/45 - 2 x^5/945 - x^7/4725 - 2 x^9/93555 - ...
    x2 = x * x
    return (
        1 / x - x / 3 - x * x2 / 45 - 2 * x * x2**2 / 945
        - x * x2**3 / 4725 - 2 * x * x2**4 / 93555
    )


def switching_factor_oracle(t_sum, t_s, n) -> Decimal:
    return 2 * (t_sum / t_s) / n * cot_series(_PI / n)


# frozen from the oracle above (and cross-checked against mpmath to 1e-27)
WORKED_SWITCHING_VALUE = 0.012731348232574316


def test_conduction_voltage_constant_table():
    params = LossParams.constant(0.01)
    assert conduction_voltage(1 + 0j, params) == 0.01 + 0j
    assert conduction_voltage(0j, params) == 0j


def test_conduction_voltage_is_collinear_with_current(rng):
    params = LossParams(r_eq_table=((0.0, 0.01), (2.0, 0.02)))
    for _ in range(20):
        i = complex(rng.normal(), rng.normal())
        e_c = conduction_voltage(i, params)
        # cross product of collinear phasors vanishes
        assert abs((e_c * i.conjugate()).imag) < 1e-15


def test_conduction_voltage_piecewise_interpolation():
    params = LossParams(r_eq_table=((0.0, 0.01), (2.0, 0.02)))
    i = 1 + 1j
    r_expected = 0.01 + 0.005 * math.sqrt(2.0)  # slope 0.005 per unit current
    e_c = conduction_voltage(i, params)
    assert abs(e_c - r_expected * i) < 1e-15
    # flat extrapolation on both sides
    assert params.r_eq(5.0) == 0.02
    assert params.r_eq(0.0) == 0.01


def test_switching_current_zero_times():
    params = LossParams(t_s=1e-4, n_ratio=200.0)
    assert switching_current(1.0, params) == 0.0
    assert switching_current(123.0, params) == 0.0


def test_switching_current_worked_value():
    params = LossParams(t_on=1e-6, t_off=0.7e-6, t_rec=0.3e-6, t_s=1e-4, n_ratio=200.0)
    got = switching_current(1.0, params)
    oracle = float(switching_factor_oracle(Decimal("2e-6"), Decimal("1e-4"), Decimal(200)))
    assert abs(got - oracle) < 1e-9
    assert abs(got - WORKED_SWITCHING_VALUE) < 1e-15
    mpmath = pytest.importorskip("mpmath")
    mp_val = 2 * mpmath.mpf("2e-6") / mpmath.mpf("1e-4") / 200 * mpmath.cot(mpmath.pi / 200)
    assert abs(got - float(mp_val)) < 1e-9


def test_switching_current_linear_in_magnitude():
    params = LossParams(t_on=1e-6, t_off=1e-6, t_rec=0.5e-6, t_s=5e-5, n_ratio=300.0)
    one = switching_current(1.0, params)
    for k in (0.0, 0.5, 2.0, 7.3):
        assert switching_current(k, params) == pytest.approx(k * one, abs=1e-16)


def test_switching_current_rejects_bad_ratio():
    with pytest.raises(ParameterError):
        LossParams(t_on=1e-6, t_s=1e-4, n_ratio=1.0)


def test_converter_losses_zero_params_exactly_zero():
    params = LossParams.zero()
    breakdown = converter_losses(0.3 - 0.2j, 1.05, params)
    assert breakdown.s_loss == 0j
    assert breakdown.e_c == 0j
    assert breakdown.i_sw == 0.0


def test_converter_losses_pure_conduction():
    params = LossParams.constant(0.01)
    breakdown = converter_losses(1 + 0j, 1.0, params)
    assert breakdown.s_loss == pytest.approx(0.01 + 0j, abs=1e-16)


def test_converter_losses_pure_switching():
    params = LossParams(t_on=1e-6, t_off=0.7e-6, t_rec=0.3e-6, t_s=1e-4, n_ratio=200.0)
    breakdown = converter_losses(1 + 0j, 1.0, params)
    assert abs(breakdown.s_loss.real - WORKED_SWITCHING_VALUE) < 1e-9
    assert breakdown.s_loss.imag == 0.0


def test_loss_monotone_in_current_magnitude():
    params = LossParams.constant(0.01)
    prev = -1.0
    for mag in np.linspace(0.0, 3.0, 13):
        p = converter_losses(mag * np.exp(0.4j), 1.0, params).s_loss.real
        assert p >= prev
        prev = p


def test_filter_losses_examples():
    assert filter_losses(1 + 0j, 0.01 + 0.1j) == pytest.approx(0.01)
    assert filter_losses(0j, 0.01 + 0.1j) == 0.0
    i = 0.5 * np.exp(1j * np.pi / 6)
    assert filter_losses(complex(i), 0.02 + 0.05j) == pytest.approx(0.005)


def test_filter_losses_rotation_invariant(rng):
    z = 0.013 + 0.07j
    for _ in range(20):
        mag = rng.uniform(0, 2)
        base = filter_losses(mag + 0j, z)
        rot = filter_losses(complex(mag * np.exp(1j * rng.uniform(0, 2 * np.pi))), z)
        assert rot == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_r_eq_table_validation():
    with pytest.raises(ParameterError):
        LossParams(r_eq_table=((0.0, 0.01), (0.0, 0.02)))
    with pytest.raises(ParameterError):
        LossParams(r_eq_table=((0.0, -0.01),))
    with pytest.raises(ParameterError):
        LossParams(t_s=0.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(t_on=float("nan")), "t_on must be a finite number"),
    (dict(t_off=float("inf")), "t_off must be a finite number"),
    (dict(t_rec=float("nan")), "t_rec must be a finite number"),
    (dict(t_s=float("inf")), "t_s must be a finite number"),
    (dict(n_ratio=float("nan")), "n_ratio must be a finite number"),
    (dict(r_eq_table=((0.0, 0.01), (float("nan"), 0.02))),
     "r_eq_table entry must be a finite number"),
    (dict(r_eq_table=((0.0, float("inf")),)), "r_eq_table entry must be a finite number"),
    (dict(t_s=10**400), "t_s must be a finite number"),
    (dict(r_eq_table=((0.0, 10**400),)), "r_eq_table entry must be a finite number"),
], ids=["t_on", "t_off", "t_rec", "t_s", "n_ratio", "r_eq-current", "r_eq-ohm", "t_s-huge-int",
        "r_eq-huge-int"])
def test_a_non_finite_loss_parameter_is_named(kwargs, message):
    # an int beyond the float range was a bare OverflowError
    with pytest.raises(ParameterError, match=f"^{message}$"):
        LossParams(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(t_on=1e-6j), r"t_on must be a number, not 1e-06j"),
    (dict(r_eq_table=((0.0, 0.01 + 0j),)), r"r_eq_table entry must be a number, not \(0\.01\+0j\)"),
    (dict(t_rec=None), r"t_rec must be a number, not None"),
], ids=["complex-time", "complex-entry", "none"])
def test_a_loss_parameter_that_is_not_a_real_number_is_named(kwargs, message):
    # a complex was a bare TypeError
    with pytest.raises(ParameterError, match=f"^{message}$"):
        LossParams(**kwargs)


@pytest.mark.parametrize("point", [[0.0], 5, [0.0, 0.1, 0.2], "ab"],
                         ids=["one-entry", "number", "three-entries", "str"])
def test_an_r_eq_point_that_is_not_a_pair_is_refused(point):
    # [0.0] was a bare IndexError, 5 a TypeError, and three entries were accepted
    with pytest.raises(ParameterError, match=r"^r_eq_table points must be \[current, resistance\] "
                                             rf"pairs, not {re.escape(repr(point))}$"):
        LossParams(r_eq_table=(point,))


@pytest.mark.parametrize("name", ["hybrid4", "hybrid_pacvac", "microgrid26_unbalanced",
                                  *sorted(LOSSY)])
def test_the_operating_point_losses_are_the_loss_model_at_the_solution(name):
    # the converter quantities the residual (and the fixed-point route) read,
    # against the loss functions at the terminal currents taken from Y E
    sol = solve({**BUNDLED, **LOSSY}[name]())
    x = sol.x_final
    model = x.model
    i_full = model.adm.y_ac @ x.full_ac()
    for conv, cop in zip(model.case.converters, sol.op.conv):
        ac_full = 3 * model.case.ac_pos[conv.ac_bus] + np.arange(3)
        i_pos = complex(W_POS @ i_full[ac_full])
        with_negative = conv.sequence_policy == SequencePolicy.WITH_NEGATIVE
        i_neg = complex(W_NEG @ i_full[ac_full]) if with_negative else 0j
        assert cop.i_pos == pytest.approx(i_pos, rel=1e-12, abs=1e-14)
        assert cop.i_neg == pytest.approx(i_neg, rel=1e-12, abs=1e-14)
        assert cop.e_k == x.e_dc[model.case.dc_pos[conv.dc_bus]]
        ref = converter_losses(cop.i_pos, cop.e_k, conv.loss)
        assert cop.s_loss_pos == pytest.approx(ref.s_loss, rel=1e-12, abs=1e-16)
        assert cop.e_c == pytest.approx(ref.e_c, rel=1e-12, abs=1e-16)
        assert cop.i_sw == pytest.approx(ref.i_sw, rel=1e-12, abs=1e-16)
        assert cop.p_filt_pos == pytest.approx(filter_losses(cop.i_pos, conv.filter_z),
                                               rel=1e-12, abs=1e-16)
        assert cop.p_filt_neg == pytest.approx(filter_losses(cop.i_neg, conv.filter_z),
                                               rel=1e-12, abs=1e-16)
        i_mag = abs(cop.i_neg)
        assert cop.p_cond_neg == pytest.approx(conv.loss.r_eq(i_mag) * i_mag**2,
                                               rel=1e-12, abs=1e-16)
