"""Channel parameter types, received powers, and regime classification."""

import fractions
import math

import numpy as np
import pytest

from zickey import (ChannelParams, DomainError, SchemeParams, classify_regime,
                    db_to_linear, snr_inr)
from zickey.channel import _c


def test_snr_inr_reference_points():
    # unit gains, P = 100, cross gain 0.6
    assert snr_inr(ChannelParams(1, 1, 0.6, 100, 100)) == (100.0, 100.0, 36.0)
    # no cross link
    assert snr_inr(ChannelParams(1, 1, 0.0, 10, 10)) == (10.0, 10.0, 0.0)
    # asymmetric gains
    s1, s2, i1 = snr_inr(ChannelParams(2, 1, 1.2, 5, 10))
    assert s1 == 20.0
    assert s2 == 10.0
    assert i1 == pytest.approx(14.4, abs=1e-12)


def test_snr_inr_scales_with_power():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h11, h22, h21 = rng.uniform(0.1, 2.0, 3)
        p1, p2 = rng.uniform(0.5, 50.0, 2)
        k = rng.uniform(1.0, 9.0)
        a = snr_inr(ChannelParams(h11, h22, h21, p1, p2))
        b = snr_inr(ChannelParams(h11, h22, h21, k * p1, k * p2))
        assert np.allclose(np.array(b), k * np.array(a), rtol=1e-12)


def test_regime_classification():
    assert classify_regime(ChannelParams(1, 1, 0.6, 100, 100)) == "weak_moderate"
    assert classify_regime(ChannelParams(1, 1, 1.2, 100, 100)) == "high"
    # the tie inr1 == snr2 stays on the weak/moderate side
    assert classify_regime(ChannelParams(1, 1, 1.0, 100, 100)) == "weak_moderate"
    # regime depends on received, not transmit, quantities
    assert classify_regime(ChannelParams(1, 0.5, 0.6, 10, 10)) == "high"


def test_channel_validation():
    with pytest.raises(DomainError):
        ChannelParams(1, 1, 0.6, -1.0, 100)
    with pytest.raises(DomainError):
        ChannelParams(1, 1, 0.6, 100, -2.0)
    with pytest.raises(DomainError):
        ChannelParams(1, 1, 0.6, 100, 100, rk=-0.1)
    with pytest.raises(DomainError):
        ChannelParams(math.inf, 1, 0.6, 100, 100)
    with pytest.raises(DomainError):
        ChannelParams(1, math.nan, 0.6, 100, 100)
    with pytest.raises(DomainError):
        ChannelParams(1, 1, "0.6", 100, 100)


def test_channel_gain_types():
    # a bool is an int subclass, but no gain
    for field in ("h11", "h22", "h21", "p1", "p2", "rk"):
        kwargs = dict(h11=1, h22=1, h21=0.5, p1=1, p2=1, rk=0.5)
        kwargs[field] = True
        with pytest.raises(DomainError):
            ChannelParams(**kwargs)
    with pytest.raises(DomainError):
        ChannelParams(h11=np.bool_(True), h22=1, h21=0.5, p1=1, p2=1)
    # any real number is accepted and stored as a float
    ch = ChannelParams(h11=np.float32(1.0), h22=np.int64(2), h21=0.5, p1=1,
                       p2=fractions.Fraction(3, 2))
    assert ch == ChannelParams(1.0, 2.0, 0.5, 1.0, 1.5)
    assert all(type(getattr(ch, f)) is float
               for f in ("h11", "h22", "h21", "p1", "p2", "rk"))


def test_channel_received_power_overflow():
    # finite gains and powers whose received power h**2 * p overflows
    with pytest.raises(DomainError):
        ChannelParams(1e200, 1, 0.6, 1, 1)
    with pytest.raises(DomainError):
        ChannelParams(1, 1, 1e10, 1, 1e300)
    with pytest.raises(DomainError):
        ChannelParams(1, 1, 0.6, 1, 10**400)


def test_scheme_params_validation():
    SchemeParams()  # all defaults valid
    SchemeParams(lambda1=0.0, lambda2=1.0, beta1=0.5, beta2=0.25, eta=0.0)
    for field in ("lambda1", "lambda2", "beta1", "beta2", "eta"):
        with pytest.raises(DomainError):
            SchemeParams(**{field: -0.01})
        with pytest.raises(DomainError):
            SchemeParams(**{field: 1.01})


def test_scheme_params_types():
    # bools are refused like for the channel; any real number is a float
    for field in ("lambda1", "lambda2", "beta1", "beta2", "eta"):
        with pytest.raises(DomainError):
            SchemeParams(**{field: True})
        with pytest.raises(DomainError):
            SchemeParams(**{field: np.bool_(False)})
    sp = SchemeParams(lambda1=np.float32(0.5), lambda2=np.int64(1),
                      eta=fractions.Fraction(1, 4))
    assert sp == SchemeParams(lambda1=0.5, lambda2=1.0, eta=0.25)
    assert all(type(getattr(sp, f)) is float
               for f in ("lambda1", "lambda2", "beta1", "beta2", "eta"))


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(20.0) == 100.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)


# x near 0, at 2**-10 (where a log1p form of _c would switch branches),
# near 1, and large
@pytest.mark.parametrize("x0", [0.0, 1e-300, 1e-12, 2.0**-10, 1.0, 1e15,
                                1e300])
def test_capacity_term_is_nondecreasing_over_adjacent_floats(x0):
    # the sum-rate sweep drops the power splits another split dominates;
    # that is exact only while _c never falls as its input grows (see
    # schemes._groups)
    bits = int(np.array(x0).view(np.int64))
    x = np.arange(max(0, bits - 100_000), bits + 100_000).view(np.float64)
    assert np.all(np.diff(x) > 0)  # every float of the range, in order
    y = _c(x)
    assert np.all(np.diff(y) >= 0), x[1:][np.diff(y) < 0][:5]
