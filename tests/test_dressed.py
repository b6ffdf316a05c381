"""Dressed-pair weights, splittings, and the derived dimensionless scales."""

import math

import pytest

from trimodal.dressed import (
    DressedParams,
    energy_scale,
    mixing_angle,
    splitting,
)


def test_params_validation():
    with pytest.raises(ValueError):
        DressedParams(r=0.0)
    with pytest.raises(ValueError):
        DressedParams(r=-1.0)
    with pytest.raises(ValueError):
        DressedParams(r=math.inf)
    with pytest.raises(ValueError):
        DressedParams(r=1.0, delta=math.nan)
    assert DressedParams(r=2.0).delta == 0.0


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [-1, 0, 1, 4])
def test_mixing_angle_is_normalized(n, r):
    cos, sin = mixing_angle(n, DressedParams(r=r))
    assert cos * cos + sin * sin == pytest.approx(1.0)
    assert cos > 0 and sin >= 0


def test_mixing_angle_closed_boundary():
    # the lowest pair has no partner below: the angle closes
    cos, sin = mixing_angle(-1, DressedParams(r=1.7))
    assert (cos, sin) == pytest.approx((1.0, 0.0))
    with pytest.raises(ValueError):
        mixing_angle(-2, DressedParams(r=1.0))


def test_mixing_angle_reference_values():
    # n = 0: weights sqrt(2)r and 1
    cos, sin = mixing_angle(0, DressedParams(r=1.0))
    assert cos == pytest.approx(math.sqrt(2.0 / 3.0))
    assert sin == pytest.approx(math.sqrt(1.0 / 3.0))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("delta", [0.0, 0.3, -0.3])
def test_splitting_positive_and_resonant_value(r, delta):
    params = DressedParams(r=r, delta=delta)
    for n in (-1, 0, 2):
        assert splitting(n, params) > 0.0
    if delta == 0.0:
        # on resonance the shift is the bare coupling norm
        assert splitting(0, params) == pytest.approx(math.sqrt(2 * r * r + 1))


def test_energy_scale_matches_definition():
    params = DressedParams(r=1.0, delta=0.0)
    cos, _ = mixing_angle(0, params)
    assert energy_scale(2, params) == pytest.approx(splitting(0, params) * cos**2)

