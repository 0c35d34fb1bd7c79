"""Radius of inverse convexity: root finding, verification, sharpness."""

import math

import numpy as np
import pytest

from gftkit import (
    catalog,
    parse,
    radius_inverse_convexity,
    rotation_witness,
    verify_radius,
)
from gftkit.errors import EvaluationFailed
from gftkit.families import DiskSampler
from gftkit.radius import radius_polynomial

pytestmark = pytest.mark.filterwarnings(
    "ignore::gftkit.errors.UnivalenceNotChecked"
)


def test_frozen_radii():
    assert radius_inverse_convexity(0.0).radius == pytest.approx(
        2.0 - math.sqrt(3.0), abs=1e-14
    )
    # alpha = 1/4: sqrt(3 + 1/16) = 7/4, so the radius is exactly 1/5
    assert radius_inverse_convexity(0.25).radius == pytest.approx(0.2, abs=1e-14)
    assert radius_inverse_convexity(0.5).radius == pytest.approx(
        0.13148290817867028, abs=1e-12
    )


def test_root_and_closed_form_stay_independent_but_agree():
    for alpha in np.linspace(0.0, 0.98, 50):
        res = radius_inverse_convexity(float(alpha))
        assert abs(res.radius - res.closed_form) <= 1e-12
        assert res.residual <= 1e-12


def test_radius_decreases_with_order():
    radii = [radius_inverse_convexity(a).radius for a in np.linspace(0.0, 0.95, 40)]
    assert all(r2 < r1 for r1, r2 in zip(radii, radii[1:]))
    assert radii[0] < 0.27 and radii[-1] > 0.0


def test_polynomial_sign_change_brackets_the_root():
    for alpha in (0.0, 0.4, 0.8):
        r = radius_inverse_convexity(alpha).radius
        assert radius_polynomial(alpha, 0.0) < 0
        assert radius_polynomial(alpha, 1.0) > 0
        assert radius_polynomial(alpha, r - 1e-6) < 0 < radius_polynomial(alpha, r + 1e-6)


def test_alpha_validation():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            radius_inverse_convexity(bad)


# -- the extremal map z + 1/z - 2 ---------------------------------------------


def test_extremal_map_saturates_the_radius_for_every_order():
    # its functional on the negative real axis equals (1 + r^2 - 4r)/(1 - r^2),
    # which hits alpha exactly at r = r_alpha: the radius cannot be improved
    g = catalog.get_entry("koebe_reciprocal").expr
    for alpha in (0.0, 0.3, 0.6, 0.9):
        r = radius_inverse_convexity(alpha).radius
        at = rotation_witness(g, alpha, r, n_rotations=512)
        assert at.tau == pytest.approx(math.pi, abs=1e-9)
        assert at.value == pytest.approx(alpha, abs=1e-12)
        assert not at.violates
        beyond = rotation_witness(g, alpha, r + 0.01, n_rotations=512)
        assert beyond.violates and beyond.value < alpha


def test_verify_radius_inside_and_probe_outside():
    g = catalog.get_entry("koebe_reciprocal").expr
    sampler = DiskSampler(rings=24, points_per_ring=128)
    for alpha in (0.0, 0.5):
        inside = verify_radius(g, alpha, sampler=sampler)
        assert inside.holds_inside
        assert inside.radius == pytest.approx(
            radius_inverse_convexity(alpha).radius, abs=1e-14
        )
        outside = verify_radius(g, alpha, radius=inside.radius + 0.05, sampler=sampler)
        assert not outside.holds_inside
        w = outside.verdict.witness
        assert w is not None and w.real < 0  # failure sits on the negative axis


def test_verify_radius_default_uses_the_computed_radius():
    g = catalog.get_entry("mobius_pole").expr
    chk = verify_radius(g, 0.25, sampler=DiskSampler(rings=12, points_per_ring=64))
    assert chk.radius == pytest.approx(0.2, abs=1e-14)
    assert chk.holds_inside  # order-1/2 convexity holds on the whole disk a fortiori


def test_a_radius_inside_the_exclusion_ball_is_refused_by_name():
    # r_alpha -> 0 as alpha -> 1: at alpha = 0.999 it is 2.5e-4, inside the
    # 1e-3 ball about the origin, so no grid point is left to sample
    g = catalog.get_entry("quarter_pole").expr
    r = radius_inverse_convexity(0.999).radius
    assert r == pytest.approx(2.5e-4, rel=1e-3)
    with pytest.raises(ValueError) as err:
        verify_radius(g, 0.999)
    assert str(err.value).startswith(f"r_alpha = {r!r} lies inside the exclusion radius 0.001")
    with pytest.raises(ValueError,
                       match=r"radius = 0\.0005 lies inside the exclusion radius 0\.001"):
        verify_radius(g, 0.5, radius=5e-4)


def test_rotation_witness_reports_the_ring_minimum():
    g = catalog.get_entry("koebe_reciprocal").expr
    r = 0.3
    w = rotation_witness(g, 0.0, r, n_rotations=1024)
    expected = (1.0 + r * r - 4.0 * r) / (1.0 - r * r)
    assert w.value == pytest.approx(expected, abs=1e-12)
    assert w.violates


def test_rotation_witness_refuses_a_ring_with_no_finite_value():
    # f' = 0 everywhere: the functional is NaN on the whole ring, which must
    # not pass as "no rotation violates" with value inf
    with pytest.raises(EvaluationFailed):
        rotation_witness(parse("2 + 0*z"), 0.5, 0.3)
