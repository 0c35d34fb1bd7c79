"""Schwarzian derivative, weighted norm, and invariance identities."""

import numpy as np
import pytest
import sympy as sp

from gftkit import (
    catalog,
    compose_mobius,
    invariance_residuals,
    parse,
    pre_schwarzian,
    schwarzian,
    schwarzian_norm,
    weighted_modulus,
)
from gftkit.errors import EvaluationFailed, LocallyNonUnivalent

RNG = np.random.default_rng(2718)


def _disk_points(n=60, r_lo=0.05, r_hi=0.9):
    r = np.sqrt(RNG.uniform(r_lo**2, r_hi**2, size=n))
    return r * np.exp(1j * RNG.uniform(0, 2 * np.pi, size=n))


def _sympy_schwarzian(text):
    z = sp.symbols("z")
    f = sp.sympify(text.replace("^", "**"))
    w = sp.diff(f, z, 2) / sp.diff(f, z)
    s = sp.simplify(sp.diff(w, z) - w**2 / 2)
    return sp.lambdify(z, s, "numpy")


@pytest.mark.parametrize("text", ["z/(1-z)^2", "z/4 + 1/z", "exp(2*z)", "-log(1-z)"])
def test_schwarzian_matches_symbolic(text):
    ref = _sympy_schwarzian(text)
    f = parse(text)
    z = _disk_points()
    got, want = schwarzian(f, z), ref(z)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-11


def test_koebe_schwarzian_at_origin():
    assert abs(schwarzian(catalog.get_entry("koebe").expr, 0.0) + 6.0) <= 1e-12


def test_mobius_maps_have_zero_schwarzian():
    z = _disk_points()
    for text in ["(2*z + 1)/(z + 3)", "z/(1-z)", "(1-z)/z"]:
        assert np.max(np.abs(schwarzian(parse(text), z))) <= 1e-12


def test_a_derivative_beyond_float_range_is_not_a_zero():
    # |f'| = 1.5e308 * sqrt(2) overflows abs(): far from zero, not a traceback
    f = parse("1.5e308*z + 1.5e308*i*z")
    assert pre_schwarzian(f, 0.5) == 0
    assert schwarzian(f, 0.5) == 0


def test_pre_schwarzian_of_koebe():
    # f''/f' = (4 + 2z)/((1-z)(1+... )) -- check against sympy instead of algebra
    z = sp.symbols("z")
    f = z / (1 - z) ** 2
    ref = sp.lambdify(z, sp.simplify(sp.diff(f, z, 2) / sp.diff(f, z)), "numpy")
    pts = _disk_points(30)
    got = pre_schwarzian(catalog.get_entry("koebe").expr, pts)
    assert np.allclose(got, ref(pts), rtol=1e-12, atol=1e-13)


def test_quarter_pole_schwarzian_closed_form():
    # S_f = -24/(z^2 - 4)^2 for f = z/4 + 1/z
    pts = _disk_points(40)
    got = schwarzian(parse("z/4 + 1/z"), pts)
    assert np.allclose(got, -24.0 / (pts**2 - 4.0) ** 2, rtol=1e-12)


# -- invariance ---------------------------------------------------------------


def test_postcomposition_and_reciprocal_invariance():
    f = catalog.get_entry("quarter_pole").expr
    chk = invariance_residuals(f, (1.0, 2.0, 3.0, 1.0), _disk_points(100))
    assert chk.mobius_residual <= 1e-8
    assert chk.reciprocal_residual <= 1e-8
    assert chk.max_residual == max(chk.mobius_residual, chk.reciprocal_residual)


def test_invariance_samples_must_avoid_poles():
    f = catalog.get_entry("koebe").expr  # 1/f has a pole at 0
    with pytest.raises(EvaluationFailed):
        invariance_residuals(f, (1.0, 0.0, 0.0, 1.0), np.array([0.0 + 0j, 0.3 + 0j]))


def test_composition_invariance_is_exact_on_trees():
    # building T o f symbolically and differentiating gives the same S
    f = parse("-1/log(1-z)")
    g = compose_mobius(f, 1.0 + 1j, 0.5, -0.25, 2.0 - 1j)
    z = _disk_points(50, r_lo=0.1, r_hi=0.8)
    assert np.max(np.abs(schwarzian(g, z) - schwarzian(f, z))) <= 1e-9


# -- weighted norm ------------------------------------------------------------


def test_weighted_modulus_at_origin():
    f = catalog.get_entry("koebe").expr
    assert abs(weighted_modulus(f, 0.0) - 6.0) <= 1e-12
    # constant 6 along the real diameter (the extremal direction) ...
    assert abs(weighted_modulus(f, 0.999) - 6.0) <= 1e-10
    # ... but decaying toward the boundary off-axis
    assert weighted_modulus(f, 0.999j) <= 1e-5


def test_norm_koebe_sharp():
    est = schwarzian_norm(catalog.get_entry("koebe").expr)
    assert 6.0 - 1e-3 <= est.lower_bound <= 6.0 + 1e-9
    assert abs(est.argmax.imag) <= 1e-6  # extremum sits on the real axis


def test_norm_of_mobius_is_zero():
    est = schwarzian_norm(parse("(2*z + 1)/(z + 3)"), rings=16, points_per_ring=64)
    assert est.lower_bound <= 1e-12


def test_norm_of_half_plane_log():
    # S = 1/(2(1-z)^2), weighted sup (1+r)^2/2 -> 2 at z -> 1
    est = schwarzian_norm(parse("-log(1-z)"))
    assert abs(est.lower_bound - 2.0) <= 1e-3
    assert est.argmax.real > 0.9


def test_norm_of_constant_schwarzian_peaks_at_center():
    e = catalog.cot_scaled(0.0)
    est = schwarzian_norm(e.expr)
    target = 2.0 / np.pi
    assert abs(est.lower_bound - target) <= 1e-6
    assert abs(est.argmax) <= 0.05


@pytest.mark.parametrize(
    "name", [e.name for e in catalog.entries() if e.univalent]
)
def test_univalent_entries_respect_the_norm_bound(name):
    # sampled lower bound of a univalent map's norm can never top 6
    est = schwarzian_norm(catalog.get_entry(name).expr, rings=24, points_per_ring=128)
    assert est.lower_bound <= 6.0 + 1e-9, f"{name}: {est.lower_bound}"


def test_norm_rejects_toy_grids():
    f = catalog.get_entry("koebe").expr
    with pytest.raises(ValueError):
        schwarzian_norm(f, rings=4)
    with pytest.raises(ValueError):
        schwarzian_norm(f, points_per_ring=32)


# S_f is analytic at a simple pole of f (S_{1/f} = S_f), where f's jets nearly
# cancel: the norm reads it there from a Cauchy ring, on the grid and in the polish
NORM_SUPREMA = [("quarter_pole", 1.5)] + [
    (f"cot_scaled_a{round(100 * a):03d}", 2.0 * (1.0 - a) / np.pi) for a in (0.0, 0.3, 0.5)
]


@pytest.mark.parametrize("grid", [(64, 512), (24, 128)], ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("name, sup", NORM_SUPREMA, ids=[n for n, _ in NORM_SUPREMA])
def test_a_norm_near_a_pole_is_a_lower_bound_of_the_supremum(name, sup, grid):
    est = schwarzian_norm(catalog.get_entry(name).expr, rings=grid[0], points_per_ring=grid[1])
    assert sup - 1e-6 <= est.lower_bound <= sup + 1e-12, (name, est.lower_bound - sup)


@pytest.mark.parametrize("grid", [(64, 512), (24, 128)], ids=lambda g: f"{g[0]}x{g[1]}")
def test_the_norm_of_a_mobius_map_with_a_pole_is_zero(grid):
    est = schwarzian_norm(catalog.get_entry("mobius_pole").expr, rings=grid[0],
                          points_per_ring=grid[1])
    assert est.lower_bound <= 1e-12


@pytest.mark.parametrize("name", [e.name for e in catalog.entries() if e.expr.singular_points])
def test_each_declared_pole_gets_a_cauchy_ring(name):
    # S_f is analytic on the disk of radius 1/2 about each catalog map's
    # declared point, so the first ring passes with a roundoff-level tail
    from gftkit.numerics import ring_taylor
    from gftkit.schwarzian import _pole_polynomials

    f = catalog.get_entry(name).expr
    ((c, radius, coef),) = _pole_polynomials(f)
    assert c == 0 and radius == 0.5
    _, tail, _ = ring_taylor(lambda z: schwarzian(f, z), [c], [1.0], radius, 64)
    assert tail[0] <= 1e-14
    # the polynomial is S_f where the jets are well conditioned
    z = 0.2 * np.exp(1j * np.linspace(0.0, 6.0, 7))
    ring = sum(a * z**k for k, a in enumerate(coef))
    assert np.max(np.abs(ring - schwarzian(f, z))) <= 1e-12 * max(1.0, np.max(np.abs(ring)))


def test_one_point_at_a_pole_is_nan_and_a_zero_of_f_prime_raises():
    # one point runs as a one-element array: a singular hit inside the tree is NaN
    assert np.isnan(schwarzian(catalog.get_entry("quarter_pole").expr, 0.0))
    with pytest.raises(LocallyNonUnivalent):
        schwarzian(catalog.get_entry("koebe_reciprocal").expr, 1.0)
    with pytest.raises(LocallyNonUnivalent):
        pre_schwarzian(catalog.get_entry("koebe_reciprocal").expr, -1.0)
