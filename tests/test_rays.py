"""Ray-wise factor solutions and real-axis reconstruction."""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gftkit import (
    QFunction,
    catalog,
    parse,
    reconstruct_f_from_y,
    schwarzian,
    solve_ray,
    starlike_equivalence_check,
    starlike_margin,
)
from gftkit.errors import GftError, NonAnalyticSample, YVanishes
from gftkit.rays import ReconstructedMap, _solve_rays

pytestmark = pytest.mark.filterwarnings(
    "ignore::gftkit.errors.UnivalenceNotChecked"
)


# -- single-ray solutions -----------------------------------------------------


def test_zero_coefficient_gives_the_identity_pair():
    ray = solve_ray(lambda z: 0.0, theta=0.7)
    assert np.max(np.abs(ray.v - ray.z)) <= 1e-11
    assert np.max(np.abs(ray.v_z - 1.0)) <= 1e-11
    assert np.max(np.abs(ray.u - 1.0)) <= 1e-11
    assert ray.wronskian_drift <= 1e-11
    # margin of the identity is exactly 1 - order
    assert starlike_margin(ray, 0.25) == pytest.approx(0.75, abs=1e-11)


@pytest.mark.parametrize("theta", np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
def test_constant_coefficient_closed_form_along_rays(theta):
    b2 = 0.8  # v'' + b^2 v = 0 with v(0) = 0, v'(0) = 1 is sin(bz)/b
    b = np.sqrt(b2)
    ray = solve_ray(lambda z: b2, theta=float(theta))
    assert np.max(np.abs(ray.v - np.sin(b * ray.z) / b)) <= 1e-9
    assert np.max(np.abs(ray.u - np.cos(b * ray.z))) <= 1e-9
    assert ray.wronskian_drift <= 1e-9


@pytest.mark.parametrize("b2", [100.0, 400.0])
def test_a_large_coefficient_shortens_the_step(b2):
    # p = b^2 is entire, so its rings allow steps of half the disk; the
    # oscillation of sin(bz)/b is what must shorten them
    b = np.sqrt(b2)
    ray = solve_ray(lambda z: b2, theta=0.3)
    v, u = np.sin(b * ray.z) / b, np.cos(b * ray.z)
    assert np.max(np.abs(ray.v - v) / np.maximum(1.0, np.abs(v))) <= 1e-12
    assert np.max(np.abs(ray.u - u) / np.maximum(1.0, np.abs(u))) <= 1e-12


def test_ray_accepts_expression_coefficients():
    from gftkit import parse

    ray_expr = solve_ray(parse("z^2"), theta=0.0)
    ray_call = solve_ray(lambda z: z * z, theta=0.0)
    assert np.max(np.abs(ray_expr.v - ray_call.v)) <= 1e-12


def test_ray_starts_exactly_at_the_origin_seed():
    ray = solve_ray(lambda z: 1.0, theta=0.0)
    assert ray.rho[0] == 0.0 and ray.v[0] == 0.0 and ray.v_z[0] == 1.0
    assert ray.u[0] == 1.0 and ray.u_z[0] == 0.0


def test_non_analytic_coefficient_is_refused():
    def p(z):
        return np.where(np.abs(z) > 0.3, complex("nan"), 0.0)

    with pytest.raises(NonAnalyticSample):
        solve_ray(p, theta=0.0)


def test_a_callable_coefficient_is_sampled_one_ring_per_call():
    f = catalog.cot_scaled(0.3).expr
    calls = []

    def p(z):
        calls.append(z)
        return schwarzian(f, z) / 2.0

    ray = solve_ray(p, theta=0.3)
    assert len(calls) == ray.n_rhs // 32
    for z in calls:
        assert isinstance(z, np.ndarray) and z.dtype == complex and z.shape == (1, 32)


def test_a_scalar_only_coefficient_fails_on_the_first_ring():
    with pytest.raises((TypeError, ValueError)):
        solve_ray(lambda z: cmath.exp(z), theta=0.0)


def _per_point(p):
    """p sampled at one scalar point at a time, a GftError read as NaN."""
    def one(w):
        try:
            return complex(p(complex(w)))
        except GftError:
            return complex("nan")

    return lambda z: np.array([one(w) for w in z.ravel()]).reshape(z.shape)


@pytest.mark.parametrize("entry", [catalog.get_entry("quarter_pole"), catalog.cot_scaled(0.3)],
                         ids=lambda e: e.name)
def test_array_sampling_matches_per_point_sampling(entry):
    # the array and scalar jets round differently, so the rings' samples (and
    # where a tail sits at the tolerance, the rings accepted) may differ
    p = lambda z: schwarzian(entry.expr, z) / 2.0  # noqa: E731
    for theta in (2 * np.arange(12) + 1) * np.pi / 12:
        ray, ref = solve_ray(p, theta), solve_ray(_per_point(p), theta)
        for got, want in ((ray.v, ref.v), (ray.v_z, ref.v_z), (ray.u, ref.u), (ray.u_z, ref.u_z)):
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12, theta


def test_r_max_validation():
    with pytest.raises(ValueError):
        solve_ray(lambda z: 0.0, theta=0.0, r_max=1.0)


# -- equivalence of the two membership routes ---------------------------------


def test_equivalence_on_a_mobius_pole():
    # S = 0, so the factor solution is the identity: margins are explicit
    f = catalog.get_entry("mobius_pole").expr
    rep = starlike_equivalence_check(f, 0.8, n_rays=8)
    assert rep.agree and rep.v_holds and rep.bc_holds
    assert rep.v_margin == pytest.approx(1.0 - 0.9, abs=1e-9)
    assert rep.bc_margin == pytest.approx(1.0 - 0.8, abs=1e-9)


def test_equivalence_when_both_routes_fail():
    f = catalog.get_entry("quarter_pole").expr
    rep = starlike_equivalence_check(f, 0.7, n_rays=16)
    assert rep.agree and not rep.v_holds and not rep.bc_holds
    # worst direction is the imaginary axis, where the functional bottoms out
    assert min(abs(rep.worst_ray_theta - np.pi / 2),
               abs(rep.worst_ray_theta - 3 * np.pi / 2)) <= 1e-9
    # pointwise, convexity margin = twice the ray margin; grids differ a bit
    assert rep.bc_margin == pytest.approx(2.0 * rep.v_margin, abs=5e-3)


def test_equivalence_margin_scales_with_order():
    f = catalog.cot_scaled(0.3).expr
    rep = starlike_equivalence_check(f, 0.3, n_rays=8)
    assert rep.agree and rep.v_holds and rep.bc_holds
    assert rep.wronskian_worst <= 1e-8


def test_equivalence_report_counts_the_shared_rhs_calls():
    f = catalog.cot_scaled(0.3).expr
    rep = starlike_equivalence_check(f, 0.3, n_rays=8)
    rays = _solve_rays(lambda z: schwarzian(f, z) / 2.0,
                       2.0 * np.pi * np.arange(8) / 8)
    assert rep.n_rhs > 0
    assert [ray.n_rhs for ray in rays] == [rep.n_rhs] * 8


def _closed_form_v(name, z):
    if name == "quarter_pole":
        return z / np.sqrt(1.0 - z * z / 4.0)
    b = catalog.get_entry(name).params["b"]
    return np.sin(b * z) / b


@pytest.mark.parametrize("n_rays", [8, 64])
@pytest.mark.parametrize("name", ["cot_scaled_a030", "quarter_pole"])
def test_batched_rays_match_closed_forms_and_single_ray_solves(name, n_rays):
    f = catalog.get_entry(name).expr
    p = lambda z: schwarzian(f, z) / 2.0
    thetas = 2.0 * np.pi * np.arange(n_rays) / n_rays
    for ray in _solve_rays(p, thetas):
        assert np.max(np.abs(ray.v - _closed_form_v(name, ray.z))) <= 1e-7
        assert ray.wronskian_drift <= 1e-8

    alpha = 0.3
    rep = starlike_equivalence_check(f, alpha, n_rays=n_rays)
    looped = min(starlike_margin(solve_ray(p, float(t)), 0.5 * (1.0 + alpha))
                 for t in thetas)
    assert rep.v_margin == pytest.approx(looped, abs=1e-9)


def test_a_non_finite_coefficient_names_its_ray():
    def p(z):
        near_zero = (np.abs(np.angle(z)) < 0.1) & (np.abs(z) > 0.5)
        return np.where(near_zero, complex("nan"), 0.0)

    # theta = 0 sits mid-batch, so the report cannot default to the first ray
    thetas = np.roll(2.0 * np.pi * np.arange(8) / 8, 3)
    with pytest.raises(NonAnalyticSample, match=r"theta = 0\.0$"):
        _solve_rays(p, thetas)


# -- the Taylor ring stepper against scipy's DOP853, a test-only oracle ----------


def _dop853_ray(p, theta, rho):
    """(v, u) at the radii ``rho`` (from rho[0] = 1e-3 on) by scipy's DOP853
    at rtol 1e-12; None where it fails.  The seed at rho[0] solves the
    integral equations w(z) = w(0) + w'(0) z - int_0^z (z - s) p(s) w(s) ds
    with one Picard step, w(s) ~ w(0) + w'(0) s - p(s) s^2 (3 w(0) + w'(0) s) / 6,
    on 6 Gauss-Legendre points: the local series v = z - p z^3 / 6 alone
    misses u' by O(p' z^3), which |v| amplifies to ~1e-9 next to a boundary
    singularity, and starting nearer 0 meets S_f's roundoff at a pole of f."""
    from scipy.integrate import solve_ivp

    e = np.exp(1j * theta)
    z0 = rho[0] * e
    x, w = np.polynomial.legendre.leggauss(6)
    s, w = 0.5 * (x + 1.0) * z0, 0.5 * w * z0
    ps = np.array([p(z) for z in s])
    vs, us = s - ps * s**3 / 6.0, 1.0 - ps * s**2 / 2.0
    state = np.array([z0 - np.sum(w * (z0 - s) * ps * vs), e * (1.0 - np.sum(w * ps * vs)),
                      1.0 - np.sum(w * (z0 - s) * ps * us), -e * np.sum(w * ps * us)])

    def rhs(t, y):
        v, v_t, u, u_t = y.view(complex)
        c = -e * e * p(t * e)
        return np.array([v_t, c * v, u_t, c * u]).view(float)

    try:
        sol = solve_ivp(rhs, (rho[0], rho[-1]), state.view(float), method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=rho)
    except GftError:
        return None
    if not sol.success:
        return None
    y = sol.y[0::2] + 1j * sol.y[1::2]
    return y[0], y[2]


def _agrees_with_dop853(f, theta):
    p = lambda z: schwarzian(f, z) / 2.0  # noqa: E731
    nodes = solve_ray(lambda z: 0.0, theta).rho[1:]  # the reporting radii past 0
    ref = _dop853_ray(p, theta, nodes)
    if ref is None:
        return False
    ray = solve_ray(p, theta)  # must not raise where DOP853 succeeds
    v, u = ref
    assert np.max(np.abs(ray.v[1:] - v) / np.maximum(1.0, np.abs(v))) <= 1e-9, (str(f), theta)
    assert np.max(np.abs(ray.u[1:] - u) / np.maximum(1.0, np.abs(v))) <= 1e-9, (str(f), theta)
    assert ray.wronskian_drift <= 1e-8, (str(f), theta)
    return True


def _complex_text(c):
    return f"({float(c.real)!r} + {float(c.imag)!r}*i)"


@settings(derandomize=True, database=None, deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0 * np.pi))
def test_stepper_matches_dop853_on_random_b_forms(seed, theta):
    # 1/z + a0 + a1 z + a2 z^2 with complex-normal coefficients of scales
    # 0.5, 0.25 and 0.1
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=3) + 1j * rng.normal(size=3)) * np.array([0.5, 0.25, 0.1])
    f = parse(f"1/z + {_complex_text(a[0])} + {_complex_text(a[1])}*z"
              f" + {_complex_text(a[2])}*z^2")
    _agrees_with_dop853(f, theta)


@pytest.mark.parametrize("name", ["koebe", "inverse_log", "koebe_reciprocal"])
def test_stepper_matches_dop853_next_to_a_boundary_singularity(name):
    # S_f is singular at z = 1, 1e-3 past r_max on the ray theta = 0
    assert _agrees_with_dop853(catalog.get_entry(name).expr, 0.0)


# -- reconstruction on the real axis ------------------------------------------


def test_reconstruction_of_the_free_case():
    rm = reconstruct_f_from_y(QFunction.constant(0.0), omega=0.5)
    # y = x: f(x) = 1/x - 2, f' = -1/x^2, convexity value -1
    assert rm.f(0.8) == pytest.approx(1.0 / 0.8 - 2.0, abs=1e-8)
    assert rm.f(0.5) == 0.0
    assert rm.fp(0.8) == pytest.approx(-1.0 / 0.64, abs=1e-10)
    assert rm.pre_schwarzian(0.4) == pytest.approx(-5.0, abs=1e-9)
    assert rm.convexity_value(0.37) == pytest.approx(-1.0, abs=1e-10)
    assert abs(rm.schwarzian_fd(0.3)) <= 1e-8


def test_reconstruction_closed_loop_constant_coefficient():
    q = QFunction.constant(4.0)
    rm = ReconstructedMap(q, omega=0.4)
    for x in (0.2, 0.5, 0.7):
        assert rm.schwarzian_fd(x) == pytest.approx(8.0, abs=1e-6)
    # convexity identity 1 - 2x y'/y with y = sin(2x)/2
    x = 0.6
    assert rm.convexity_value(x) == pytest.approx(
        1.0 - 2.0 * x * 2.0 / np.tan(2.0 * x), abs=1e-9
    )


def test_reconstruction_refuses_vanishing_base_solutions():
    rm = ReconstructedMap(QFunction.constant(16.0), omega=0.5)
    with pytest.raises(YVanishes):
        rm.f(0.9)  # y = sin(4x)/4 crosses zero at pi/4 < 0.9
    # the solve stops at pi/100; x = 0.5 lies past it, where y = sin(50)/100 < 0
    with pytest.raises(YVanishes):
        ReconstructedMap(QFunction.constant(1e4), omega=0.01).fp(0.5)
    with pytest.raises(ValueError):
        ReconstructedMap(QFunction.constant(0.0), omega=1.5)


def test_schwarzian_fd_needs_interior_points():
    rm = reconstruct_f_from_y(QFunction.constant(0.0), omega=0.5)
    with pytest.raises(ValueError):
        rm.schwarzian_fd(0.9999995)


def test_reconstruction_matches_the_disk_schwarzian_on_the_real_axis():
    # the cot map's restriction: S_f on (0,1) equals the fd Schwarzian of
    # the map rebuilt from its own coefficient
    e = catalog.cot_scaled(0.5)
    target = float(np.real(schwarzian(e.expr, 0.35)))
    q = QFunction.constant(target / 2.0)
    rm = reconstruct_f_from_y(q, omega=0.5)
    assert rm.schwarzian_fd(0.35) == pytest.approx(target, abs=1e-6)
