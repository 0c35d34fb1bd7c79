"""End-to-end verification report for the toolkit.

Each test checks one headline capability at its stated tolerance and
prints a single [PASS]/[FAIL] line (visible under ``pytest -s``) so the
suite output doubles as a verification report.  The assertions carry the
same numbers as the printed lines.

The steep-monomial test (10a) checks sharpness as a two-sided bound, not
as a crossing.  For q = (1 - beta)(n + 1) x^n the slope ratio x y'/y
never reaches beta on [0, 1]:

* q >= 0 gives y' <= 1, so y <= x, and y'' = -q y <= 0 makes y' decrease;
* hence x y'/y >= y'(x) >= y'(1) = 1 - int q y >= 1 - int q x;
* and 1 - int_0^1 q x dx = beta + (1 - beta)/(n + 2) > beta.

One more Picard step bounds the boundary limit from above, so the limit
is pinned inside a bracket that closes on beta like 1/n.  The
closed-loop reconstruction half of that capability is tested separately
(10b).
"""

import numpy as np
import pytest

from gftkit import (
    DiskSampler,
    Family,
    QFunction,
    catalog,
    check_palpha,
    constant_solver,
    dual_transform,
    integral_criterion,
    integrate_q,
    invariance_residuals,
    membership,
    parse,
    radius_inverse_convexity,
    reconstruct_f_from_y,
    rotation_witness,
    schwarzian,
    schwarzian_norm,
    sharpness_construct,
    solve_ray,
    starlike_equivalence_check,
    verify_radius,
)
from gftkit.jets import (
    jet_cos,
    jet_cot,
    jet_exp,
    jet_log,
    jet_pow,
    jet_sin,
    jet_sqrt,
    jet_tan,
    variable,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::gftkit.errors.UnivalenceNotChecked"
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _annulus(rng, n, r_lo, r_hi):
    # uniform in area, bounded away from 0 and from the unit circle
    r = np.sqrt(rng.uniform(r_lo * r_lo, r_hi * r_hi, size=n))
    th = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return r * np.exp(1j * th)


# -- 1: pole plus quarter-linear map is convex of order 3/5 ----------------


def test_01_quarter_pole_convexity_order():
    f = parse("z/4 + 1/z")
    sampler = DiskSampler(r_max=0.999, rings=64, points_per_ring=512)
    v = membership(f, Family.BC, 0.5, sampler=sampler)
    grid_min = v.witness_value
    ok = abs(grid_min - 0.600) <= 1e-3 and grid_min >= 0.5 and v.holds_on_samples
    _report(
        "z/4 + 1/z: pole-convexity functional bottoms out at 3/5",
        ok,
        f"grid min {grid_min:.6f} at z = {v.witness:.4f}",
    )
    assert abs(grid_min - 0.600) <= 1e-3, f"grid min {grid_min} not within 1e-3 of 0.600"
    assert grid_min >= 0.5, f"functional dips to {grid_min} < 1/2"
    assert v.holds_on_samples


# -- 2: scaled cotangent has constant Schwarzian 2(1-alpha)/pi --------------


def test_02_scaled_cotangent_schwarzian_and_weight():
    rng = np.random.default_rng(20260825)
    worst = {}
    for alpha in (0.0, 0.25, 0.5):
        f = catalog.cot_scaled(alpha).expr
        target = 2.0 * (1.0 - alpha) / np.pi
        z = _annulus(rng, 1000, 0.01, 0.999)
        dev = float(np.max(np.abs(schwarzian(f, z) - target)))

        q = QFunction.from_expression(f"{target!r}/(1 + x^2)")
        integral = integrate_q(q)
        int_err = abs(integral - (1.0 - alpha) / 2.0)
        verdict = check_palpha(q, (1.0 + alpha) / 2.0)
        worst[alpha] = (dev, int_err, verdict.member, verdict.limit_estimate)

        assert dev <= 1e-10, f"alpha={alpha}: |S_f - {target}| up to {dev}"
        assert int_err <= 1e-10, f"alpha={alpha}: integral {integral} off by {int_err}"
        assert verdict.member, (
            f"alpha={alpha}: weight rejected, limit {verdict.limit_estimate}"
        )
    dev_max = max(v[0] for v in worst.values())
    int_max = max(v[1] for v in worst.values())
    _report(
        "scaled cotangent: constant Schwarzian, weight integral, class membership",
        True,
        f"max |S - 2(1-a)/pi| = {dev_max:.2e}, max integral error = {int_max:.2e}",
    )


# -- 3: Koebe Schwarzian norm hits the sharp bound 6 ------------------------


def test_03_koebe_schwarzian_norm_sharp():
    est = schwarzian_norm(catalog.get_entry("koebe").expr)
    ok = 6.0 - 1e-3 <= est.lower_bound <= 6.0 + 1e-9
    _report(
        "Koebe map: weighted Schwarzian norm reaches the sharp bound 6",
        ok,
        f"lower bound {est.lower_bound:.12f} at z = {est.argmax:.4f}",
    )
    assert ok, f"norm estimate {est.lower_bound} outside [6 - 1e-3, 6 + 1e-9]"


# -- 4: Schwarzian invariance under postcomposition and reciprocal ----------


def test_04_invariance_under_mobius_and_reciprocal():
    rng = np.random.default_rng(11)
    f = catalog.get_entry("quarter_pole").expr
    z = _annulus(rng, 100, 0.05, 0.95)
    worst = 0.0
    maps = 0
    while maps < 10:
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if abs(a * d - b * c) < 0.5:
            continue  # nearly-degenerate draw, resample
        chk = invariance_residuals(f, (a, b, c, d), z)
        worst = max(worst, chk.max_residual)
        maps += 1
    ok = worst <= 1e-8
    _report(
        "Schwarzian invariance: postcomposition and reciprocal residuals",
        ok,
        f"max residual {worst:.2e} over 10 maps x 100 points",
    )
    assert ok, f"max invariance residual {worst} > 1e-8"


# -- 5: positivity-class engine on constant coefficients --------------------


def test_05_constant_coefficient_engine():
    flat = check_palpha(QFunction.constant(0.0), 0.5)
    lim_err = abs(flat.limit_estimate - 1.0)

    c = constant_solver(0.5)
    rc = np.sqrt(c)
    residual = abs(rc / np.tan(rc) - 0.5)
    back = check_palpha(QFunction.constant(c), 0.5)
    self_err = abs(back.limit_estimate - 0.5)

    rejected = []
    for alpha in np.linspace(0.0, 0.95, 20):
        v = check_palpha(QFunction.constant(4.0), float(alpha))
        rejected.append(not v.member)

    ok = lim_err <= 1e-6 and residual <= 1e-12 and self_err <= 1e-6 and all(rejected)
    _report(
        "constant coefficients: free limit 1, solver round-trip, q = 4 rejected",
        ok,
        f"|limit-1| = {lim_err:.2e}, solver residual {residual:.2e}, "
        f"round-trip error {self_err:.2e}",
    )
    assert lim_err <= 1e-6
    assert residual <= 1e-12, f"sqrt(c)*cot(sqrt(c)) residual {residual}"
    assert back.member and self_err <= 1e-6
    assert all(rejected), "q = 4 accepted at some order despite its interior zero"


# -- 6: integral criterion agrees with the full membership route ------------

# ten shapes with unit integral on [0, 1], scaled by the mass c below
_UNIT_SHAPES = (
    "1",
    "2*x",
    "3*x^2",
    "4*x^3",
    "6*x^5",
    "1.5707963267948966*sin(3.141592653589793*x)",
    "1 + cos(6.283185307179586*x)",
    "2*(1 - x)",
    "6*x*(1 - x)",
    "1.5*(1 - x^2)",
)


def test_06_integral_route_vs_membership_route():
    worst_margin = np.inf
    for c in (0.2, 0.5, 0.9):
        for shape in _UNIT_SHAPES:
            q = QFunction.from_expression(f"{c!r}*({shape})")
            chk = integral_criterion(q, c)
            assert chk.satisfied, f"integral of {c}*({shape}) came out {chk.integral}"
            v = check_palpha(q, 1.0 - c, tol=1e-4)
            assert v.member, (
                f"{c}*({shape}): limit {v.limit_estimate} below {1.0 - c} - 1e-4"
            )
            worst_margin = min(worst_margin, v.limit_estimate - (1.0 - c))
    _report(
        "mass bound vs boundary-limit membership on 30 coefficient shapes",
        True,
        f"smallest limit margin {worst_margin:.3e}",
    )


# -- 7: radius of inverse convexity and its extremal witness ----------------


def test_07_inverse_convexity_radius():
    r0 = radius_inverse_convexity(0.0)
    closed_err = abs(r0.radius - (2.0 - np.sqrt(3.0)))

    grid = np.linspace(0.0, 0.98, 50)
    radii = [radius_inverse_convexity(float(a)).radius for a in grid]
    decreasing = all(radii[i] > radii[i + 1] for i in range(len(radii) - 1))

    g = catalog.get_entry("koebe_reciprocal").expr
    inside, broken = [], []
    for alpha in (0.0, 0.5):
        r_a = radius_inverse_convexity(alpha).radius
        inside.append(verify_radius(g, alpha, radius=r_a).holds_inside)
        broken.append(rotation_witness(g, alpha, r_a + 0.01).violates)

    ok = closed_err <= 1e-12 and decreasing and all(inside) and all(broken)
    _report(
        "inverse-convexity radius: closed form, monotone in order, sharp witness",
        ok,
        f"|r0 - (2 - sqrt(3))| = {closed_err:.2e}; witness holds inside and "
        f"breaks 0.01 past the radius",
    )
    assert closed_err <= 1e-12
    assert decreasing, "radius failed to decrease along the 50-point order grid"
    assert all(inside), "extremal witness violated the inequality inside its radius"
    assert all(broken), "no rotation violated the inequality just past the radius"


# -- 8: inverse-convex maps pair with starlike maps under 1/(z(1/g)') -------


def test_08_duality_with_reciprocal_transform():
    margins = []
    for name, alpha in (("inverse_log", 0.5), ("power_ratio_a025", 0.25)):
        g = catalog.get_entry(name).expr
        h = dual_transform(g)
        vg = membership(g, Family.BCI, alpha)
        vh = membership(h, Family.BSSTAR, alpha)
        assert vg.holds_on_samples == vh.holds_on_samples, (
            f"{name}: verdicts split ({vg.margin} vs {vh.margin})"
        )
        assert vg.margin >= -1e-6, f"{name}: inverse-convex margin {vg.margin}"
        assert vh.margin >= -1e-6, f"{name}: transformed starlike margin {vh.margin}"
        margins.extend([vg.margin, vh.margin])
    _report(
        "duality: g inverse-convex iff 1/(z(1/g)') starlike, two witnesses",
        True,
        f"margins {', '.join(f'{m:.2e}' for m in margins)}",
    )


# -- 9: convexity factors through a starlike ray solution -------------------


def test_09_ray_factorization_of_scaled_cotangent():
    for alpha in (0.0, 0.3):
        entry = catalog.cot_scaled(alpha)
        f = entry.expr
        b = entry.params["b"]
        p = lambda z: schwarzian(f, z) / 2.0

        dev = drift = 0.0
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            ray = solve_ray(p, float(theta), r_max=0.999)
            exact = np.sin(b * ray.z) / b
            dev = max(dev, float(np.max(np.abs(ray.v - exact))))
            drift = max(drift, ray.wronskian_drift)
        assert dev <= 1e-7, f"alpha={alpha}: ray solution off closed form by {dev}"
        assert drift <= 1e-8, f"alpha={alpha}: Wronskian drift {drift}"

        rep = starlike_equivalence_check(f, alpha, n_rays=16)
        assert rep.v_margin >= -1e-4, f"alpha={alpha}: ray margin {rep.v_margin}"
        assert rep.bc_holds and rep.agree, (
            f"alpha={alpha}: routes disagree (ray {rep.v_holds}, grid {rep.bc_holds})"
        )
        _report(
            f"factorization at order {alpha}: rays match sin(bz)/b, routes agree",
            True,
            f"closed-form gap {dev:.2e}, Wronskian drift {drift:.2e}, "
            f"ray margin {rep.v_margin:.3f}",
        )


# -- 10a: steep monomial weight drives the slope ratio to 0.4 from above ----
#
# No point of [0, 1] has x y'/y <= beta (module docstring), so the search
# finds nothing and the sharpness statement is the bracket
#
#   F = beta + (1 - beta)/(n + 2)  <=  y'(1)/y(1)  <=  U,
#
# where U comes from y'(x) >= 1 - a x^(n+2)/(n+2), a = (1 - beta)(n + 1):
# integrated once it bounds y below, which bounds y'(1) = 1 - int q y
# above and y(1) >= 1 - a/((n+2)(n+3)) below:
#
#   U = [F + a^2/(2 (n+2)^2 (n+3))] / [1 - a/((n+2)(n+3))].
#
# U - beta ~ (1 - beta)(3 + beta)/(2n), so both ends close on beta like
# 1/n.  The bracket is closed form, kept apart from the ODE route; the
# power series of y at x = 1 is an independent high-precision reference.


def _steep_weight_series_ratio(n, beta, digits=30):
    # y = sum c_k x^k with y'' = -a x^n y, c_1 = 1: the only nonzero
    # coefficients sit at k = 1 + m (n + 2), with
    # c_{k+2} = -a c_{k-n} / ((k+1)(k+2)).  The series is entire, so it
    # converges at x = 1.
    import mpmath

    with mpmath.workdps(digits):
        a = (1 - mpmath.mpf(beta)) * (n + 1)
        k, c = 1, mpmath.mpf(1)
        y = yp = mpmath.mpf(0)
        while abs(c) > mpmath.mpf(10) ** (-digits - 5):
            y += c
            yp += k * c
            k += n + 2
            c = -a * c / ((k - 1) * k)
        return float(yp / y)


def test_10a_steep_weight_slope_reaches_two_fifths():
    n, beta = 200, 0.4
    res = sharpness_construct(n, beta)
    a = (1.0 - beta) * (n + 1)
    floor = beta + (1.0 - beta) / (n + 2)
    upper = (floor + a * a / (2.0 * (n + 2) ** 2 * (n + 3))) / (
        1.0 - a / ((n + 2) * (n + 3))
    )
    ref = _steep_weight_series_ratio(n, beta)
    lim = res.limit_estimate

    no_crossing = res.found is False
    bracketed = floor - 1e-9 <= lim <= upper + 1e-9
    infimum = lim <= res.min_ratio and res.min_ratio >= floor
    matches = abs(lim - ref) <= 1e-8
    detail = (
        f"F {floor:.10f} <= limit {lim:.10f} <= U {upper:.10f}, "
        f"limit - beta {lim - beta:.2e}; min ratio {res.min_ratio:.10f} "
        f"at x = {res.argmin_x:.6f}, series {ref:.12f}"
    )
    _report(
        "steep weight n = 200: slope ratio bracketed within 1/n above 0.4",
        no_crossing and bracketed and infimum and matches,
        detail,
    )
    assert no_crossing, (
        f"reported a crossing the bound forbids: found={res.found}; {detail}"
    )
    assert bracketed, f"boundary limit outside [F, U]; {detail}"
    assert infimum, f"span minimum below the boundary limit or F; {detail}"
    assert matches, f"boundary limit off the series by {abs(lim - ref):.2e}; {detail}"


# -- 10b: reconstruction closes the loop: S_f = 2q to 1e-6 ------------------


def test_10b_reconstruction_closed_loop():
    q = QFunction.from_expression(f"{0.6 * 201!r}*x^200")
    rm = reconstruct_f_from_y(q, 0.5)
    grid = np.linspace(0.05, 0.95, 19)
    resid = max(abs(rm.schwarzian_fd(float(x)) - 2.0 * q(float(x))) for x in grid)
    ok = resid <= 1e-6
    _report(
        "reconstructed map: finite-difference Schwarzian returns 2q",
        ok,
        f"max |S_f - 2q| = {resid:.2e} on [0.05, 0.95]",
    )
    assert ok, f"closed-loop residual {resid} > 1e-6"


# -- 11: jet components agree with central finite differences ---------------

# (numpy evaluator, jet builder, whether the stencil must stay off the
#  negative-axis branch cut, whether steps must shrink with |z|)
_ELEMENTARY = {
    "exp": (np.exp, jet_exp, False, False),
    "log": (np.log, jet_log, True, True),
    "sqrt": (np.sqrt, jet_sqrt, True, True),
    "sin": (np.sin, jet_sin, False, False),
    "cos": (np.cos, jet_cos, False, False),
    "tan": (np.tan, jet_tan, False, False),
    "cot": (lambda z: np.cos(z) / np.sin(z), jet_cot, False, True),
    "pow_1.7": (lambda z: z**1.7, lambda a: jet_pow(a, 1.7), True, True),
}


def _fd_orders(fn, z, scale):
    h1, h2, h3 = 1e-5 * scale, 1e-4 * scale, 3e-3 * scale
    d1 = (fn(z + h1) - fn(z - h1)) / (2.0 * h1)
    d2 = (fn(z + h2) - 2.0 * fn(z) + fn(z - h2)) / (h2 * h2)

    def third(h):
        return (-fn(z - 2 * h) + 2.0 * fn(z - h) - 2.0 * fn(z + h) + fn(z + 2 * h)) / (
            2.0 * h**3
        )

    d3 = (4.0 * third(h3 / 2.0) - third(h3)) / 3.0  # one extrapolation level
    return d1, d2, d3


def test_11_jets_match_central_differences():
    rng = np.random.default_rng(7)
    worst_overall = 0.0
    for name, (fn, jet_fn, cut, shrink) in _ELEMENTARY.items():
        r = np.sqrt(rng.uniform(0.2**2, 0.8**2, size=100))
        if cut:
            th = rng.uniform(-1.2, 1.2, size=100)  # keep stencils off (-inf, 0]
        else:
            th = rng.uniform(0.0, 2.0 * np.pi, size=100)
        zs = r * np.exp(1j * th)
        worst = 0.0
        for z in zs:
            jet = jet_fn(variable(complex(z)))
            scale = abs(z) if shrink else 1.0
            for fd, exact in zip(_fd_orders(fn, complex(z), scale), (jet.v1, jet.v2, jet.v3)):
                worst = max(worst, abs(fd - exact) / abs(exact))
        assert worst <= 1e-6, f"{name}: relative jet error {worst}"
        worst_overall = max(worst_overall, worst)
    _report(
        "jet derivatives vs central differences, 8 elementary maps",
        True,
        f"worst relative error {worst_overall:.2e}",
    )
