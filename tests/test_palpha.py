"""Positivity-class engine: base ODE, boundary limits, integral tests.

Constant coefficients have closed forms (y = sin(sqrt(c) x)/sqrt(c)), so
most oracles here are classical identities rather than frozen numbers.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gftkit import (
    QFunction,
    check_palpha,
    constant_solver,
    integral_criterion,
    integrate_ivp,
    integrate_q,
    sharpness_construct,
)
from gftkit.errors import (
    BranchPointOrPole,
    ExtrapolationDiverged,
    NonnegativityViolated,
    QuadratureFailed,
    TargetOutOfRange,
)
from gftkit.numerics import richardson


# -- QFunction construction ---------------------------------------------------


def test_constant_and_expression_agree():
    a = QFunction.constant(2.5)
    b = QFunction.from_expression("2.5 + 0*x")
    xs = np.linspace(0, 0.99, 11)
    assert np.allclose(a(xs), b(xs))
    assert a.kind == "constant" and b.kind == "expression"


def test_samples_interpolate_linearly():
    q = QFunction.from_samples([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert q(0.25) == 0.5
    assert q.kind == "samples"
    with pytest.raises(ValueError):
        QFunction.from_samples([0.0, 0.5, 0.5], [0.0, 1.0, 0.0])


def test_nonnegativity_is_enforced():
    with pytest.raises(NonnegativityViolated):
        QFunction.constant(-1.0)
    with pytest.raises(NonnegativityViolated):
        QFunction.from_samples([0.0, 1.0], [0.5, -0.5])
    q = QFunction.from_expression("x - 0.5")
    with pytest.raises(NonnegativityViolated):
        q(0.2)
    # roundoff-level dips clamp instead of raising
    tiny = QFunction.from_expression("0 - 0.0000000000001*x")
    assert tiny(1.0) == 0.0


@pytest.mark.parametrize("build, message", [
    (lambda: QFunction.constant(math.nan), "constant q = nan is not finite"),
    (lambda: QFunction.constant(math.inf), "constant q = inf is not finite"),
    (lambda: QFunction.constant(-math.inf), "constant q = -inf is not finite"),
    (lambda: QFunction.from_samples([0, math.nan, 1], [1, 1, 1]), "sample abscissa 1 is nan"),
    (lambda: QFunction.from_samples([0, 0.5, 1], [1, 1, math.inf]), "sample value 2 is inf"),
    (lambda: QFunction.from_samples([0, 0.5, 1], [math.nan, 1, 1]), "sample value 0 is nan"),
])
def test_non_finite_input_is_refused_by_name(build, message):
    # a NaN abscissa passed the ordering check and a later integral read
    # satisfied; a non-finite constant ended in a step size underflow
    with pytest.raises(ValueError, match=message):
        build()


def test_the_cli_names_a_non_finite_q_constant(capsys):
    from gftkit.cli import main

    assert main(["palpha", "--q-const", "nan", "--alpha", "0.1"]) == 2
    assert capsys.readouterr().err == "error: constant q = nan is not finite\n"


def test_scalar_calls_match_the_array_path_bit_for_bit():
    qs = [
        QFunction.constant(2.5),
        QFunction.from_expression("exp(x)*cos(3*x)^2"),
        QFunction.from_expression("0 - 0.0000000000001*x"),  # roundoff band
        QFunction.from_samples([0.0, 0.3, 1.0], [0.0, 1.7, 0.2]),
    ]
    for q in qs:
        for x in (0.0, 0.1, 0.3, 0.77, 0.999999):
            v = q(x)
            assert type(v) is float
            assert v == q(np.array([x]))[0]
            assert math.copysign(1.0, v) == math.copysign(1.0, q(np.array([x]))[0])
    # NaN passes through both paths as NaN (a table refuses one at construction,
    # an expression only where it is NaN at every probe): exp(800 x) overflows
    # past x = 0.89
    nan_q = QFunction.from_expression("x + 0*exp(800*x)")
    with np.errstate(all="ignore"):
        assert math.isnan(nan_q(0.95)) and math.isnan(nan_q(np.array([0.95]))[0])
    with pytest.raises(NonnegativityViolated, match=r"q\(0\.2\) = -0\.3 < 0"):
        QFunction.from_expression("x - 0.5")(0.2)


def test_expression_variable_must_be_x():
    with pytest.raises(ValueError):
        QFunction.from_expression(__import__("gftkit").parse("z^2"))


@pytest.mark.parametrize("text", ["5*i*x", "2.0*x*(1 + 0.5*i)", "1.5 + 0.7*i",
                                  "sqrt(-(1))*x", "2*(1-x) + log(-(1))"])
def test_complex_coefficient_is_rejected(text):
    # dropping the imaginary part would answer for a different q
    with pytest.raises(ValueError, match="complex"):
        QFunction.from_expression(text)


@pytest.mark.parametrize("text", ["x + 0*exp(800)", "0*exp(800) + 0*x"])
def test_coefficient_not_finite_anywhere_is_rejected(text):
    # the ODE would otherwise end in a step-size underflow that names no cause
    with pytest.raises(ValueError, match=r"is not finite at any probe point"):
        QFunction.from_expression(text)


def test_real_coefficients_pass_the_complex_screen():
    # a pole or a removable 0/0 on a probe point (x = 1/33) is skipped, not rejected
    for text in ["2*(1-x)", "exp(x)*cos(x)", "x^0.5", "1/(33*x-1)", "(33*x-1)^2/(33*x-1)"]:
        QFunction.from_expression(text)


# -- base solution ------------------------------------------------------------


def test_free_equation_solution_is_the_identity():
    sol = integrate_ivp(QFunction.constant(0.0))
    y, yp = sol.at(sol.nodes)
    assert np.max(np.abs(y - sol.nodes)) <= 1e-10
    assert np.max(np.abs(yp - 1.0)) <= 1e-10


@pytest.mark.parametrize("c", [0.5, 4.0, 16.0])
def test_constant_coefficient_closed_form(c):
    sol = integrate_ivp(QFunction.constant(c))
    rc = math.sqrt(c)
    y, yp = sol.at(sol.nodes)
    assert np.max(np.abs(y - np.sin(rc * sol.nodes) / rc)) <= 1e-8
    assert np.max(np.abs(yp - np.cos(rc * sol.nodes))) <= 1e-8


def test_dense_output_and_log_slope():
    sol = integrate_ivp(QFunction.constant(4.0))
    for r in (0.9, 0.99):
        y, yp = sol.at(r)
        assert y == pytest.approx(math.sin(2 * r) / 2, abs=1e-10)
        assert sol.log_slope(r) == pytest.approx(2 / math.tan(2 * r), abs=1e-8)
    y, yp = sol.at(sol.nodes)
    assert sol.nodes[0] == 0.0 and y[0] == 0.0 and yp[0] == 1.0
    assert sol.nodes[-1] == pytest.approx(1.0 - sol.eps_end, abs=1e-15)
    assert sol.first_zero is None


def test_solve_stops_at_the_first_zero():
    # y = sin(100 x)/100 vanishes at pi/100, between reporting nodes
    sol = integrate_ivp(QFunction.constant(1e4))
    zero = math.pi / 100.0
    assert sol.first_zero == pytest.approx(zero, rel=1e-10)
    assert sol.nodes[-1] < sol.first_zero
    assert abs(sol.at(sol.first_zero)[0]) <= 1e-12
    assert sol.at(0.01)[0] == pytest.approx(math.sin(1.0) / 100.0, rel=1e-9)


def test_dense_output_refuses_points_past_the_stop():
    # past the stop the interpolant extrapolates: at x = 0.5 it read 8.8e5,
    # where y = sin(50)/100 < 0
    sol = integrate_ivp(QFunction.constant(1e4))
    for x in (0.5, sol.first_zero + 1e-9, np.array([0.01, 0.5]), -1e-3):
        with pytest.raises(ValueError):
            sol.at(x)
    free = integrate_ivp(QFunction.constant(0.0))
    assert free.at(1.0 - free.eps_end)[0] == pytest.approx(1.0 - free.eps_end, abs=1e-10)
    with pytest.raises(ValueError):
        free.at(1.0)


# -- membership verdicts --------------------------------------------------------


def test_free_weight_has_limit_one():
    v = check_palpha(QFunction.constant(0.0), 0.5)
    assert v.member and v.positive_on_01
    assert abs(v.limit_estimate - 1.0) <= 1e-9
    assert v.first_zero is None


def test_moderate_constant_limit_matches_cotangent():
    # y'/y -> 2 cot 2 < 0: positive solution but negative boundary slope
    v = check_palpha(QFunction.constant(4.0), 0.0)
    assert v.positive_on_01 and not v.member
    assert v.limit_estimate == pytest.approx(2.0 / math.tan(2.0), abs=1e-8)


def test_interior_zero_is_found():
    v = check_palpha(QFunction.constant(16.0), 0.0)
    assert not v.positive_on_01 and not v.member
    assert v.first_zero == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert math.isnan(v.limit_estimate)


@pytest.mark.parametrize("c", [1e4, 4e6, 1e7])
def test_first_zero_of_a_large_constant_matches_the_closed_form(c):
    # at 4e6 and 1e7 the zero pi/sqrt(c) falls before the first reporting node
    v = check_palpha(QFunction.constant(c), 0.0)
    assert not v.positive_on_01 and not v.member
    assert v.first_zero == pytest.approx(math.pi / math.sqrt(c), rel=1e-10)


def test_large_constant_stops_after_its_first_oscillation():
    # the full span holds ~1000 half-periods at c = 1e7; only one is solved
    v = check_palpha(QFunction.constant(1e7), 0.0)
    assert v.n_rhs < 300


def test_sturm_comparison_orders_the_first_zeros():
    z16 = check_palpha(QFunction.constant(16.0), 0.0).first_zero
    z25 = check_palpha(QFunction.constant(25.0), 0.0).first_zero
    assert z25 == pytest.approx(math.pi / 5.0, abs=1e-9)
    assert z25 < z16  # larger coefficient oscillates sooner


def test_limits_decrease_with_the_coefficient():
    limits = [
        check_palpha(QFunction.constant(c), 0.0).limit_estimate
        for c in (0.0, 0.5, 1.358532876461639, 2.0)
    ]
    assert all(a > b for a, b in zip(limits, limits[1:]))


def test_verdict_carries_the_rhs_count():
    q = QFunction.from_expression("2*(1-x)")
    v = check_palpha(q, 0.1, eps_end=2.0**-18, rel_tol=1e-11)
    assert v.n_rhs == integrate_ivp(q, eps_end=2.0**-18, rel_tol=1e-11).n_rhs
    assert v.n_rhs > 0


def test_ladder_needs_enough_room():
    # eps_end above 2^-10 leaves fewer than three rungs: a ValueError that
    # names the cause, not a ladder that "did not settle"
    for eps_end, rungs in ((0.01, 0), (2.0**-8, 1), (1e-3, 2)):
        with pytest.raises(ValueError, match=re.escape(f"{rungs} of the 3 rungs")) as exc:
            check_palpha(QFunction.constant(0.0), 0.5, eps_end=eps_end)
        assert f"eps_end = {eps_end!r}" in str(exc.value)
    # at 2^-10 the three rungs fit but y'/y = 1/x has not settled: keep the tail
    with pytest.raises(ExtrapolationDiverged) as exc:
        check_palpha(QFunction.constant(0.0), 0.5, eps_end=2.0**-10)
    assert len(exc.value.tail) == 3


def test_alpha_validation():
    with pytest.raises(ValueError):
        check_palpha(QFunction.constant(0.0), 1.0)


# -- the Taylor stepper against scipy's DOP853, a test-only oracle ---------------

RANDOM = settings(derandomize=True, database=None, deadline=None, max_examples=25,
                  suppress_health_check=[HealthCheck.too_slow])


def _dop853(q, q_of=None, eps_end=2.0**-21):
    """(first zero or None, boundary limit or None) of the base solution from
    scipy's DOP853 at rtol 1e-12, restarted at a table's knots (a kink costs
    it digits), with check_palpha's Richardson ladder; ``q_of`` evaluates q
    where q itself cannot."""
    from scipy.integrate import solve_ivp

    q_of = q if q_of is None else q_of

    def y_vanishes(x, s):
        return s[0]

    y_vanishes.terminal, y_vanishes.direction = True, -1.0
    x_end = 1.0 - eps_end
    knots = [] if q._knots is None else [k for k in q._knots if 0.0 < k < x_end]
    pieces, state = [], [0.0, 1.0]
    for a, b in zip([0.0] + knots, knots + [x_end]):
        sol = solve_ivp(lambda x, s: (s[1], -q_of(x) * s[0]), (a, b), state, method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True, events=y_vanishes)
        if sol.t_events[0].size:
            return float(sol.t_events[0][0]), None
        pieces.append((b, sol.sol))
        state = sol.y[:, -1]
    xs = 1.0 - 2.0 ** -np.arange(7.0, 21.0)
    y, yp = np.array([next(f for b, f in pieces if x <= b)(x) for x in xs]).T
    return None, float(richardson(tuple(yp / y), ratio=2.0)[-1])


def _agrees_with_dop853(q, q_of=None):
    v = check_palpha(q, 0.0)
    zero, limit = _dop853(q, q_of)
    assert (v.first_zero is None) == (zero is None), (q.label, v.first_zero, zero)
    if zero is None:
        assert abs(v.limit_estimate - limit) <= 1e-9, (q.label, v.limit_estimate, limit)
    else:
        assert abs(v.first_zero - zero) <= 1e-10, (q.label, v.first_zero, zero)


_COEFFS = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=5)


@RANDOM
@given(_COEFFS, _COEFFS)
def test_stepper_matches_dop853_on_polynomial_coefficients(a, b):
    # nonnegative coefficients in x and in 1 - x keep q >= 0 on [0, 1]
    terms = [f"{c!r}*x^{k}" for k, c in enumerate(a)]
    terms += [f"{c!r}*(1-x)^{k + 1}" for k, c in enumerate(b)]
    _agrees_with_dop853(QFunction.from_expression(" + ".join(terms)))


@RANDOM
@given(st.lists(st.floats(0.0, 12.0), min_size=2, max_size=16), st.randoms())
def test_stepper_matches_dop853_on_sample_tables(values, rnd):
    xs = np.sort(rnd.sample(range(1, 999), len(values) - 2)) / 1000.0
    _agrees_with_dop853(QFunction.from_samples(np.concatenate([[0.0], xs, [1.0]]), values))


def test_a_series_that_vanishes_at_the_step_start_does_not_take_the_span():
    # the series of q = 0.9 * 201 x^200 at x = 0 is zero through every order
    # the stepper uses, so one step over [0, 1) would solve y'' = 0; the
    # check against q at the step's end halves it, and the limit matches
    # DOP853
    q = QFunction.from_expression(f"{0.9 * 201!r}*x^200")
    assert np.all(q._piece(0.0, 1.0)[0] == 0.0)
    v = check_palpha(q, 0.0)
    assert v.limit_estimate == pytest.approx(_dop853(q)[1], abs=1e-9)
    assert v.limit_estimate < 0.2  # y'' = 0 would give 1


def test_a_branch_point_at_the_step_start_is_interpolated():
    # q = 3 x^0.5 has no Taylor series at x = 0 (its series raises, and q(0)
    # is NaN, as on arrays), so the first steps interpolate q inside the step
    q = QFunction.from_expression("3*x^0.5")
    with pytest.raises(BranchPointOrPole):
        q._series(0.0, 3)
    assert math.isnan(q(0.0))
    assert integrate_q(q) == pytest.approx(2.0, abs=1e-10)
    _agrees_with_dop853(q, lambda x: 3.0 * math.sqrt(x))


# -- constant solver ------------------------------------------------------------


def test_constant_solver_frozen_value():
    c = constant_solver(0.5)
    assert c == pytest.approx(1.3585328764616391, abs=1e-12)
    rc = math.sqrt(c)
    assert abs(rc / math.tan(rc) - 0.5) <= 1e-12


def test_constant_solver_round_trip_across_targets():
    for target in (0.1, 0.3, 0.7, 0.9):
        c = constant_solver(target)
        v = check_palpha(QFunction.constant(c), 0.0)
        assert v.limit_estimate == pytest.approx(target, abs=1e-6)


def test_constant_solver_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(TargetOutOfRange):
            constant_solver(bad)


# -- integral route -------------------------------------------------------------


def test_integral_of_the_arctan_weight():
    q = QFunction.from_expression(f"{2.0 / math.pi!r}/(1 + x^2)")
    assert integrate_q(q) == pytest.approx(0.5, abs=1e-10)


def test_integral_criterion_reports_the_implied_order():
    chk = integral_criterion(QFunction.constant(0.3), 0.3)
    assert chk.satisfied and chk.implied_order == 0.7
    assert chk.integral == pytest.approx(0.3, abs=1e-10)  # the stated abs_tol
    assert not integral_criterion(QFunction.constant(0.5), 0.3).satisfied
    with pytest.raises(ValueError):
        integral_criterion(QFunction.constant(0.1), 1.5)


QUARTER_DECADES = [10.0 ** (e / 4.0) for e in range(-8, 29)]  # [1e-2, 1e7]


@pytest.mark.parametrize("c", QUARTER_DECADES)
def test_integral_of_a_constant(c):
    assert abs(integrate_q(QFunction.constant(c)) - c) <= 1e-10 * max(1.0, c)


@pytest.mark.parametrize("a", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_integral_of_a_power_of_one_minus_x(a, k):
    assert abs(integrate_q(QFunction.from_expression(f"{a!r}*(1-x)^{k}")) - a / (k + 1)) <= 1e-10


@pytest.mark.parametrize("n", [1, 5, 50, 200])
def test_integral_of_a_unit_monomial_weight(n):
    assert abs(integrate_q(QFunction.from_expression(f"{n + 1}*x^{n}")) - 1.0) <= 1e-10


@pytest.mark.parametrize("c", [1e-2, 1.0, 1e7])
def test_integral_of_a_constant_is_one_step(c):
    # one step covers [0, 1]: one series read for the step, two for its
    # check against q; the end segments are read off that step, not re-stepped
    reads = []
    q = QFunction.constant(c)

    def series(x0, n):
        reads.append(x0)
        return q._series(x0, n)

    assert integrate_q(dataclasses.replace(q, _series=series)) == integrate_q(q)
    assert len(reads) <= 3


def test_integral_with_mass_concentrated_at_the_boundary():
    # (n+1) x^n has unit mass with about a fifth of it beyond x = 0.999
    # at n = 200; the geometric end segments must pick all of it up
    q = QFunction.from_expression("201*x^200")
    assert integrate_q(q) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("text", ["1/(1-x)^0.25", "1/(1-x)^0.5"])
def test_an_integral_that_needs_q_at_its_singular_end_is_refused_by_name(text):
    # the mass beyond the last x at which q can be read (1 - 1e-13 and more)
    # exceeds the promised 1e-10: ~2.5e-10 for ^0.25, so the integral is refused
    q = QFunction.from_expression(text)
    with pytest.raises(QuadratureFailed, match=rf"q = {re.escape(q.label)} cannot be evaluated "
                                               r"at x = 0\.99999999999\d+: non-integer power"):
        integrate_q(q)


def _trapezoid(xs, vs):
    return sum((b - a) * (u + w) / 2.0 for a, b, u, w in zip(xs, xs[1:], vs, vs[1:]))


def test_sample_table_integral_is_the_exact_trapezoid_sum():
    # interior kinks: adaptive quadrature was off by 4e-12 on this table
    xs = [0.0, 0.13, 0.29, 0.41, 0.58, 0.77, 0.9, 1.0]
    vs = [0.4, 1.3, 0.02, 0.95, 0.1, 0.7, 1.9, 0.3]
    assert abs(integrate_q(QFunction.from_samples(xs, vs)) - _trapezoid(xs, vs)) <= 1e-12


def test_sample_table_integral_holds_the_end_values_outside_the_table():
    # np.interp is constant beyond the end knots; the integral runs over [0, 1]
    q = QFunction.from_samples([0.1, 0.3, 0.8], [0.5, 1.5, 0.25])
    hand = 0.1 * 0.5 + _trapezoid([0.1, 0.3, 0.8], [0.5, 1.5, 0.25]) + 0.2 * 0.25
    assert abs(integrate_q(q) - hand) <= 1e-12
    # a table reaching past both ends is cut to [0, 1]
    wide = QFunction.from_samples([-0.5, 0.5, 1.5], [0.0, 1.0, 0.0])
    assert abs(integrate_q(wide) - _trapezoid([0.0, 0.5, 1.0], [0.5, 1.0, 0.5])) <= 1e-12


# -- sharpness search -----------------------------------------------------------


def test_sharpness_diagnostics_for_small_n():
    res = sharpness_construct(1, 0.0)
    assert not res.found
    # q = 2x keeps the slope ratio well above zero everywhere
    assert 0.4 < res.min_ratio < 0.6
    assert res.argmin_x > 0.99
    assert res.limit_estimate == pytest.approx(res.min_ratio, abs=1e-3)


def test_sharpness_integral_is_exact_mass():
    res = sharpness_construct(3, 0.5)
    chk = integral_criterion(res.q, 0.5)
    assert chk.satisfied and chk.implied_order == 0.5
    assert not res.found
    assert res.min_ratio > 0.5  # the limit sits above beta for finite n


def test_sharpness_gap_narrows_with_n():
    gaps = [
        sharpness_construct(n, 0.4).min_ratio - 0.4 for n in (10, 50, 200)
    ]
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 6e-3  # n = 200 closes to within single digits of 1e-3


def test_sharpness_reports_its_certified_floor():
    for n, beta in [(1, 0.0), (3, 0.5), (200, 0.4), (2000, 0.1)]:
        res = sharpness_construct(n, beta)
        assert res.floor == beta + (1.0 - beta) / (n + 2)
        assert res.floor <= res.limit_estimate <= res.min_ratio


def test_sharpness_validation():
    with pytest.raises(ValueError):
        sharpness_construct(0, 0.4)
    with pytest.raises(ValueError):
        sharpness_construct(2.5, 0.4)
    with pytest.raises(ValueError):
        sharpness_construct(10, 1.0)
