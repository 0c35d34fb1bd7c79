"""Parser, evaluator, symbolic derivative, and Laurent probing."""

import numpy as np
import pytest
import sympy as sp

from gftkit import (
    catalog,
    compose_mobius,
    eval_jet,
    laurent_b_check,
    parse,
    scale_variable,
    var_expr,
)
from gftkit.errors import DegenerateMobius, EvaluationFailed, ExprSyntaxError
from gftkit.expressions import FUNCTION_NAMES
from gftkit.jets import OUTER

RNG = np.random.default_rng(314159)

# texts paired with straight numpy evaluations of the same formula
ROUND_TRIP = [
    ("z/4 + 1/z", lambda z: z / 4 + 1 / z),
    ("(1-z)/z", lambda z: (1 - z) / z),
    ("z/(1-z)^2", lambda z: z / (1 - z) ** 2),
    ("-1/log(1-z)", lambda z: -1 / np.log(1 - z)),
    ("exp(2*z) - sin(z)*cos(z)", lambda z: np.exp(2 * z) - np.sin(z) * np.cos(z)),
    ("sqrt(1+z) * tan(z/2)", lambda z: np.sqrt(1 + z) * np.tan(z / 2)),
    ("z^-1.5 + z^2", lambda z: z**-1.5 + z**2),
    ("1 + cot(z)/z", lambda z: 1 + np.cos(z) / np.sin(z) / z),
    ("pi*z + i", lambda z: np.pi * z + 1j),
    ("-(z+1)*(z-1)", lambda z: -(z + 1) * (z - 1)),
]


def _samples(n=40):
    # right half annulus: safe for every text above (cuts, poles at 0)
    r = RNG.uniform(0.15, 0.85, size=n)
    th = RNG.uniform(-1.3, 1.3, size=n)
    return r * np.exp(1j * th)


@pytest.mark.parametrize("text,direct", ROUND_TRIP, ids=[t for t, _ in ROUND_TRIP])
def test_parse_evaluates_like_numpy(text, direct):
    f = parse(text)
    z = _samples()
    got, want = f.value(z), direct(z)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


@pytest.mark.parametrize("text,direct", ROUND_TRIP, ids=[t for t, _ in ROUND_TRIP])
def test_format_reparses_identically(text, direct):
    f = parse(text)
    g = parse(str(f))
    z = _samples(25)
    assert np.array_equal(f.value(z), g.value(z))


@pytest.mark.parametrize(
    "text",
    ["z/4 + 1/z", "z/(1-z)^2", "exp(2*z) - sin(z)*cos(z)", "sqrt(1+z)*tan(z/2)",
     "1 + cot(z)/z", "z^-1.5 + z^2"],
)
def test_symbolic_derivative_matches_sympy(text):
    zs = sp.symbols("z")
    ref = sp.diff(sp.sympify(text.replace("cot", "1/tan").replace("^", "**")), zs)
    fn = sp.lambdify(zs, ref, "numpy")
    df = parse(text).derivative()
    z = _samples(30)
    got, want = df.value(z), fn(z)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-11


def test_jet_components_are_successive_derivatives():
    f = parse("exp(z)/(1-z)")
    d1 = f.derivative()
    d2 = d1.derivative()
    z = _samples(20)
    _, j1, j2, j3 = eval_jet(f, z)
    assert np.allclose(j1, d1.value(z), rtol=1e-13, atol=0)
    assert np.allclose(j2, d2.value(z), rtol=1e-12, atol=0)
    assert np.allclose(j3, d2.derivative().value(z), rtol=1e-12, atol=0)


# -- syntax errors: offsets and expected-token sets -------------------------


@pytest.mark.parametrize(
    "bad,pos,expect_contains",
    [
        ("z + * 2", 4, "("),
        ("(z", 2, ")"),
        ("1 +", 3, "number"),
        ("exp()", 4, "number"),
        ("z 2", 2, "end of input"),
        ("z^", 2, "number"),
    ],
)
def test_syntax_error_positions(bad, pos, expect_contains):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(bad)
    assert exc.value.position == pos
    assert expect_contains in exc.value.expected


def test_unknown_name_lists_alternatives():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("foo(z)")
    assert exc.value.position == 0
    assert "z" in exc.value.expected and "cot" in exc.value.expected


def test_variable_mismatch():
    with pytest.raises(ExprSyntaxError):
        parse("x + 1")  # default variable is z
    q = parse("x^2", variable="x")
    assert q.value(3.0) == 9.0 and str(q) == "x^2"


# -- Laurent probe -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,a0",
    [("z/4 + 1/z", 0.0), ("(1-z)/z", -1.0), ("z + 1/z - 2", -2.0)],
)
def test_laurent_probe_accepts_normalized_poles(text, a0):
    probe = laurent_b_check(parse(text))
    assert probe.is_b_form
    assert abs(probe.pole_coefficient - 1.0) <= 1e-9
    assert abs(probe.a0_estimate - a0) <= 1e-6


def test_laurent_probe_stable_across_radii():
    f = parse("-1/log(1-z)")  # 1/z - 1/2 - z/12 - ...
    for r in (0.02, 0.05, 0.1):
        probe = laurent_b_check(f, probe_radius=r)
        assert probe.is_b_form
        assert abs(probe.a0_estimate + 0.5) <= 1e-4


def test_laurent_probe_rejects_analytic_and_higher_poles():
    assert not laurent_b_check(parse("z/(1-z)^2")).is_b_form  # no pole at 0
    assert not laurent_b_check(parse("1/z^2 + 1/z")).is_b_form  # double pole
    assert not laurent_b_check(parse("2/z")).is_b_form  # wrong residue


def test_laurent_probe_refuses_singular_circle():
    f = parse("1/(z - 0.05)")
    with pytest.raises(EvaluationFailed):
        laurent_b_check(f, probe_radius=0.05, n_points=4)


# -- variable substitution and Mobius post-composition ----------------------


def test_scale_variable_values_and_metadata():
    f = parse("1/(z - 0.5)", singular_points=(0.5,))
    g = scale_variable(f, 2.0)
    z = _samples(20) * 0.2
    assert np.allclose(g.value(z), f.value(2.0 * z), rtol=1e-15)
    assert g.singular_points == (0.25 + 0j,)


@pytest.mark.parametrize("name", ["cot_scaled_a030", "inverse_log", "power_ratio_a025",
                                  "koebe", "half_plane_log"])
def test_scale_variable_substitutes_under_functions_powers_and_negations(name):
    # these trees hold cot, log, powers or a negation: f(lam z) and its
    # derivative lam f'(lam z)
    f = catalog.get_entry(name).expr
    for lam in (0.7, 0.5 - 0.4j):
        g = scale_variable(f, lam)
        z = _samples(20) * 0.9
        got, want = g.jet(z, 1), f.jet(lam * z, 1)
        assert np.array_equal(got[0], want[0]), lam
        assert np.all(np.abs(got[1] - lam * want[1]) <= 1e-12 * np.abs(lam * want[1])), lam


def test_compose_mobius_values():
    f = parse("z/4 + 1/z")
    a, b, c, d = 1.0 + 0.5j, -2.0, 0.25j, 3.0
    g = compose_mobius(f, a, b, c, d)
    z = _samples(20)
    w = f.value(z)
    assert np.allclose(g.value(z), (a * w + b) / (c * w + d), rtol=1e-13)


def test_compose_mobius_rejects_degenerate():
    with pytest.raises(DegenerateMobius):
        compose_mobius(parse("z"), 2.0, 4.0, 1.0, 2.0)  # ad - bc = 0


def test_operator_algebra_merges_metadata():
    f = parse("1/z", singular_points=(0,), exclusion_radius=1e-3)
    g = parse("1/(z-0.5)", singular_points=(0.5,), exclusion_radius=5e-3)
    h = f + g
    assert set(h.singular_points) == {0j, 0.5 + 0j}
    assert h.exclusion_radius == 5e-3
    # scalars promote without disturbing metadata
    k = 2.0 * f - 1.0
    assert k.singular_points == (0j,)
    assert k.value(0.5) == 3.0


def test_var_expr_builds_trees():
    z = var_expr()
    f = 1.0 / (z * (1.0 / (1.0 + z)).derivative())
    # (1/(1+z))' = -1/(1+z)^2, so f = -(1+z)^2/z
    pts = _samples(10)
    assert np.allclose(f.value(pts), -((1 + pts) ** 2) / pts, rtol=1e-13)


def test_the_parser_knows_the_functions_the_jets_differentiate():
    assert FUNCTION_NAMES == set(OUTER)
