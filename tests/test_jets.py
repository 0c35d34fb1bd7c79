"""Jet propagation against symbolic and finite-difference oracles."""

import itertools
import zlib

import numpy as np
import pytest
import sympy as sp

from gftkit import jets
from gftkit.errors import BranchPointOrPole, DivisionAtZero
from gftkit.jets import (
    ELEMENTARY,
    ONE,
    VALUE,
    ZERO,
    Jet3,
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

RNG = np.random.default_rng(42)


def _sympy_jet(expr, z0):
    z = sp.symbols("z")
    vals = [complex(sp.diff(expr, z, k).subs(z, z0).evalf(30)) for k in range(4)]
    return vals


def _assert_jet_close(jet: Jet3, expected, rtol=1e-12):
    exp = expected if isinstance(expected, (tuple, list)) else (
        expected.v0, expected.v1, expected.v2, expected.v3
    )
    for k, (g, e) in enumerate(zip((jet.v0, jet.v1, jet.v2, jet.v3), exp)):
        assert abs(g - e) <= rtol * max(1.0, abs(e)), (
            f"order {k}: got {g}, expected {e}"
        )


def test_variable_seed():
    j = variable(0.3 + 0.4j)
    assert j.v0 == 0.3 + 0.4j and j.v1 == 1.0
    assert j.v2 == 0.0 and j.v3 == 0.0


def test_reciprocal_frozen_values():
    # 1/z at z = 1/2: derivatives (-1)^k k! 2^(k+1)
    j = variable(0.5).reciprocal()
    _assert_jet_close(j, (2.0, -4.0, 16.0, -96.0), rtol=0.0)


def test_simple_pole_expansion_of_cot():
    # cot z = 1/z - z/3 + O(z^3): value and curvature follow the pole
    z0 = 1e-2
    j = jet_cot(variable(z0))
    # next Laurent terms: -z^3/45 and -2z/15 situate the tolerances
    assert abs(j.v0 - (1.0 / z0 - z0 / 3.0)) < 1e-7
    assert abs(j.v1 - (-1.0 / z0**2 - 1.0 / 3.0)) < 1e-4


@pytest.mark.parametrize(
    "name,builder",
    [
        ("exp(z)*sin(z)", lambda a: jet_exp(a) * jet_sin(a)),
        ("cos(z)/(1 + z*z)", lambda a: jet_cos(a) / (1.0 + a * a)),
        ("log(1 + z) - z", lambda a: jet_log(1.0 + a) - a),
        ("sqrt(1 + z*z)", lambda a: jet_sqrt(1.0 + a * a)),
        ("tan(z) - z*cot(z)", lambda a: jet_tan(a) - a * jet_cot(a)),
        ("(1 + z)**(-1.5)", lambda a: jet_pow(1.0 + a, -1.5)),
    ],
)
def test_composites_match_sympy(name, builder):
    z = sp.symbols("z")
    expr = sp.sympify(name.replace("cot(z)", "1/tan(z)"))
    for _ in range(10):
        z0 = complex(RNG.uniform(0.1, 0.6) * np.exp(1j * RNG.uniform(-1.0, 1.0)))
        jet = builder(variable(z0))
        _assert_jet_close(jet, _sympy_jet(expr, z0), rtol=1e-10)


def test_product_rule_third_order():
    a = Jet3(1.0 + 2.0j, 0.5, -1.0j, 2.0)
    b = Jet3(-3.0, 1.0j, 2.0, 0.25)
    p = a * b
    assert p.v3 == a.v3 * b.v0 + 3.0 * a.v2 * b.v1 + 3.0 * a.v1 * b.v2 + a.v0 * b.v3


def test_division_round_trip():
    for _ in range(20):
        # |z| <= 0.7 keeps 1 + z^2 away from its roots at +-i
        z0 = complex(RNG.uniform(0.05, 0.7) * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
        a = jet_exp(variable(z0))
        b = 1.0 + variable(z0) * variable(z0)
        _assert_jet_close((a / b) * b, (a.v0, a.v1, a.v2, a.v3), rtol=1e-13)


def test_integer_power_is_repeated_multiplication():
    a = jet_sin(variable(0.7 + 0.1j))
    cube = jet_pow(a, 3.0)
    ref = a * a * a
    _assert_jet_close(cube, ref, rtol=1e-14)  # association differs, values agree
    # negative integer exponent threads through reciprocal
    _assert_jet_close(jet_pow(a, -2.0), (a * a).reciprocal(), rtol=1e-15)


def test_integer_power_at_zero_is_legal():
    j = jet_pow(variable(0.0), 2.0)
    assert (j.v0, j.v1, j.v2, j.v3) == (0.0, 0.0, 2.0, 0.0)
    with pytest.raises(BranchPointOrPole):
        jet_pow(variable(0.0), 0.5)


# -- the pruned rules of the built evaluators ----------------------------------

# each rule's Jet3 reference, as a function of the input 4-tuples
_REFERENCE = {
    "product": lambda A, B: Jet3(*A) * Jet3(*B),
    "chain": lambda G, A: jets._compose(Jet3(*A), *G),
    "+": lambda A, B: Jet3(*A) + Jet3(*B),
    "-": lambda A, B: Jet3(*A) - Jet3(*B),
    "neg": lambda A: -Jet3(*A),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE))
def test_every_pruned_rule_equals_the_jet3_reference(name):
    # every kinds tuple over {VALUE, ZERO, ONE} whose value entries are not ZERO
    rng = np.random.default_rng(2505)
    compile_rule = jets.rule if name in ("product", "chain") else jets.linear_rule
    size = 4 if name == "neg" else 8
    cases = 0
    for kinds in itertools.product((VALUE, ZERO, ONE), repeat=size):
        if ZERO in kinds[::4]:
            continue
        entries = [0.0 if k == ZERO else 1.0 if k == ONE else complex(*rng.standard_normal(2))
                   for k in kinds]
        args = [tuple(entries[i:i + 4]) for i in range(0, size, 4)]
        fn, out = compile_rule(name, kinds)
        got, ref = fn(*args), _REFERENCE[name](*args)
        assert got == (ref.v0, ref.v1, ref.v2, ref.v3), (kinds, got, ref)
        assert all(v == 0 for v, k in zip(got, out) if k == ZERO), (kinds, got, out)
        assert all(v == 1 for v, k in zip(got, out) if k == ONE), (kinds, got, out)
        assert fn.__code__.co_names == ()  # the compiled rule reads only its arguments
        cases += 1
    assert cases == 2 ** (size // 4) * 3 ** (size - size // 4)


# -- finite-difference property checks --------------------------------------

# steps per derivative order; the third order adds one Richardson level
_H1, _H2, _H3 = 1e-5, 1e-4, 3e-3

_NUMPY_FORM = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "cot": lambda z: np.cos(z) / np.sin(z),
}

# functions whose truncation error blows up toward 0 get |z|-scaled steps
_SCALED = {"log", "sqrt", "cot"}
# principal-branch functions: keep the stencil in the right half plane
_CUT = {"log", "sqrt"}


@pytest.mark.parametrize("name", sorted(ELEMENTARY))
def test_elementary_against_finite_differences(name):
    fn = _NUMPY_FORM[name]
    jet_fn = ELEMENTARY[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # not hash(): it is salted per process
    for _ in range(25):
        r = rng.uniform(0.2, 0.8)
        th = rng.uniform(-1.2, 1.2) if name in _CUT else rng.uniform(0, 2 * np.pi)
        z = complex(r * np.exp(1j * th))
        s = abs(z) if name in _SCALED else 1.0
        jet = jet_fn(variable(z))
        h1, h2, h3 = _H1 * s, _H2 * s, _H3 * s
        d1 = (fn(z + h1) - fn(z - h1)) / (2 * h1)
        d2 = (fn(z + h2) - 2 * fn(z) + fn(z - h2)) / h2**2

        def d3(h):
            return (-fn(z - 2 * h) + 2 * fn(z - h) - 2 * fn(z + h) + fn(z + 2 * h)) / (
                2 * h**3
            )

        d3r = (4 * d3(h3 / 2) - d3(h3)) / 3
        assert abs(d1 - jet.v1) <= 1e-6 * abs(jet.v1)
        assert abs(d2 - jet.v2) <= 1e-6 * abs(jet.v2)
        assert abs(d3r - jet.v3) <= 1e-6 * abs(jet.v3)


# -- singular-input semantics ------------------------------------------------


def test_scalar_singular_inputs_raise():
    with pytest.raises(DivisionAtZero):
        variable(0.0).reciprocal()
    with pytest.raises(BranchPointOrPole):
        jet_log(variable(0.0))
    with pytest.raises(BranchPointOrPole):
        jet_sqrt(variable(1e-14))  # inside the singular tolerance band
    with pytest.raises(BranchPointOrPole):
        jet_tan(variable(np.pi / 2.0))
    with pytest.raises(BranchPointOrPole):
        jet_cot(variable(np.pi))


def test_near_singular_scalar_is_merely_large():
    j = variable(1e-12).reciprocal()  # above the tolerance: legal, big
    assert abs(j.v0) == pytest.approx(1e12)


def test_array_singular_inputs_mask():
    z = np.array([0.5, 0.0, -0.25 + 0.1j])
    j = variable(z).reciprocal()
    assert np.isnan(j.v0[1].real) and np.isnan(j.v3[1].real)
    assert np.isfinite(j.v0[[0, 2]]).all()
    assert j.v0[0] == 2.0  # untouched lanes keep exact values

    jl = jet_log(variable(np.array([1.0, 0.0])))
    assert np.isnan(jl.v1[1].real) and jl.v0[0] == 0.0
