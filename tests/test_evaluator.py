"""The built jet evaluators against an independent tree walk, the symbolic
derivative route and mpmath, on random expression trees; and their
build-once contract."""

import dataclasses
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gftkit import DiskSampler, compose_mobius, expressions, parse, schwarzian
from gftkit.errors import GftError
from gftkit.expressions import _Add, _Const, _Div, _Fun, _Mul, _Neg, _Pow, _Sub, _Var
from gftkit.families import GridField
from gftkit.jets import ELEMENTARY, Jet3, jet_pow, variable

FUNCS = ("sin", "cos", "tan", "cot", "exp", "log", "sqrt")
EXPONENTS = ("0", "1", "2", "3", "-1", "-2", "0.5", "-0.5", "1.5", "-2.25")

_reals = st.floats(0.1, 3.0).map(lambda x: f"{x:.4g}")
_consts = st.one_of(
    _reals,
    st.sampled_from(["i", "pi", "0", "1", "2", "1e309", "exp(800)"]),
    st.tuples(_reals, _reals).map(lambda t: f"({t[0]}+{t[1]}*i)"),
)


@st.composite
def _exprs(draw, depth=4):
    """Expression text over the whole grammar, up to ``depth`` levels."""
    kind = draw(st.integers(0, 9)) if depth else 0
    if kind == 0:
        return "z" if draw(st.booleans()) else draw(_consts)
    if kind <= 4:
        op = draw(st.sampled_from("+-*/"))
        return f"({draw(_exprs(depth - 1))}){op}({draw(_exprs(depth - 1))})"
    if kind == 5:
        return f"-({draw(_exprs(depth - 1))})"
    if kind <= 7:
        return f"({draw(_exprs(depth - 1))})^{draw(st.sampled_from(EXPONENTS))}"
    return f"{draw(st.sampled_from(FUNCS))}({draw(_exprs(depth - 1))})"


EXPRS = _exprs()
# the disk, with signed zeros and the singular points of the grammar's functions
POINTS = st.one_of(
    st.complex_numbers(max_magnitude=1.0),
    st.sampled_from([0j, complex(0.0, -0.0), 1 + 0j, -1 + 0j, complex(-0.5, -0.0), 0.5j]),
)
RANDOM = settings(derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
# scalar walks warn where they overflow, as they always have; values are compared
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def walk(node, seed) -> Jet3:
    """The reference: a tree walk in public Jet3 arithmetic."""
    if isinstance(node, _Const):
        return Jet3(node.value, 0.0, 0.0, 0.0)
    if isinstance(node, _Var):
        return seed
    if isinstance(node, _Neg):
        return -walk(node.child, seed)
    if isinstance(node, _Pow):
        return jet_pow(walk(node.child, seed), node.exponent)
    if isinstance(node, _Fun):
        return ELEMENTARY[node.name](walk(node.child, seed))
    a, b = walk(node.left, seed), walk(node.right, seed)
    ops = {_Add: a.__add__, _Sub: a.__sub__, _Mul: a.__mul__, _Div: a.__truediv__}
    return ops[type(node)](b)


def _reference(f, z):
    if np.ndim(z) == 0:
        return walk(f.root, variable(z))
    with np.errstate(all="ignore"):
        return walk(f.root, variable(z))


def _outcome(fn, z):
    try:
        return fn(z)
    except GftError as exc:
        return type(exc)


def _components(jet):
    return (jet.v0, jet.v1, jet.v2, jet.v3)


def _assert_same(built, ref):
    """Equal under == where the walk is finite, with the same non-finite
    mask, shape and type (a caller's division rounds by type)."""
    assert type(built) is type(ref) or isinstance(ref, np.ndarray)
    assert np.shape(built) == np.shape(ref)
    fb, fr = np.isfinite(built), np.isfinite(ref)
    assert np.array_equal(fb, fr)
    assert np.array_equal(np.asarray(built)[fb], np.asarray(ref)[fr])


@settings(RANDOM, max_examples=300)
@given(EXPRS, st.lists(POINTS, min_size=1, max_size=12))
# an infinite constant: 0 * inf is NaN in the walk, so its terms stay
@example("(z)*(1e309)", [0.5 + 0.25j])
@example("((z)+(z))*((1e309)+(z))", [0.3 - 0.2j])
def test_built_evaluator_matches_the_tree_walk(text, zs):
    f = parse(text)
    for z in zs:  # scalars: the same value, or the same singular-hit error
        got, ref = _outcome(f.jet, z), _outcome(lambda z: _reference(f, z), z)
        if isinstance(ref, type):
            assert got is ref
            continue
        for a, b in zip(_components(got), _components(ref)):
            _assert_same(a, b)
    for arr in (np.array(zs), np.array(zs * 2).reshape(2, -1)):
        got, ref = _outcome(f.jet, arr), _outcome(lambda z: _reference(f, z), arr)
        if isinstance(ref, type):  # a constant subtree hit a singular point
            assert got is ref
            continue
        for a, b in zip(_components(got), _components(ref)):
            _assert_same(a, b)


def _to_mpmath(node):
    if isinstance(node, _Const):
        c = mpmath.mpc(node.value)
        return lambda z: c
    if isinstance(node, _Var):
        return lambda z: z
    if isinstance(node, _Neg):
        g = _to_mpmath(node.child)
        return lambda z: -g(z)
    if isinstance(node, _Pow):
        g, e = _to_mpmath(node.child), node.exponent
        if float(e).is_integer():
            return lambda z: g(z) ** int(e)
        return lambda z: mpmath.power(g(z), mpmath.mpf(e))
    if isinstance(node, _Fun):
        g, fn = _to_mpmath(node.child), getattr(mpmath, node.name)
        return lambda z: fn(g(z))
    a, b = _to_mpmath(node.left), _to_mpmath(node.right)
    op = {_Add: lambda x, y: x + y, _Sub: lambda x, y: x - y,
          _Mul: lambda x, y: x * y, _Div: lambda x, y: x / y}[type(node)]
    return lambda z: op(a(z), b(z))


def _well_conditioned(node, z, bound=1e3, gap=0.05) -> bool:
    """Every subtree's jet at z is finite and at most ``bound``, and every
    argument of a guarded operation keeps ``gap`` from its singular set (and
    from the cut of log, sqrt and non-integer powers)."""
    children = [getattr(node, name) for name in ("left", "right", "child") if hasattr(node, name)]
    if not all(_well_conditioned(c, z, bound, gap) for c in children):
        return False
    try:
        jet = walk(node, variable(z))
    except GftError:
        return False
    if not all(np.isfinite(v) and abs(v) <= bound for v in _components(jet)):
        return False
    x = walk(node.child, variable(z)).v0 if children and hasattr(node, "child") else None
    on_cut = x is not None and x.real < 0 and abs(x.imag) < gap
    if isinstance(node, _Div):
        return abs(walk(node.right, variable(z)).v0) >= gap
    if isinstance(node, _Pow):
        if float(node.exponent).is_integer():
            return node.exponent >= 0 or abs(x) >= gap
        return abs(x) >= gap and not on_cut
    if isinstance(node, _Fun):
        if node.name in ("log", "sqrt"):
            return abs(x) >= gap and not on_cut
        if node.name == "tan":
            return abs(np.cos(x)) >= gap
        if node.name == "cot":
            return abs(np.sin(x)) >= gap
    return True


def _close(got, ref, rtol=1e-10):
    return abs(got - complex(ref)) <= rtol * max(1.0, abs(complex(ref)))


@settings(RANDOM, max_examples=40)
@given(EXPRS, st.lists(st.complex_numbers(max_magnitude=0.95, allow_subnormal=False),
                       min_size=1, max_size=3))
def test_jets_agree_with_the_symbolic_route_and_mpmath(text, zs):
    f = parse(text)
    d1 = f.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    mp_f = _to_mpmath(f.root)
    for z in zs:
        if not _well_conditioned(f.root, z):
            continue
        jet = f.jet(z)
        symbolic = [f.value(z)] + [d.value(z) for d in (d1, d2, d3)]
        with mpmath.workdps(50):
            coeffs = mpmath.taylor(mp_f, mpmath.mpc(z), 3)
        exact = [c * mpmath.factorial(k) for k, c in enumerate(coeffs)]
        for k in range(4):
            assert _close(_components(jet)[k], exact[k]), (text, z, k)
            assert _close(symbolic[k], exact[k]), (text, z, k)


_MOBIUS = st.tuples(*[st.complex_numbers(max_magnitude=2.0, allow_subnormal=False)] * 4).filter(
    lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 0.5
)


@settings(RANDOM, max_examples=60)
@given(EXPRS, _MOBIUS, st.lists(st.complex_numbers(max_magnitude=0.95, allow_subnormal=False),
                                min_size=1, max_size=4))
def test_schwarzian_is_mobius_and_reciprocal_invariant(text, mobius, zs):
    f = parse(text)
    a, b, c, d = mobius
    maps = (compose_mobius(f, a, b, c, d), 1.0 / f)
    for z in zs:
        if not _well_conditioned(f.root, z):
            continue
        jet = f.jet(z)
        if abs(jet.v1) < 0.05 or abs(jet.v0) < 0.05 or abs(c * jet.v0 + d) < 0.05:
            continue
        s = schwarzian(f, z)
        # roundoff grows with the ratios S_f is formed from
        scale = 1.0 + abs(jet.v2 / jet.v1) ** 2 + abs(jet.v3 / jet.v1)
        for g in maps:
            assert abs(schwarzian(g, z) - s) <= 1e-9 * scale, (text, mobius, z)


def test_each_map_builds_each_evaluator_once(monkeypatch):
    built = []

    def counting(root, mode):
        built.append((root, mode))
        return build(root, mode)

    build = expressions._build_path
    monkeypatch.setattr(expressions, "_build_path", counting)
    monkeypatch.setenv("GFT_THREADS", "2")
    f = parse("z/4 + 1/z", singular_points=(0,))
    field = GridField(f, DiskSampler(rings=16, points_per_ring=128))  # on two threads
    field.verdict("bc", 0.5)
    field.order_estimate("bc")  # the polish evaluates f pointwise
    for k in range(100):
        schwarzian(f, 0.3 + 0.004j * k)
    assert built == [(f.root, "array"), (f.root, "scalar")]


def test_the_cached_evaluator_is_not_part_of_the_map():
    f, g = parse("z/4 + 1/z"), parse("z/4 + 1/z")
    f.jet(0.5)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert [fl.name for fl in dataclasses.fields(f)] == [
        "root", "variable", "singular_points", "exclusion_radius"
    ]
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and copy.jet(0.5) == f.jet(0.5)


@pytest.mark.parametrize("text", ["1/0 + z", "z + log(0)", "(1/0)^0 * z"])
def test_constant_subtrees_raise_on_every_call(text):
    f = parse(text)
    for z in (0.5, np.array([0.5, 0.25])):
        for _ in range(2):
            with pytest.raises(GftError):
                f.jet(z)
