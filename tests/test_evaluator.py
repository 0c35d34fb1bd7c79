"""The built jet evaluators against an independent tree walk, the symbolic
derivative route and mpmath, on random expression trees; and their
build-once contract."""

import cmath
import dataclasses
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gftkit import DiskSampler, compiler, compose_mobius, numerics, parse, schwarzian
from gftkit.catalog import entries, get_entry
from gftkit.errors import GftError
from gftkit.expressions import _Add, _Const, _Div, _Fun, _Mul, _Neg, _Pow, _Sub, _Var
from gftkit.families import GridField
from gftkit.jets import ELEMENTARY, Jet3, jet_pow, variable
from gftkit.theorems import dual_transform

FUNCS = ("sin", "cos", "tan", "cot", "exp", "log", "sqrt")
EXPONENTS = ("0", "1", "2", "3", "4", "7", "-1", "-2", "-3", "0.5", "-0.5", "1.5", "-2.25")

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
    """The entries of a walk's Jet3, as a built jet holds them."""
    return (jet.v0, jet.v1, jet.v2, jet.v3)


def _assert_same(built, ref):
    """Equal under == where the walk is finite, with the same non-finite
    mask, shape and type (a caller's division rounds by type); where the
    walk's entry does not vary with the points (a constant map's), the built
    one is a complex array of their shape."""
    if isinstance(built, np.ndarray) and not isinstance(ref, np.ndarray):
        assert built.dtype == complex
        ref = np.full(built.shape, ref, dtype=complex)
    assert type(built) is type(ref) or isinstance(ref, np.ndarray)
    assert np.shape(built) == np.shape(ref)
    fb, fr = np.isfinite(built), np.isfinite(ref)
    assert np.array_equal(fb, fr)
    assert np.array_equal(np.asarray(built)[fb], np.asarray(ref)[fr])


def _assert_matches_walk(f, z):
    """f's built jet at z is the walk's, or raises the walk's error."""
    got, ref = _outcome(f.jet, z), _outcome(lambda z: _reference(f, z), z)
    if isinstance(ref, type):  # a singular hit, or a constant subtree's
        assert got is ref
        return
    for a, b in zip(got, _components(ref), strict=True):
        _assert_same(a, b)


@settings(RANDOM, max_examples=300)
@given(EXPRS, st.lists(POINTS, min_size=1, max_size=12))
# an infinite constant: 0 * inf is NaN in the walk, so its terms stay
@example("(z)*(1e309)", [0.5 + 0.25j])
@example("((z)+(z))*((1e309)+(z))", [0.3 - 0.2j])
def test_built_evaluator_matches_the_tree_walk(text, zs):
    f = parse(text)
    for z in (np.array(zs), np.array(zs * 2).reshape(2, -1)):
        _assert_matches_walk(f, z)
    # one point is the one-element array's entries, bit for bit
    for z in zs:
        got, want = _outcome(f.jet, z), _outcome(f.jet, np.array([z]))
        if isinstance(want, type):
            assert got is want
            continue
        for a, b in zip(got, want, strict=True):
            assert np.asarray(a).tobytes() == np.ravel(b)[0].tobytes()


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
            assert _close(jet[k], exact[k]), (text, z, k)
            assert _close(symbolic[k], exact[k]), (text, z, k)


SERIES_ORDER = 8


@settings(RANDOM, max_examples=60)
@given(EXPRS, st.lists(st.floats(-0.95, 0.95, allow_subnormal=False), min_size=1, max_size=3))
# every node kind, each away from its singular set
@example("((z)+(2))*((3)-(z))/(1.5+(z)^2)", [0.3])
@example("-(exp(z)*sin(z))+cos(z)", [-0.4])
@example("tan(z)-cot((z)+(2))", [0.2])
@example("log((2)+(z))*sqrt((3)-(z))", [0.6])
@example("((1.5)+(z))^-2.25+((2)+(z))^0.5-((z)+(3))^-2", [-0.7])
@example("((z)*(i))^3+(z)^0+((1+2*i)+(z))^1.5", [0.5])
def test_series_mode_matches_mpmath_taylor(text, xs):
    """The series evaluator's coefficients through order 8 against
    mpmath.taylor at 50 digits, on the real points where every subtree is
    well conditioned; the series raises exactly where the walk's jet hits a
    singular point, with the same error."""
    f = parse(text)
    mp_f = _to_mpmath(f.root)
    for x in xs:
        ref = _outcome(lambda x: _reference(f, x), x)
        if isinstance(ref, type):
            with pytest.raises(ref):
                f.series(x, SERIES_ORDER)
            continue
        got = _outcome(lambda x: f.series(x, SERIES_ORDER), x)
        assert not isinstance(got, type), (text, x, got)
        if not _well_conditioned(f.root, x, gap=0.25):
            continue
        assert got.shape == (SERIES_ORDER + 1,) and got.dtype == complex
        with mpmath.workdps(50):
            exact = [complex(c) for c in mpmath.taylor(mp_f, mpmath.mpf(x), SERIES_ORDER)]
        # a gap of 0.25 to every singular point bounds |c_k| by ~4^k times the scale
        scale = max(1.0, max(abs(c) * 0.25**k for k, c in enumerate(exact)))
        for k in range(SERIES_ORDER + 1):
            assert abs(got[k] - exact[k]) * 0.25**k <= 1e-10 * scale, (text, x, k)


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
        v0, v1, v2, v3 = f.jet(z)
        if abs(v1) < 0.05 or abs(v0) < 0.05 or abs(c * v0 + d) < 0.05:
            continue
        s = schwarzian(f, z)
        # roundoff grows with the ratios S_f is formed from
        scale = 1.0 + abs(v2 / v1) ** 2 + abs(v3 / v1)
        for g in maps:
            assert abs(schwarzian(g, z) - s) <= 1e-9 * scale, (text, mobius, z)


def test_each_map_builds_each_evaluator_once(monkeypatch):
    built = []

    def counting(root, mode):
        built.append((root, mode))
        return build(root, mode)

    build = compiler._build_path
    monkeypatch.setattr(compiler, "_build_path", counting)
    f = parse("z/4 + 1/z", singular_points=(0,))
    field = GridField(f, DiskSampler(rings=16, points_per_ring=128))
    field.verdict("bc", 0.5)
    field.order_estimate("bc")  # the polish evaluates f on arrays of probes
    for k in range(100):
        schwarzian(f, 0.3 + 0.004j * k)  # one point runs as a one-element array
    f.series(0.5, 3)
    f.series(0.25, 8)
    # one jet build and one series build, none for single points: the grid
    # and the polish read f' and f'', the Schwarzian f''' too, all from one plan
    assert built == [(f.root, "array"), (f.root, "series")]


def _derived_maps():
    for entry in entries():
        f = entry.expr
        h = dual_transform(f)
        for name, g in (("f", f), ("h", h), ("h'", h.derivative()), ("1/f", 1.0 / f),
                        ("T(f)", compose_mobius(f, 1.0, 2.0, 0.5, 3.0)), ("2f", 2.0 * f),
                        ("if", 1j * f)):
            yield pytest.param(g, id=f"{entry.name}:{name}")


def _assert_leading_entries(f, z):
    full = _outcome(f.jet, z)
    for order in (0, 1, 2):
        got = _outcome(lambda z: f.jet(z, order), z)
        if isinstance(full, type):
            assert got is full
            continue
        assert type(got) is tuple and len(got) == order + 1, order
        for k, v in enumerate(got):
            assert type(v) is type(full[k]), (order, k)
            assert np.asarray(v).tobytes() == np.asarray(full[k]).tobytes(), (order, k)


SCALAR_POINTS = (0.5, 0.3 + 0.4j, -0.2 - 0.7j, 0.9j, 0.05 + 0.01j, 0.0, complex(-0.5, -0.0))
ARRAY_POINTS = DiskSampler(rings=16, points_per_ring=64).points()


@pytest.mark.parametrize("f", _derived_maps())
def test_a_lower_order_jet_is_the_leading_entries_of_order_three(f):
    for z in SCALAR_POINTS:
        _assert_leading_entries(f, z)
    _assert_leading_entries(f, ARRAY_POINTS)


@pytest.mark.parametrize("order", [-1, 4, None])
def test_a_jet_order_outside_zero_to_three_is_refused(order):
    with pytest.raises(ValueError):
        parse("z/4 + 1/z").jet(0.5, order)


@settings(RANDOM, max_examples=100)
@given(EXPRS, st.lists(POINTS, min_size=1, max_size=6))
def test_lower_orders_of_random_trees_are_leading_entries(text, zs):
    f = parse(text)
    for z in zs:
        _assert_leading_entries(f, z)
    _assert_leading_entries(f, np.array(zs))


def _nodes(node):
    children = [getattr(node, a) for a in ("left", "right", "child") if hasattr(node, a)]
    return 1 + sum(_nodes(c) for c in children)


def _steps(f, mode="array"):
    builder = compiler._Builder(mode)
    builder.root(f.root)
    return len(builder.steps)


def test_structurally_equal_subtrees_become_one_step():
    assert _steps(parse("sin(z)*sin(z)")) == 2  # sin(z), then the product
    # z+1, its square, 1 times the square, the reciprocal, the product
    assert _steps(parse("(z+1)/(z+1)^2")) == 5
    h = dual_transform(get_entry("inverse_log").expr)
    assert _steps(h) < _nodes(h.root)
    # one evaluation of each distinct subtree gives what the tree walk gives
    for z in (0.5, np.array([0.5, -0.3 + 0.2j])):
        _assert_matches_walk(h, z)


@pytest.mark.parametrize("text, steps", [
    ("z^7", 5),  # 1*z, z^2, z*z^2, z^4, z^3*z^4
    ("z^-2", 3),  # z^2, 1*z^2, its reciprocal
    ("z^2 + z*z", 3),  # the square is one step for both terms
])
def test_integer_powers_are_product_steps_by_repeated_squaring(text, steps):
    f = parse(text)
    assert _steps(f) == steps
    for z in (np.array([0.5]), np.array([complex(-0.0, -0.0)]),
              np.array([0.5, complex(-0.0, 0.0)])):
        _assert_matches_walk(f, z)


@pytest.mark.parametrize("a, b", [(1.0, 1 + 0j), (0.0, -0.0)])
def test_equal_constants_of_other_type_or_sign_stay_apart(a, b):
    # 1.0 == 1+0j and 0.0 == -0.0, but the constant fold rounds them apart
    root = _Mul(_Add(_Const(a), _Var()), _Add(_Const(b), _Var()))
    f = type(parse("z"))(root)
    for mode in ("array", "series"):
        assert _steps(f, mode) == 3, mode
    for z in (np.array([complex(-0.0, -0.0)]), np.array([0.5]),
              np.array([complex(-0.0, -0.0), 0.5])):
        _assert_matches_walk(f, z)


@pytest.mark.parametrize("n", [16383, 16384, 32768])
def test_a_points_array_jet_does_not_depend_on_the_arrays_length(n):
    # numpy reorders complex products on temporaries of 16 384 points or more;
    # longer arrays evaluate in blocks, so their jets are the blocks' bit for bit
    f = get_entry("cot_scaled_a050").expr
    z = DiskSampler(rings=64, points_per_ring=512).points()
    block = numerics._RING_BLOCK_POINTS
    parts = [f.jet(z[i:i + block]) for i in range(0, n, block)]
    whole = f.jet(z[:n])
    for k in range(4):
        want = np.concatenate([p[k] for p in parts])[:n]
        assert whole[k].tobytes() == want.tobytes(), k
    column = f.jet(z[:n, None])  # the components keep the input's shape
    assert column[3].shape == (n, 1) and column[3].tobytes() == whole[3].tobytes()


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
    for _ in range(2):
        with pytest.raises(GftError):
            f.series(0.5, 3)


@pytest.mark.parametrize("text", [
    "(z/(-(2.202)))^0.5",  # a folded negative real under a cut
    "(-(1)-z)^0.5",
    "sin(((exp(800))^-1)^1.5)*z",  # a NaN constant, not a singular hit
])
def test_series_value_is_the_jet_value(text):
    # one compiler folds each constant once, for every mode
    f = parse(text)
    got, ref = f.series(0.5, 2)[0], f.jet(0.5)[0]
    assert got == ref or (cmath.isnan(got) and cmath.isnan(ref))


@pytest.mark.parametrize("text, value", [
    ("z*sqrt(-(1))", 0.5j),
    ("z + log(-(2))", complex(0.5 + np.log(2.0), np.pi)),
])
def test_negative_real_constants_take_the_principal_branch(text, value):
    # the parser keeps real literals as floats: -(1) folds to the float -1.0
    f = parse(text)
    assert abs(f.jet(0.5)[0] - value) <= 1e-15
    assert abs(f.jet(np.array([0.5, 0.5]))[0] - value).max() <= 1e-15
    assert abs(f.series(0.5, 2)[0] - value) <= 1e-15


@pytest.mark.parametrize("text, value", [
    ("2^0.5*z", np.sqrt(2.0)),
    ("sqrt(2)*z", np.sqrt(2.0)),
    ("log(2)*z", np.log(2.0)),
])
def test_positive_real_constants_keep_the_real_function(text, value):
    # the real power is correctly rounded where the complex exp(c log x) can
    # miss by an ulp; only a negative real needs the complex branch
    f = parse(text)
    assert f.jet(1.0)[0] == value
    assert f.series(1.0, 0)[0] == value
    assert f.jet(np.array([1.0, 1.0]))[0][0] == value


@pytest.mark.parametrize("text", ["3", "3*z"])
def test_a_returned_jet_shares_no_array_with_the_evaluator(text):
    # 3*z's f' is the held constant 3 until the call returns it: writing into
    # any entry of a returned jet must not reach the next call
    f = parse(text)
    want = [v.tobytes() for v in f.jet(np.array([0.2, 0.5]))]
    for z in (np.array([0.5]), np.array([0.5, -0.25j])):
        for order in range(4):
            for v in f.jet(z, order):
                v[...] = 99.0
            assert [v.tobytes() for v in f.jet(np.array([0.2, 0.5]))] == want, order
    assert f.jet(0.2, 1) == (complex(f.jet(0.2)[0]), 3.0 if text == "3*z" else 0.0)
