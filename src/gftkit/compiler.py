"""The tree compiler behind FunctionExpr's three evaluators.

``_build_path(root, mode)`` turns an expression tree from ``expressions``
into its scalar jet, array jet or Taylor-series evaluator.  It lives apart
from the tree and the parser because it needs numpy, which they do not.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import GftError
from .expressions import _Add, _Bin, _Const, _Div, _Fun, _Mul, _Neg, _Pow, _Sub, _Var
from .jets import Jet3
from .numerics import _RING_BLOCK_POINTS


# -- the built evaluators ------------------------------------------------------
#
# A FunctionExpr builds each of its three evaluators once, on first use
# (FunctionExpr.scalar_jet, array_jet, series), by one compiler, _build, in
# the matching mode.  Each node becomes a closure from a seed to the node's
# entries.  In the two jet modes the seed is z and the entries are a plain
# 4-tuple (v0, v1, v2, v3), which the node computes by calling the rule of
# its operation on its children's tuples: jets.rule and jets.linear_rule
# compile each pruned rule once, for the kinds of the children's entries, to
# one expression over those tuples.  In series mode the seed is the variable's
# series (x0, 1, 0, ...) about a real point x0 and the entries are complex
# Taylor coefficients through the seed's order, from jets' truncated-series
# recurrences.  Constant subtrees are folded once, at build time and for
# every mode, with the unpruned rules, which are the Jet3 formulas, so they
# hold exactly what a tree walk computes; one that hits a singular point
# raises its error on every call, where the walk would reach it.
#
# The scalar and the array path get separate closures, because the walk's
# numbers differ in type there and complex products and quotients round
# differently by type: a numpy array product unlike a scalar product, and
# numpy scalar quotients unlike Python ones.  On the array path constants
# are held as 1-element arrays, so every product runs as an array product,
# as in the walk.  On the scalar path each plan also carries ``types``: two
# sample tuples whose entries have the types the walk and this evaluator hold
# there.  Sums and products give equal values whatever the type, so only
# the result's types matter (callers divide by them): the root converts an
# entry whose type differs from the walk's.
#
# In series mode a constant's series is zero past order 0, and its kinds say
# so: (VALUE, ZERO, ZERO, ZERO).  A product with a constant factor scales the
# other series by the constant's value instead of convolving, which would add
# products with those zeros.  Every other series plan has the kinds _FULL.


class _Plan(NamedTuple):
    fn: object  # seed -> 4-tuple, or series -> series
    kinds: tuple  # jets kind of each entry
    const: object = None  # the folded 4-tuple of a constant subtree
    effects: tuple = ()  # what a constant must still evaluate (the base of f^0)
    types: tuple = None  # scalar path: (walk, own) type samples


_FOLD, _SCALAR, _ARRAY, _SERIES = "fold", "scalar", "array", "series"
_FULL = (jets.VALUE,) * 4  # kinds that prune nothing
_IDENTITY = (complex(1.0), 0.0, 0.0, 0.0)  # the jet of the constant 1, as Jet3 seeds it
# one value per type a scalar walk holds, away from every singular point
_SAMPLES = {t: t(1.5 + 0.5j) if issubclass(t, complex) else t(1.5)
            for t in (float, complex, np.float64, np.complex128)}


def _samples(values):
    return tuple(_SAMPLES.get(type(v), v) for v in values)


def _const_kinds(values, mode):
    if mode == _FOLD:
        return _FULL
    if mode == _SERIES:
        return (jets.VALUE,) + (jets.ZERO,) * 3
    kinds = []
    for k, v in enumerate(values):
        if not cmath.isfinite(v):
            kinds.append(jets.NONFINITE)
        elif k and v == 0:
            kinds.append(jets.ZERO)
        elif not k and v == 1:
            kinds.append(jets.ONE)
        else:
            kinds.append(jets.VALUE)
    return tuple(kinds)


def _held(values, mode):
    """A constant 4-tuple as the path holds it: 1-element arrays on the array path."""
    return tuple(np.array(values, dtype=complex)[:, None]) if mode == _ARRAY else values


def _const_plan(values, mode, effects=()):
    values = tuple(values)
    if mode == _SERIES:
        v0 = values[0]

        def fn(s):
            for effect in effects:
                effect(s)
            c = np.zeros(s.shape, dtype=complex)
            c[0] = v0
            return c
    else:
        rt = _held(values, mode)

        def fn(z):
            for effect in effects:
                effect(z)
            return rt

    types = (values, values) if mode == _SCALAR else None
    return _Plan(fn, _const_kinds(values, mode), values, effects, types)


def _raiser(exc, effects, mode):
    cls, args = type(exc), exc.args

    def fn(z):
        for effect in effects:
            effect(z)
        raise cls(*args)

    types = ((_SAMPLES[complex],) * 4,) * 2 if mode == _SCALAR else None
    return _Plan(fn, _FULL, None, (), types)


def _node(children, compile_op, mode):
    """Plan for an operation on child plans; folds constant children."""
    if all(c.const is not None for c in children):
        f, _ = compile_op((_FULL,) * len(children), _FOLD)
        effects = sum((c.effects for c in children), ())
        try:
            return _const_plan(f(*(c.const for c in children)), mode, effects)
        except GftError as exc:
            return _raiser(exc, effects, mode)
    f, kinds = compile_op(tuple(c.kinds for c in children), mode)
    types = None
    if mode == _SCALAR:
        walk, _ = compile_op((_FULL,) * len(children), _FOLD)
        types = tuple(_samples(g(*(c.types[i] for c in children))) for i, g in enumerate((walk, f)))
    if len(children) == 1:
        fa = children[0].fn
        return _Plan(lambda z: f(fa(z)), kinds, None, (), types)
    fa, fb = children[0].fn, children[1].fn
    return _Plan(lambda z: f(fa(z), fb(z)), kinds, None, (), types)


def _product_op(kinds, mode):
    if mode == _SERIES:
        if kinds[0][1] == jets.ZERO:  # a constant factor
            return (lambda A, B: B * A[0]), _FULL
        if kinds[1][1] == jets.ZERO:
            return (lambda A, B: A * B[0]), _FULL
        return jets.series_product, _FULL
    return jets.rule("product", kinds[0] + kinds[1])


_SERIES_LINEAR = {"+": np.add, "-": np.subtract, "neg": np.negative}


def _linear_op(op):
    def compile_op(kinds, mode):
        if mode == _SERIES:
            return _SERIES_LINEAR[op], _FULL
        return jets.linear_rule(op, sum(kinds, ()))

    return compile_op


def _outer_op(outer, series, guarded, branched=False):
    """The chain rule through ``outer``, or its series recurrence ``series``;
    a ``branched`` outer folds a real-typed constant as complex, as the walk
    does (jets.complex_arg)."""

    def compile_op(kinds, mode):
        if mode == _SERIES:
            return series, _FULL
        (ka,) = kinds
        kg = jets.NONFINITE if ka[0] == jets.NONFINITE else jets.VALUE
        r, out = jets.rule("chain", (kg,) * 4 + ka)
        if guarded and mode == _ARRAY:
            # a masked point makes every entry NaN: nothing stays structural
            out = tuple(k if k == jets.NONFINITE else jets.VALUE for k in out)
        g_of = (lambda x: outer(jets.complex_arg(x))) if branched and mode == _FOLD else outer

        def f(A):
            g, mask = g_of(A[0])
            V = r(g, A)
            return V if mask is None else jets.masked(V, mask)

        return f, out

    return compile_op


def _int_pow_op(n):
    """f^n for an integer n >= 1 by repeated squaring, as jets._int_pow."""

    def compile_op(kinds, mode):
        if mode == _SERIES:
            return jets.series_int_pow(n), _FULL
        (base,) = kinds
        one = _held(_IDENTITY, mode)
        res, steps, m = _const_kinds(_IDENTITY, mode), [], n
        while m:
            if m & 1:
                r, res = jets.rule("product", res + base)
                steps.append((True, r))
            m >>= 1
            if m:
                r, base = jets.rule("product", base + base)
                steps.append((False, r))

        def f(A):
            result, b = one, A
            for to_result, r in steps:
                if to_result:
                    result = r(result, b)
                else:
                    b = r(b, b)
            return result

        return f, res

    return compile_op


_RECIPROCAL = _outer_op(jets.reciprocal_outer, jets.series_reciprocal, True)
_FUNCTIONS = {name: _outer_op(outer, jets.SERIES[name], name in jets.GUARDED, name in jets.BRANCHED)
              for name, outer in jets.OUTER.items()}
_LINEAR = {_Add: _linear_op("+"), _Sub: _linear_op("-")}
_NEG = _linear_op("neg")


def _build(node, mode) -> _Plan:
    if isinstance(node, _Const):
        return _const_plan((node.value, 0.0, 0.0, 0.0), mode)
    if isinstance(node, _Var):
        kinds = (jets.VALUE, jets.ONE, jets.ZERO, jets.ZERO)
        if mode == _SERIES:  # the seed is the variable's series
            return _Plan(lambda s: s, kinds)
        seed = (_SAMPLES[complex], 1.0, 0.0, 0.0)
        types = (seed, seed) if mode == _SCALAR else None
        return _Plan(lambda z: (z, 1.0, 0.0, 0.0), kinds, None, (), types)
    if isinstance(node, _Neg):
        return _node([_build(node.child, mode)], _NEG, mode)
    if isinstance(node, _Bin):
        a, b = _build(node.left, mode), _build(node.right, mode)
        if isinstance(node, _Mul):
            return _node([a, b], _product_op, mode)
        if isinstance(node, _Div):
            return _node([a, _node([b], _RECIPROCAL, mode)], _product_op, mode)
        return _node([a, b], _LINEAR[type(node)], mode)
    if isinstance(node, _Fun):
        return _node([_build(node.child, mode)], _FUNCTIONS[node.name], mode)
    if isinstance(node, _Pow):
        a = _build(node.child, mode)
        c = float(node.exponent)
        if not c.is_integer():
            return _node([a], _outer_op(jets.pow_outer(c), jets.series_pow(c), True, True), mode)
        n = int(c)
        if n == 0:  # the constant 1, after evaluating the base for its errors
            return _const_plan(_IDENTITY, mode, a.effects if a.const is not None else (a.fn,))
        p = _node([a], _int_pow_op(abs(n)), mode)
        return p if n > 0 else _node([p], _RECIPROCAL, mode)
    raise TypeError(type(node))  # pragma: no cover


def _build_path(root, mode):
    """The evaluator of the tree ``root`` in ``mode``: z -> Jet3 for scalar
    or for array z, or (x0, n) -> the complex Taylor coefficients 0..n about
    the real point x0."""
    with np.errstate(all="ignore"):  # folding constants may overflow, as the walk would
        plan = _build(root, mode)
    fn = plan.fn
    if mode == _SERIES:
        def series(x0, n):
            s = np.zeros(int(n) + 1, dtype=complex)
            s[0], s[1:2] = float(x0), 1.0
            with np.errstate(all="ignore"):  # overflow and singular values stay inf or NaN
                return fn(s)

        return series

    if mode == _SCALAR:
        casts = [type(w) if type(w) is not type(o) else None for w, o in zip(*plan.types)]
        if any(casts):
            def jet(z):
                return Jet3(*(v if c is None else c(v) for v, c in zip(fn(complex(z)), casts)))
        else:
            def jet(z):
                return Jet3(*fn(complex(z)))
        return jet

    if plan.const is not None:  # a constant map (or f^0) keeps the walk's scalars
        def jet(z):
            fn(z)
            return Jet3(*plan.const)
        return jet

    def jet(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):  # arrays NaN-mask overflow and singular hits
            if z.size <= _RING_BLOCK_POINTS:
                out = fn(z)
                # entries that do not vary with z are scalars or 1-element arrays until here
                return Jet3(*(v if np.shape(v) == z.shape else np.full(z.shape, v, dtype=complex)
                              for v in out))
            # numpy reorders complex products on temporaries of 16 384 points or
            # more, which moves last bits: a longer array runs in blocks, so a
            # point's jet does not depend on the length of its array
            flat, out = z.reshape(-1), [np.empty(z.size, dtype=complex) for _ in range(4)]
            for i in range(0, z.size, _RING_BLOCK_POINTS):
                block = slice(i, i + _RING_BLOCK_POINTS)
                for whole, v in zip(out, fn(flat[block])):
                    whole[block] = v
        return Jet3(*(v.reshape(z.shape) for v in out))

    return jet
