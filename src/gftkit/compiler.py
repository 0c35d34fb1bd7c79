"""The tree compiler behind FunctionExpr's evaluators.

``_build_path(root, mode, order)`` turns an expression tree from
``expressions`` into its jet evaluator of one order, which runs on arrays of
points, or its Taylor-series evaluator.  It lives apart from the tree and
the parser because it needs numpy, which they do not.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import GftError
from .expressions import _Add, _Bin, _Const, _Div, _Fun, _Mul, _Neg, _Pow, _Sub, _Var
from .numerics import _RING_BLOCK_POINTS


# -- the built evaluators ------------------------------------------------------
#
# A FunctionExpr builds one jet evaluator per order it is asked for and one
# series evaluator, each once, on first use, by one compiler, _Builder, in
# the matching mode.
#
# The step list.  The builder hash-conses the tree: each distinct subtree
# becomes one plan, and each plan that is not a constant one step of a flat
# list, (rule, input plans, output plan), in the order a depth-first walk
# first reaches it.  Constant subtrees are folded at build time with the
# unpruned rules, which are the Jet3 formulas, so they hold what a tree walk
# computes.  Every step runs, read or not: the base of an f^0 is a step that
# nothing reads, and a constant that hits a singular point is a step that
# raises, so a call raises the error a walk would raise first.  A call runs
# the steps on a list of slots that lives in the call: the seed in slot 0,
# each constant a step reads in a slot of its own, and each result in the
# slot of an input that the step reads last, or else in a free slot.  A step
# also clears the slot of its other input that it reads last, so every
# intermediate is released after its last reader.  An unread result (the
# base of an f^0) goes to slot 1, which every step that frees nothing
# clears; if both its inputs die there, one stays until its slot is reused.
#
# The keys.  A literal constant is keyed by its type and repr, so 1.0 and
# 1+0j, or 0.0 and -0.0, which the fold rounds apart, never share a plan.  An
# operation, folded or not, is keyed by its name, its parameter (a function
# name, an exponent) and its children's plan numbers, so keying stays linear
# in the size of the tree; a node object that the tree holds more than once
# is keyed once.  x/y is the product of x and the reciprocal of y, and f^-n
# the reciprocal of f^n.  f^n is the product steps of jets._int_pow's
# repeated squaring from the literal 1+0j (f^0), whose product makes a real
# entry complex and flips signed zeros as the walk's does; z^2 and z*z share
# a step.  Only a series f^n of a non-constant f is one step, the
# jets.series_int_pow recurrence.
#
# The orders.  In jet mode the seed is z and each entry, the jet at
# the root included, a tuple (v0, ..., vn) through the order n: jets.rule and
# jets.linear_rule compile each pruned rule once, for the kinds of its
# inputs' four entries and the order, to one expression over those tuples,
# and the outer helpers compute only the derivatives through n.  Component k
# of every rule reads only entries 0..k of its inputs, so an evaluator of
# order n computes the leading entries of the order-3 jet bit for bit and
# skips the rest.  In series mode the seed is the variable's series
# (x0, 1, 0, ...) about a real point x0 and the entries are complex Taylor
# coefficients through the seed's order, from jets' truncated-series
# recurrences.  A series rule holds its constant operand: a product scales
# the other series by the constant's value instead of convolving, and a sum
# builds the constant's series for the length of the other.
#
# One arithmetic path.  A one-point call runs on a one-element array, so a
# point's jet is the grid's there, bit for bit: complex products and
# quotients round by type.  Constants are held as 1-element arrays, so
# every product runs as an array product, as in the walk on arrays.


class _Plan(NamedTuple):
    kinds: tuple  # jets kind of each of the four entries
    const: object = None  # the folded 4-tuple of a constant subtree


_FOLD, _ARRAY, _SERIES = "fold", "array", "series"
_FULL = (jets.VALUE,) * 4  # kinds that prune nothing
_FOLDING = (_Plan(_FULL),) * 2  # the children of an unpruned rule, which folds constants
_ONE = complex(1.0)  # the constant 1, as jets._int_pow seeds its product
_SEED, _UNREAD = 0, 1  # the slots of the seed and of results that nothing reads

def _const_kinds(values, mode):
    if mode in (_FOLD, _SERIES):
        return _FULL
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
    """Constant entries as the path holds them: 1-element arrays on the array path."""
    return tuple(np.array(values, dtype=complex)[:, None]) if mode == _ARRAY else values


def _raiser(exc):
    cls, args = type(exc), exc.args

    def fn(seed):
        raise cls(*args)

    return fn


def _series_const(v0):
    """s -> the series of the constant v0 to the length of s."""

    def fn(s):
        c = np.zeros(s.shape, dtype=complex)
        c[0] = v0
        return c

    return fn


def _product_op(plans, mode, order):
    a, b = plans
    if mode == _SERIES:
        # a constant factor scales the other series by its value, the 0-d
        # complex its series starts with, instead of convolving
        if a.const is not None:
            c = np.complex128(a.const[0])
            return (lambda B: B * c), _FULL
        if b.const is not None:
            c = np.complex128(b.const[0])
            return (lambda A: A * c), _FULL
        return jets.series_product, _FULL
    return jets.rule("product", a.kinds + b.kinds, order)


_SERIES_LINEAR = {"+": np.add, "-": np.subtract, "neg": np.negative}


def _linear_op(op):
    def compile_op(plans, mode, order):
        if mode != _SERIES:
            return jets.linear_rule(op, sum((p.kinds for p in plans), ()), order)
        fn = _SERIES_LINEAR[op]
        if plans[0].const is not None:
            c = _series_const(plans[0].const[0])
            return (lambda B: fn(c(B), B)), _FULL
        if len(plans) > 1 and plans[1].const is not None:
            c = _series_const(plans[1].const[0])
            return (lambda A: fn(A, c(A))), _FULL
        return fn, _FULL

    return compile_op


def _outer_op(outer, series, guarded, branched=False):
    """The chain rule through ``outer``, or its series recurrence ``series``;
    a ``branched`` outer folds a real-typed constant as complex, as the walk
    does (jets.complex_arg)."""

    def compile_op(plans, mode, order):
        if mode == _SERIES:
            return series, _FULL
        ka = plans[0].kinds
        kg = jets.NONFINITE if ka[0] == jets.NONFINITE else jets.VALUE
        r, out = jets.rule("chain", (kg,) * 4 + ka, order)
        if guarded and mode == _ARRAY:
            # a masked point makes every entry NaN: nothing stays structural
            out = tuple(k if k == jets.NONFINITE else jets.VALUE for k in out)
        g_of = (lambda x, n: outer(jets.complex_arg(x), n)) if branched and mode == _FOLD else outer

        def f(A):
            g, mask = g_of(A[0], order)
            V = r(g, A)
            return V if mask is None else jets.masked(V, mask)

        return f, out

    return compile_op


_RECIPROCAL = _outer_op(jets.reciprocal_outer, jets.series_reciprocal, True)
_FUNCTIONS = {name: _outer_op(outer, jets.SERIES[name], name in jets.GUARDED, name in jets.BRANCHED)
              for name, outer in jets.OUTER.items()}
_LINEAR = {_Add: _linear_op("+"), _Sub: _linear_op("-")}
_NEG = _linear_op("neg")


class _Builder:
    """The hash-consed plans and the step list of one tree, for one mode and
    order.  Plans are numbered; plan 0 is the variable."""

    def __init__(self, mode, order):
        self.mode, self.order = mode, order
        self.plans = [_Plan((jets.VALUE, jets.ONE, jets.ZERO, jets.ZERO))]
        self.keys = {}  # key -> plan number
        self.seen = {}  # id(node) -> plan number: a tree may hold one node object many times
        self.steps = []  # (rule, input plan numbers, output plan number), in run order

    def root(self, node) -> int:
        """The plan of the whole tree; in series mode a constant map is a
        step that builds its series, after the steps of its f^0 bases."""
        p = self.plan(node)
        const = self.plans[p].const
        if self.mode != _SERIES or const is None:
            return p
        return self._keyed(("series",), _Plan(_FULL), (0,), _series_const(const[0]))

    def plan(self, node) -> int:
        p = self.seen.get(id(node))
        if p is None:
            p = self.seen[id(node)] = self._plan(node)
        return p

    def _plan(self, node) -> int:
        if isinstance(node, _Var):
            return 0
        if isinstance(node, _Const):
            return self._literal(node.value)
        if isinstance(node, _Neg):
            return self._op(_NEG, "neg", self.plan(node.child))
        if isinstance(node, _Bin):
            a, b = self.plan(node.left), self.plan(node.right)
            if isinstance(node, _Mul):
                return self._op(_product_op, "*", a, b)
            if isinstance(node, _Div):
                return self._op(_product_op, "*", a, self._op(_RECIPROCAL, "1/", b))
            return self._op(_LINEAR[type(node)], node.OP, a, b)
        if isinstance(node, _Fun):
            return self._op(_FUNCTIONS[node.name], node.name, self.plan(node.child))
        if isinstance(node, _Pow):
            a = self.plan(node.child)
            c = float(node.exponent)
            if not c.is_integer():
                op = _outer_op(jets.pow_outer(c), jets.series_pow(c), True, True)
                return self._op(op, ("^", c), a)
            n = int(c)
            if n and self.mode == _SERIES and self.plans[a].const is None:
                pw = jets.series_int_pow(abs(n))  # one step, not one per squaring
                p = self._op(lambda *_: (pw, _FULL), ("^", abs(n)), a)
            else:  # product steps by repeated squaring from the jet of 1, as jets._int_pow
                p, m = self._literal(_ONE), abs(n)
                while m:
                    if m & 1:
                        p = self._op(_product_op, "*", p, a)
                    m >>= 1
                    if m:
                        a = self._op(_product_op, "*", a, a)
            return p if n >= 0 else self._op(_RECIPROCAL, "1/", p)
        raise TypeError(type(node))  # pragma: no cover

    def _keyed(self, key, plan, inputs=None, fn=None) -> int:
        """The number of the new plan ``plan`` under ``key``, with its step."""
        p = self.keys[key] = len(self.plans)
        self.plans.append(plan)
        if fn is not None:
            self.steps.append((fn, inputs, p))
        return p

    def _literal(self, value) -> int:
        key = (type(value), repr(value))
        p = self.keys.get(key)
        return self._constant(key, (value, 0.0, 0.0, 0.0)) if p is None else p

    def _constant(self, key, values) -> int:
        return self._keyed(key, _Plan(_const_kinds(values, self.mode), values))

    def _op(self, compile_op, name, *children) -> int:
        """The plan of an operation on child plans; folds constant children."""
        key = (name, *children)
        p = self.keys.get(key)
        if p is not None:
            return p
        plans = tuple(map(self.plans.__getitem__, children))
        consts = tuple(c.const for c in plans)
        if None not in consts:
            fold, _ = compile_op(_FOLDING[:len(plans)], _FOLD, 3)
            try:
                return self._constant(key, tuple(fold(*consts)))
            except GftError as exc:
                return self._keyed(key, _Plan(_FULL), (0,), _raiser(exc))
        fn, kinds = compile_op(plans, self.mode, self.order)
        if self.mode == _SERIES:  # a series rule holds its constant operand
            children = tuple(c for c, const in zip(children, consts) if const is None)
        return self._keyed(key, _Plan(kinds), children, fn)

    def runner(self, top):
        """The steps as one function: seed -> the entries of plan ``top``."""
        steps, plans, n = self.steps, self.plans, len(self.steps)
        last = {}  # plan -> index of the step that reads it last
        for i, step in enumerate(steps):
            for p in step[1]:
                last[p] = i
        last[top] = n
        slots, template = {0: _SEED}, [None, None]
        for p in last:
            const = plans[p].const
            if const is not None:  # in a slot of its own, which no step frees
                slots[p] = len(template)
                template.append(_held(const[:self.order + 1], self.mode))
                last[p] = n + 1
        program, free = [], []
        for i, (fn, inputs, out) in enumerate(steps):
            dying = [slots[p] for p in set(inputs) if last[p] == i]
            if out not in last:
                to = _UNREAD
            elif dying:
                to = dying.pop()
            elif free:
                to = free.pop()
            else:
                to = len(template)
                template.append(None)
            program.append((fn, slots[inputs[0]], slots[inputs[1]] if len(inputs) > 1 else None,
                            to, dying[0] if dying else _UNREAD))
            slots[out] = to
            free += dying
        program, root = tuple(program), slots[top]

        def run(seed):
            v = template.copy()
            v[_SEED] = seed
            for fn, a, b, to, dead in program:
                v[to] = fn(v[a]) if b is None else fn(v[a], v[b])
                v[dead] = None
            return v[root]

        return run


def _build_path(root, mode, order=None):
    """The evaluator of the tree ``root`` in ``mode``: z (a point or an array)
    -> (f, f', ..., f^(order)), order 0 to 3, or (x0, n) -> the complex
    Taylor coefficients 0..n about the real point x0."""
    if mode == _SERIES:
        order = 3
    elif order not in (0, 1, 2, 3):
        raise ValueError(f"jet order must be 0, 1, 2 or 3, got {order!r}")
    builder = _Builder(mode, order)
    with np.errstate(all="ignore"):  # folding constants may overflow, as the walk would
        top = builder.root(root)
    plan, run = builder.plans[top], builder.runner(top)
    if mode == _SERIES:
        def series(x0, n):
            s = np.zeros(int(n) + 1, dtype=complex)
            s[0], s[1:2] = float(x0), 1.0
            with np.errstate(all="ignore"):  # overflow and singular values stay inf or NaN
                return run(s)

        return series

    tail = (1.0, 0.0, 0.0)[:order]
    if plan.const is not None:  # a constant map (or f^0) keeps the walk's scalars
        const = plan.const[:order + 1]

        def jet(z):
            run((np.asarray(z, dtype=complex).reshape(-1),) + tail)  # for the steps' errors
            return const
        return jet

    def jet(z):
        z = np.asarray(z, dtype=complex)
        if not z.ndim:  # one point: the entries of its one-element array's jet
            return tuple(v[0] for v in jet(z.reshape(1)))
        with np.errstate(all="ignore"):  # arrays NaN-mask overflow and singular hits
            if z.size <= _RING_BLOCK_POINTS:
                out = run((z,) + tail)
                # entries that do not vary with z are scalars or 1-element arrays until here
                return tuple(v if np.shape(v) == z.shape else np.full(z.shape, v, dtype=complex)
                             for v in out)
            # numpy reorders complex products on temporaries of 16 384 points or
            # more, which moves last bits: a longer array runs in blocks, so a
            # point's jet does not depend on the length of its array
            flat, out = z.reshape(-1), [np.empty(z.size, dtype=complex) for _ in range(order + 1)]
            for i in range(0, z.size, _RING_BLOCK_POINTS):
                block = slice(i, i + _RING_BLOCK_POINTS)
                for whole, v in zip(out, run((flat[block],) + tail)):
                    whole[block] = v
        return tuple(v.reshape(z.shape) for v in out)

    return jet
