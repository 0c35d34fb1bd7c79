"""Order-3 Taylor jets over the complex numbers.

A Jet3 carries (f, f', f'', f''') at a point and propagates all four
components exactly through arithmetic and elementary functions, so
Schwarzian derivatives and convexity functionals come out at full
double precision with no finite-difference noise.

Components may be python complex scalars or numpy complex arrays.
Scalar evaluation raises typed errors at singular inputs; array
evaluation NaN-masks the offending entries instead, so grid sweeps can
skip isolated bad points and count them.

Jet3 arithmetic is the reference.  Maps parsed by ``expressions`` evaluate
through an evaluator built once per map from the same outer-derivative
helpers and from ``rule`` / ``linear_rule`` below, which compile the
product and chain rules without the products a structural 0 or 1 makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import BranchPointOrPole, DivisionAtZero
from .numerics import is_scalar

# Magnitudes below this are treated as exact singular hits.  Chosen a
# few decades above double eps so that 1/(z-z0) style factors computed
# *near* a pole stay legal (they are merely large), while evaluation
# *at* the pole is refused.
SINGULAR_TOL = 1e-13

_CNAN = complex("nan+nanj")


def _guard(values, tol, exc, msg):
    """Return a bad-point mask for array input; raise for scalar input.

    ``None`` means nothing to patch.
    """
    try:
        mag = abs(values)
    except OverflowError:  # a Python complex beyond float range: far from zero
        return None
    if is_scalar(mag):
        # abs() of a Python complex and np.abs may differ in the last bit:
        # only a near tie needs np.abs, which decides as it always has
        if mag < 2.0 * tol and np.abs(values) < tol:
            raise exc(msg)
        return None
    bad = mag < tol
    return bad if bad.any() else None


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives of a map at one or many points."""

    v0: object
    v1: object
    v2: object
    v3: object

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = _as_jet(other)
        return Jet3(self.v0 + o.v0, self.v1 + o.v1, self.v2 + o.v2, self.v3 + o.v3)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet(other)
        return Jet3(self.v0 - o.v0, self.v1 - o.v1, self.v2 - o.v2, self.v3 - o.v3)

    def __rsub__(self, other):
        return _as_jet(other).__sub__(self)

    def __neg__(self):
        return Jet3(-self.v0, -self.v1, -self.v2, -self.v3)

    def __mul__(self, other):
        a, b = self, _as_jet(other)
        # Leibniz up to order 3.
        return Jet3(
            a.v0 * b.v0,
            a.v1 * b.v0 + a.v0 * b.v1,
            a.v2 * b.v0 + 2.0 * a.v1 * b.v1 + a.v0 * b.v2,
            a.v3 * b.v0 + 3.0 * a.v2 * b.v1 + 3.0 * a.v1 * b.v2 + a.v0 * b.v3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _as_jet(other).reciprocal()

    def __rtruediv__(self, other):
        return _as_jet(other) * self.reciprocal()

    def reciprocal(self) -> "Jet3":
        """Jet of 1/f; refuses f(z) = 0."""
        return _jet_of(reciprocal_outer, self, divide="ignore", invalid="ignore", over="ignore")


def _as_jet(x) -> Jet3:
    if isinstance(x, Jet3):
        return x
    # Plain numbers come in from expression constants and scalar algebra.
    return Jet3(complex(x), 0.0, 0.0, 0.0)


def variable(z) -> Jet3:
    """Seed jet for the identity map at z (scalar or complex array)."""
    if is_scalar(z):
        return Jet3(complex(z), 1.0, 0.0, 0.0)
    z = np.asarray(z, dtype=complex)
    return Jet3(z, np.ones_like(z), np.zeros_like(z), np.zeros_like(z))


def _compose(a: Jet3, g0, g1, g2, g3) -> Jet3:
    """Chain rule: outer derivatives g_k at a.v0, inner jet a."""
    a1, a2, a3 = a.v1, a.v2, a.v3
    return Jet3(
        g0,
        g1 * a1,
        g1 * a2 + g2 * a1 * a1,
        g1 * a3 + 3.0 * g2 * a1 * a2 + g3 * a1 * a1 * a1,
    )


def masked(values, mask) -> tuple:
    """NaN at the masked points of every component."""
    return tuple(np.where(mask, _CNAN, v) for v in values)


def _apply_mask(jet: Jet3, mask) -> Jet3:
    if mask is None:
        return jet
    return Jet3(*masked((jet.v0, jet.v1, jet.v2, jet.v3), mask))


# -- elementary functions ------------------------------------------------
#
# Each function is one "outer" helper: its derivatives (g0, g1, g2, g3) at
# x = a.v0 plus the singular-point guard, returned as ``(g, mask)``.  The
# jet_* functions below and the evaluator that ``expressions`` builds once
# per map both call these helpers, so every derivative formula exists once.
# The helpers enter no np.errstate: jet_* does that per function, the built
# evaluator once per array call.


def reciprocal_outer(x):
    """Outer helper of 1/x."""
    mask = _guard(x, SINGULAR_TOL, DivisionAtZero, "division by zero value")
    w = 1.0 / np.where(mask, 1.0, x) if mask is not None else 1.0 / x
    return (w, -w * w, 2.0 * w * w * w, -6.0 * w * w * w * w), mask


def _exp_outer(x):
    e = np.exp(x)
    return (e, e, e, e), None


def _log_outer(x):
    mask = _guard(x, SINGULAR_TOL, BranchPointOrPole, "log at zero")
    if mask is not None:
        x = np.where(mask, 1.0, x)
    w = 1.0 / x
    return (np.log(x), w, -w * w, 2.0 * w * w * w), mask


def _sqrt_outer(x):
    mask = _guard(x, SINGULAR_TOL, BranchPointOrPole, "sqrt at zero")
    if mask is not None:
        x = np.where(mask, 1.0, x)
    s = np.sqrt(x)
    s3 = s * s * s
    return (s, 0.5 / s, -0.25 / s3, 0.375 / (s3 * s * s)), mask


def _sin_outer(x):
    s, c = np.sin(x), np.cos(x)
    return (s, c, -s, -c), None


def _cos_outer(x):
    s, c = np.sin(x), np.cos(x)
    return (c, -s, -c, s), None


def _tan_outer(x):
    mask = _guard(np.cos(x), SINGULAR_TOL, BranchPointOrPole, "tan at a pole")
    t = np.tan(x)
    d1 = 1.0 + t * t
    return (t, d1, 2.0 * t * d1, d1 * (2.0 + 6.0 * t * t)), mask


def _cot_outer(x):
    s = np.sin(x)
    mask = _guard(s, SINGULAR_TOL, BranchPointOrPole, "cot at a pole")
    if mask is not None:
        s = np.where(mask, 1.0, s)
    c = np.cos(x) / s
    d1 = -(1.0 + c * c)
    return (c, d1, 2.0 * c * (1.0 + c * c), d1 * (2.0 + 6.0 * c * c)), mask


def pow_outer(c: float):
    """Outer helper of the principal power x^c (c real, not an integer)."""

    def outer(x):
        mask = _guard(x, SINGULAR_TOL, BranchPointOrPole, "non-integer power at zero")
        if mask is not None:
            x = np.where(mask, 1.0, x)
        g0 = np.power(x, c)
        g1 = c * g0 / x
        g2 = (c - 1.0) * g1 / x
        g3 = (c - 2.0) * g2 / x
        return (g0, g1, g2, g3), mask

    return outer


def _jet_of(outer, a: Jet3, **ignore) -> Jet3:
    with np.errstate(**ignore):
        g, mask = outer(a.v0)
        return _apply_mask(_compose(a, *g), mask)


def jet_exp(a: Jet3) -> Jet3:
    return _jet_of(_exp_outer, a)


def jet_log(a: Jet3) -> Jet3:
    """Principal branch; refuses the branch point f(z) = 0."""
    return _jet_of(_log_outer, a, divide="ignore", invalid="ignore")


def jet_sqrt(a: Jet3) -> Jet3:
    """Principal branch; refuses the branch point f(z) = 0."""
    return _jet_of(_sqrt_outer, a, divide="ignore", invalid="ignore")


def jet_sin(a: Jet3) -> Jet3:
    return _jet_of(_sin_outer, a)


def jet_cos(a: Jet3) -> Jet3:
    return _jet_of(_cos_outer, a)


def jet_tan(a: Jet3) -> Jet3:
    return _jet_of(_tan_outer, a, invalid="ignore", over="ignore")


def jet_cot(a: Jet3) -> Jet3:
    return _jet_of(_cot_outer, a, divide="ignore", invalid="ignore", over="ignore")


def jet_pow(a: Jet3, exponent: float) -> Jet3:
    """f^c for a real constant c.

    Integer exponents use repeated multiplication (no branch cut and legal
    at f = 0 when c >= 0); anything else is the principal power, which
    refuses f(z) = 0.
    """
    c = float(exponent)
    if c.is_integer():
        return _int_pow(a, int(c))
    return _jet_of(pow_outer(c), a, divide="ignore", invalid="ignore", over="ignore")


def _int_pow(a: Jet3, n: int) -> Jet3:
    if n < 0:
        return _int_pow(a, -n).reciprocal()
    result = _as_jet(1.0)
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


ELEMENTARY = {
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
    "sin": jet_sin,
    "cos": jet_cos,
    "tan": jet_tan,
    "cot": jet_cot,
}

# outer helpers by function name; GUARDED names those that guard a singular
# point, as reciprocal_outer and pow_outer do
OUTER = {
    "exp": _exp_outer,
    "log": _log_outer,
    "sqrt": _sqrt_outer,
    "sin": _sin_outer,
    "cos": _cos_outer,
    "tan": _tan_outer,
    "cot": _cot_outer,
}
GUARDED = frozenset({"log", "sqrt", "tan", "cot"})


# -- rules for built evaluators --------------------------------------------
#
# ``expressions`` builds one evaluator per map that works on plain 4-tuples
# (v0, v1, v2, v3).  At build time every tuple entry has a kind:
#
# * ONE or ZERO marks a derivative entry that is exactly 1 or 0 at every
#   input (the seed z -> (z, 1, 0, 0), constants, and what the rules make of
#   them).  The rules drop the terms a ZERO multiplies and the ONE factors,
#   so those products and sums never run.
# * The value entry v0 is never pruned: its signed zeros decide the branch of
#   a later log, sqrt or power.  A v0 may be ONE (a constant 1), which only
#   drops it as a factor of derivative terms.
# * NONFINITE marks an entry that is inf or NaN because a constant is (a
#   literal 1e309, exp(800)): 0 * inf is NaN, so a term with one is kept.
#
# Pruning keeps every remaining term and factor in the order the Jet3
# methods evaluate them, so the results equal the unpruned rules under ==.

VALUE, ZERO, ONE, NONFINITE = 0, 1, 2, 3

# (coefficient, factor indices) terms of each component, in the order
# Jet3.__mul__ and _compose evaluate them.  Indices address A + B for the
# product and G + A for the chain rule (G the outer derivatives).
_LEIBNIZ = (
    ((None, (0, 4)),),
    ((None, (1, 4)), (None, (0, 5))),
    ((None, (2, 4)), (2.0, (1, 5)), (None, (0, 6))),
    ((None, (3, 4)), (3.0, (2, 5)), (3.0, (1, 6)), (None, (0, 7))),
)
_CHAIN = (
    ((None, (0,)),),
    ((None, (1, 5)),),
    ((None, (1, 6)), (None, (2, 5, 5))),
    ((None, (1, 7)), (3.0, (2, 5, 6)), (None, (3, 5, 5, 5))),
)


def _const_fn(value):
    return lambda V: value


def _term_fn(c, idx):
    if not idx:
        return _const_fn(1.0 if c is None else c)
    if c is None:
        if len(idx) == 1:
            return itemgetter(idx[0])
        if len(idx) == 2:
            i, j = idx
            return lambda V: V[i] * V[j]
        if len(idx) == 3:
            i, j, k = idx
            return lambda V: V[i] * V[j] * V[k]
        i, j, k, m = idx
        return lambda V: V[i] * V[j] * V[k] * V[m]
    if len(idx) == 1:
        (i,) = idx
        return lambda V: c * V[i]
    if len(idx) == 2:
        i, j = idx
        return lambda V: c * V[i] * V[j]
    i, j, k = idx
    return lambda V: c * V[i] * V[j] * V[k]


def _sum_fn(terms):
    fns = [_term_fn(c, idx) for c, idx in terms]
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        f, g = fns
        return lambda V: f(V) + g(V)
    if len(fns) == 3:
        f, g, h = fns
        return lambda V: f(V) + g(V) + h(V)
    f, g, h, k = fns
    return lambda V: f(V) + g(V) + h(V) + k(V)


def _assemble(fns):
    f0, f1, f2, f3 = fns
    return lambda V: (f0(V), f1(V), f2(V), f3(V))


def _computed(indices, kinds):
    """Kind of an entry computed from the entries ``indices``."""
    return NONFINITE if any(kinds[i] == NONFINITE for i in indices) else VALUE


def _pruned(terms, kinds):
    """One derivative component's (V -> value, kind) from its terms."""
    kept = [
        (c, tuple(i for i in idx if kinds[i] != ONE))
        for c, idx in terms
        if all(kinds[i] != ZERO for i in idx) or any(kinds[i] == NONFINITE for i in idx)
    ]
    if not kept:
        return _const_fn(0.0), ZERO
    if len(kept) == 1 and kept[0][0] is None and len(kept[0][1]) < 2:
        if not kept[0][1]:
            return _const_fn(1.0), ONE
        i = kept[0][1][0]
        return itemgetter(i), kinds[i]
    return _sum_fn(kept), _computed([i for _, idx in kept for i in idx], kinds)


_RULES = {"product": _LEIBNIZ, "chain": _CHAIN}


@lru_cache(maxsize=None)
def rule(name, kinds):
    """Compile the "product" (Leibniz) or "chain" rule for inputs of the
    given kinds: -> (V -> 4-tuple, output kinds).  The value component is
    never pruned."""
    terms = _RULES[name]
    fn, out = [_sum_fn(terms[0])], [_computed([i for _, idx in terms[0] for i in idx], kinds)]
    for k in (1, 2, 3):
        f, kind = _pruned(terms[k], kinds)
        fn.append(f)
        out.append(kind)
    return _assemble(fn), tuple(out)


def _add_fn(i, j):
    return lambda V: V[i] + V[j]


def _sub_fn(i, j):
    return lambda V: V[i] - V[j]


def _neg_fn(i):
    return lambda V: -V[i]


@lru_cache(maxsize=None)
def linear_rule(op, kinds):
    """Compile a + b, a - b (V = A + B) or -a (V = A) componentwise."""
    fns, out = [], []
    for k in range(4):
        ka = kinds[k]
        if op == "neg":
            if k and ka == ZERO:
                fns.append(_const_fn(0.0))
                out.append(ZERO)
            else:
                fns.append(_neg_fn(k))
                out.append(_computed([k], kinds))
            continue
        kb = kinds[4 + k]
        a_zero, b_zero = k and ka == ZERO, k and kb == ZERO
        if (a_zero and b_zero) or (op == "-" and k and ka == kb == ONE):
            fns.append(_const_fn(0.0))
            out.append(ZERO)
        elif b_zero:
            fns.append(itemgetter(k))
            out.append(ka)
        elif a_zero and op == "+":
            fns.append(itemgetter(4 + k))
            out.append(kb)
        elif a_zero:
            fns.append(_neg_fn(4 + k))
            out.append(_computed([4 + k], kinds))
        else:
            fns.append((_add_fn if op == "+" else _sub_fn)(k, 4 + k))
            out.append(_computed([k, 4 + k], kinds))
    return _assemble(fns), tuple(out)
