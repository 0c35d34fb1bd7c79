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
through evaluators that ``compiler`` builds once per map from the same
outer-derivative helpers and from ``rule`` / ``linear_rule`` below,
which compile each product, chain and linear rule once, for the kinds of
its inputs and the order, to one expression over the input tuples without
the products a structural 0 or 1 makes; an integer power is the product
rules of ``_int_pow``'s repeated squaring.  A built jet of order n is the
tuple (f, f', ..., f^(n)) of n + 1 entries that those rules compute.  The
series evaluator uses the truncated Taylor series recurrences at the end
of this module, to any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BranchPointOrPole, DivisionAtZero

# Magnitudes below this are treated as exact singular hits.  Chosen a
# few decades above double eps so that 1/(z-z0) style factors computed
# *near* a pole stay legal (they are merely large), while evaluation
# *at* the pole is refused.
SINGULAR_TOL = 1e-13

_CNAN = complex("nan+nanj")


def near_zero(value, tol: float = SINGULAR_TOL) -> bool:
    """Whether the scalar ``value`` is an exact singular hit: |value| < tol."""
    try:
        mag = abs(value)
    except OverflowError:  # a Python complex beyond float range: far from zero
        return False
    # abs() of a Python complex and np.abs may differ in the last bit:
    # only a near tie needs np.abs, which decides as it always has
    return mag < 2.0 * tol and np.abs(value) < tol


def _guard(values, tol, exc, msg):
    """Return a bad-point mask for array input; raise for scalar input (the
    Jet3 walk's and the constant fold's).

    ``None`` means nothing to patch.
    """
    if not isinstance(values, np.ndarray):
        if near_zero(values, tol):
            raise exc(msg)
        return None
    bad = np.abs(values) < tol
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
    if np.ndim(z) == 0:
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
# jet_* functions below and the evaluators that ``compiler`` builds per map
# both call these helpers, so every derivative formula exists once.  A
# helper computes only the derivatives through ``order`` (the guard always),
# each by the same operations as at order 3; an entry above the order may be
# None.  The helpers enter no np.errstate: jet_* does that per function, the
# built evaluator once per array call.


def reciprocal_outer(x, order=3):
    """Outer helper of 1/x."""
    mask = _guard(x, SINGULAR_TOL, DivisionAtZero, "division by zero value")
    w = 1.0 / np.where(mask, 1.0, x) if mask is not None else 1.0 / x
    return (w,
            -w * w if order > 0 else None,
            2.0 * w * w * w if order > 1 else None,
            -6.0 * w * w * w * w if order > 2 else None), mask


def _exp_outer(x, order=3):
    e = np.exp(x)
    return (e, e, e, e), None


def _log_outer(x, order=3):
    mask = _guard(x, SINGULAR_TOL, BranchPointOrPole, "log at zero")
    if mask is not None:
        x = np.where(mask, 1.0, x)
    w = 1.0 / x if order > 0 else None
    return (np.log(x), w,
            -w * w if order > 1 else None,
            2.0 * w * w * w if order > 2 else None), mask


def _sqrt_outer(x, order=3):
    mask = _guard(x, SINGULAR_TOL, BranchPointOrPole, "sqrt at zero")
    if mask is not None:
        x = np.where(mask, 1.0, x)
    s = np.sqrt(x)
    s3 = s * s * s if order > 1 else None
    return (s,
            0.5 / s if order > 0 else None,
            -0.25 / s3 if order > 1 else None,
            0.375 / (s3 * s * s) if order > 2 else None), mask


def _sin_outer(x, order=3):
    s = np.sin(x)
    c = np.cos(x) if order > 0 else None
    return (s, c, -s if order > 1 else None, -c if order > 2 else None), None


def _cos_outer(x, order=3):
    c = np.cos(x)
    s = np.sin(x) if order > 0 else None
    return (c, -s if order > 0 else None, -c if order > 1 else None,
            s if order > 2 else None), None


def _tan_outer(x, order=3):
    mask = _guard(np.cos(x), SINGULAR_TOL, BranchPointOrPole, "tan at a pole")
    t = np.tan(x)
    d1 = 1.0 + t * t if order > 0 else None
    return (t, d1,
            2.0 * t * d1 if order > 1 else None,
            d1 * (2.0 + 6.0 * t * t) if order > 2 else None), mask


def _cot_outer(x, order=3):
    s = np.sin(x)
    mask = _guard(s, SINGULAR_TOL, BranchPointOrPole, "cot at a pole")
    if mask is not None:
        s = np.where(mask, 1.0, s)
    c = np.cos(x) / s
    d1 = -(1.0 + c * c) if order > 0 else None
    return (c, d1,
            2.0 * c * (1.0 + c * c) if order > 1 else None,
            d1 * (2.0 + 6.0 * c * c) if order > 2 else None), mask


def pow_outer(c: float):
    """Outer helper of the principal power x^c (c real, not an integer)."""

    def outer(x, order=3):
        mask = _guard(x, SINGULAR_TOL, BranchPointOrPole, "non-integer power at zero")
        if mask is not None:
            x = np.where(mask, 1.0, x)
        g0 = np.power(x, c)
        g1 = c * g0 / x if order > 0 else None
        g2 = (c - 1.0) * g1 / x if order > 1 else None
        g3 = (c - 2.0) * g2 / x if order > 2 else None
        return (g0, g1, g2, g3), mask

    return outer


def complex_arg(x):
    """``x`` as the argument of log, sqrt or a non-integer power: a negative
    real becomes complex, so that it takes the principal branch, not NaN.  A
    non-negative real keeps the real function, which is correctly rounded
    where the complex one (exp(c log x)) can be an ulp off; a complex x
    passes untouched: its signed zero picks the side of the cut.  Only
    constants arrive real-typed (the parser keeps real literals as floats),
    so the Jet3 walk and the constant fold convert, and the built
    evaluators' per-call path does not."""
    return x if np.iscomplexobj(x) or not x < 0.0 else complex(x)


def _jet_of(outer, a: Jet3, branched=False, **ignore) -> Jet3:
    with np.errstate(**ignore):
        g, mask = outer(complex_arg(a.v0) if branched else a.v0)
        return _apply_mask(_compose(a, *g), mask)


def jet_exp(a: Jet3) -> Jet3:
    return _jet_of(_exp_outer, a)


def jet_log(a: Jet3) -> Jet3:
    """Principal branch; refuses the branch point f(z) = 0."""
    return _jet_of(_log_outer, a, branched=True, divide="ignore", invalid="ignore")


def jet_sqrt(a: Jet3) -> Jet3:
    """Principal branch; refuses the branch point f(z) = 0."""
    return _jet_of(_sqrt_outer, a, branched=True, divide="ignore", invalid="ignore")


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
    return _jet_of(pow_outer(c), a, branched=True, divide="ignore", invalid="ignore",
                   over="ignore")


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
# point, as reciprocal_outer and pow_outer do, and BRANCHED those that take
# complex_arg, as pow_outer does
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
BRANCHED = frozenset({"log", "sqrt"})


# -- rules for built evaluators --------------------------------------------
#
# ``compiler`` builds evaluators per map that work on plain 4-tuples
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
# Each pruned rule is compiled once, for the kinds of its inputs, to one
# expression over the input tuples A and B: the product z * z, both inputs
# of kinds (VALUE, ONE, ZERO, ZERO), becomes
# ``lambda A, B: (A[0] * B[0], B[0] + A[0], 2.0, 0.0,)``.  It keeps every
# remaining term and factor in the order the Jet3 methods evaluate them (a
# coefficient first, products and sums left to right), so the results equal
# the unpruned rules under ==.  Its source holds only entry indices, the
# coefficients of the term tables and the literals 0.0 and 1.0; it reads
# nothing but its arguments.  A rule compiled for an order n < 3 is the
# same expression without the components above n, which no lower
# component reads: component k of a product or a chain reads only entries
# 0..k of its inputs.

VALUE, ZERO, ONE, NONFINITE = 0, 1, 2, 3

# (coefficient, factor indices) terms of each component, in the order
# Jet3.__mul__ and _compose evaluate them.  Index i addresses entry i of A
# below 4 and entry i - 4 of B from 4 on: A, B are the factors of the
# product, and the outer derivatives G and the inner jet of the chain rule.
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


def _entry(i):
    return f"{'AB'[i // 4]}[{i % 4}]"


def _term(c, idx):
    factors = ([] if c is None else [repr(c)]) + [_entry(i) for i in idx]
    return " * ".join(factors) or "1.0"


def _sum(terms):
    return " + ".join(_term(c, idx) for c, idx in terms)


def _compiled(args, components):
    """The function ``lambda args: (c0, ...)`` of the component sources."""
    return eval(f"lambda {args}: ({', '.join(components)},)", {"__builtins__": {}})


def _computed(indices, kinds):
    """Kind of an entry computed from the entries ``indices``."""
    return NONFINITE if any(kinds[i] == NONFINITE for i in indices) else VALUE


def _pruned(terms, kinds):
    """One derivative component's (source, kind) from its terms."""
    kept = [
        (c, tuple(i for i in idx if kinds[i] != ONE))
        for c, idx in terms
        if all(kinds[i] != ZERO for i in idx) or any(kinds[i] == NONFINITE for i in idx)
    ]
    if not kept:
        return "0.0", ZERO
    if len(kept) == 1 and kept[0][0] is None and len(kept[0][1]) < 2:
        if not kept[0][1]:
            return "1.0", ONE
        i = kept[0][1][0]
        return _entry(i), kinds[i]
    return _sum(kept), _computed([i for _, idx in kept for i in idx], kinds)


_RULES = {"product": _LEIBNIZ, "chain": _CHAIN}


@lru_cache(maxsize=None)
def rule(name, kinds, order=3):
    """Compile the "product" (Leibniz) or "chain" rule for input entries of
    the given kinds, A's four and then B's, to one expression:
    -> ((A, B) -> the components 0..order, the four output kinds).  The
    chain rule takes the outer derivatives as A and the inner jet as B.  The
    value component is never pruned."""
    terms = _RULES[name]
    src, out = [_sum(terms[0])], [_computed([i for _, idx in terms[0] for i in idx], kinds)]
    for k in (1, 2, 3):
        s, kind = _pruned(terms[k], kinds)
        src.append(s)
        out.append(kind)
    return _compiled("A, B", src[:order + 1]), tuple(out)


@lru_cache(maxsize=None)
def linear_rule(op, kinds, order=3):
    """Compile a + b, a - b ((A, B) -> components) or -a (A -> components)
    componentwise to one expression of the components 0..order, for input
    entries of the given kinds (four per input) -> (function, output kinds)."""
    src, out = [], []
    for k in range(4):
        ka = kinds[k]
        if op == "neg":
            if k and ka == ZERO:
                src.append("0.0")
                out.append(ZERO)
            else:
                src.append(f"-A[{k}]")
                out.append(_computed([k], kinds))
            continue
        kb = kinds[4 + k]
        a_zero, b_zero = k and ka == ZERO, k and kb == ZERO
        if (a_zero and b_zero) or (op == "-" and k and ka == kb == ONE):
            src.append("0.0")
            out.append(ZERO)
        elif b_zero:
            src.append(f"A[{k}]")
            out.append(ka)
        elif a_zero and op == "+":
            src.append(f"B[{k}]")
            out.append(kb)
        elif a_zero:
            src.append(f"-B[{k}]")
            out.append(_computed([4 + k], kinds))
        else:
            src.append(f"A[{k}] + B[{k}]" if op == "+" else f"A[{k}] - B[{k}]")
            out.append(_computed([k, 4 + k], kinds))
    return _compiled("A" if op == "neg" else "A, B", src[:order + 1]), tuple(out)


# -- truncated Taylor series ------------------------------------------------
#
# The series mode of the built evaluator works on complex coefficient arrays
# s with f(x0 + t) = sum_k s[k] t^k + O(t^(n+1)), n + 1 = len(s), about one
# real point x0.  The nonlinear kinds use the standard recurrences for
# truncated power series (Griewank & Walther, Evaluating Derivatives, 2nd
# ed., SIAM 2008, ch. 13): each new coefficient is a dot product with the
# ones before it.  Each guards the singular point its outer helper guards,
# with the same error, and every input holds at least the constant term.


def series_product(a, b):
    return np.convolve(a, b)[: a.size]


def series_int_pow(n: int):
    """a^n for an integer n >= 1 by repeated squaring, as _int_pow."""

    def pw(a):
        result, base, m = None, a, n
        while m:
            if m & 1:
                result = base if result is None else series_product(result, base)
            m >>= 1
            if m:
                base = series_product(base, base)
        return result

    return pw


def _weighted(a):
    """k * a[k], the coefficients of t * a'(t)."""
    return np.arange(a.size) * a


def series_reciprocal(a):
    if near_zero(a[0]):
        raise DivisionAtZero("division by zero value")
    r = np.empty_like(a)
    r[0] = 1.0 / a[0]
    for k in range(1, a.size):
        r[k] = -np.dot(a[1 : k + 1], r[k - 1 :: -1]) * r[0]
    return r


def _series_exp(a):
    e, ja = np.empty_like(a), _weighted(a)
    e[0] = np.exp(a[0])
    for k in range(1, a.size):
        e[k] = np.dot(ja[1 : k + 1], e[k - 1 :: -1]) / k
    return e


def _series_log(a):
    if near_zero(a[0]):
        raise BranchPointOrPole("log at zero")
    lg = np.empty_like(a)
    jl = np.zeros_like(a)  # k * lg[k], filled as lg grows
    lg[0] = np.log(a[0])
    for k in range(1, a.size):
        # a * lg' = a': k a0 lg_k = k a_k - sum_{j=1}^{k-1} a_j (k-j) lg_{k-j}
        lg[k] = (k * a[k] - np.dot(a[1:k], jl[k - 1 : 0 : -1])) / (k * a[0])
        jl[k] = k * lg[k]
    return lg


def _series_power(a, p0, c):
    """a^c from its value p0 = a0^c: a p' = c a' p, so
    k a0 p_k = sum_{j=1}^k ((c + 1) j - k) a_j p_{k-j}."""
    p, j = np.empty_like(a), np.arange(a.size)
    p[0] = p0
    for k in range(1, a.size):
        w = ((c + 1.0) * j[1 : k + 1] - k) * a[1 : k + 1]
        p[k] = np.dot(w, p[k - 1 :: -1]) / (k * a[0])
    return p


def series_pow(c: float):
    """The principal power a^c (c real, not an integer)."""

    def pw(a):
        if near_zero(a[0]):
            raise BranchPointOrPole("non-integer power at zero")
        return _series_power(a, np.power(a[0], c), c)

    return pw


def _series_sqrt(a):
    if near_zero(a[0]):
        raise BranchPointOrPole("sqrt at zero")
    return _series_power(a, np.sqrt(a[0]), 0.5)


def _sin_cos(a):
    s, c, ja = np.empty_like(a), np.empty_like(a), _weighted(a)
    s[0], c[0] = np.sin(a[0]), np.cos(a[0])
    for k in range(1, a.size):
        # s' = c a', c' = -s a'
        s[k] = np.dot(ja[1 : k + 1], c[k - 1 :: -1]) / k
        c[k] = -np.dot(ja[1 : k + 1], s[k - 1 :: -1]) / k
    return s, c


def _series_sin(a):
    return _sin_cos(a)[0]


def _series_cos(a):
    return _sin_cos(a)[1]


def _tan_like(a, t0, sign):
    """tan (sign 1) or cot (sign -1) from its value t0: t' = sign (1 + t^2) a'."""
    t, w, ja = np.empty_like(a), np.empty_like(a), _weighted(a)
    t[0] = t0
    w[0] = 1.0 + t0 * t0
    for k in range(1, a.size):
        t[k] = sign * np.dot(ja[1 : k + 1], w[k - 1 :: -1]) / k
        w[k] = np.dot(t[: k + 1], t[k::-1])
    return t


def _series_tan(a):
    if near_zero(np.cos(a[0])):
        raise BranchPointOrPole("tan at a pole")
    return _tan_like(a, np.tan(a[0]), 1.0)


def _series_cot(a):
    s = np.sin(a[0])
    if near_zero(s):
        raise BranchPointOrPole("cot at a pole")
    return _tan_like(a, np.cos(a[0]) / s, -1.0)


SERIES = {
    "exp": _series_exp,
    "log": _series_log,
    "sqrt": _series_sqrt,
    "sin": _series_sin,
    "cos": _series_cos,
    "tan": _series_tan,
    "cot": _series_cot,
}
