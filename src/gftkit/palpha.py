"""The positivity class route: y'' + q y = 0 on [0, 1).

A continuous q >= 0 belongs to the class of order alpha when the base
solution (y(0) = 0, y'(0) = 1) stays positive on (0, 1) and its
logarithmic slope y'/y keeps a boundary limit >= alpha.  The limit is
never read off at a single point: it is Richardson-extrapolated along
x_k = 1 - 2^-k, which converges because y'/y has an expansion in powers
of (1 - x) there.

Everything downstream (Schwarzian sufficiency, sharpness probes) reduces
to this one ODE, so the integrator settings here are deliberately tight.
The solve is a Taylor-series stepper (Jorba & Zou, Experimental Math. 14
(2005) 99-117): each step expands q about its left end (the expression's
series evaluator, or a table's linear piece), builds y's series by
(k+2)(k+1) y_{k+2} = -sum_j q_j y_{k-j}, and keeps it as the dense output.
Every step's q polynomial is checked against q itself at the step's middle
and end.  The solve stops at the first zero of y: no caller uses y past it,
and for large q it would pay for every later oscillation.  The q integral
makes one pass of the same q polynomials from 0 toward 1 and integrates
each exactly over the end segments it covers, so neither needs an
external ODE or quadrature library.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BranchPointOrPole,
    DivisionAtZero,
    ExtrapolationDiverged,
    NonnegativityViolated,
    QuadratureFailed,
    StepSizeUnderflow,
    TargetOutOfRange,
)
from .expressions import FunctionExpr, parse
from .numerics import bisect, richardson, unique_sorted

_NEG_TOL = -1e-12  # roundoff allowance before declaring q negative
_IMAG_TOL = 1e-12  # relative allowance for roundoff in Im q
# interior points where an expression q is screened once for Im q != 0
_PROBES = np.linspace(0.0, 1.0, 34)[1:-1]
_ORDER = 24  # Taylor order of y per step; q enters through order _ORDER - 2
# Chebyshev points of the first kind on (0, 1): they keep off a branch point
# at the step start
_CHEB = 0.5 - 0.5 * np.cos(np.pi * (np.arange(12) + 0.5) / 12)


def _screened(v: float, x) -> float:
    """A scalar q value through the nonnegativity screen."""
    if v < _NEG_TOL:
        raise NonnegativityViolated(f"q({x}) = {v} < 0")
    return v if v > 0.0 or v != v else 0.0  # as np.maximum: NaN stays, -0.0 -> 0.0


@dataclass(frozen=True)
class QFunction:
    """Continuous coefficient q >= 0 on [0, 1); constant, expression, or samples.

    Calls validate nonnegativity on every evaluated batch: a value below
    -1e-12 raises NonnegativityViolated, values inside the roundoff band
    clamp to zero, NaN passes through.  A scalar x takes a float-only path
    with the same checks and results.  An expression is screened once, at
    construction, on fixed probe points in (0, 1): ValueError if q takes a
    complex value there (|Im q| > 1e-12 max(1, |Re q|); non-finite values
    are skipped).  A constant or a table that is not finite is refused at
    construction (ValueError).
    """

    kind: str
    label: str
    _fn: object = field(repr=False, compare=False)
    _knots: object = field(default=None, repr=False, compare=False)  # a table's abscissae
    _series: object = field(default=None, repr=False, compare=False)  # (x0, n) -> coefficients

    @classmethod
    def constant(cls, c: float) -> "QFunction":
        c = float(c)
        if not math.isfinite(c):
            raise ValueError(f"constant q = {c} is not finite")
        if c < 0.0:
            raise NonnegativityViolated(f"constant q = {c} < 0")
        return cls("constant", repr(c), lambda x: np.full_like(np.asarray(x, float), c),
                   _series=lambda x0, n: np.array([c]))

    @classmethod
    def from_expression(cls, expr) -> "QFunction":
        e = expr if isinstance(expr, FunctionExpr) else parse(str(expr), variable="x")
        if e.variable != "x":
            raise ValueError("coefficient expressions use the variable x")
        with np.errstate(all="ignore"):
            v = np.asarray(e.value(_PROBES.astype(complex)), dtype=complex)
        v = np.broadcast_to(v, _PROBES.shape)  # a constant evaluates to a scalar
        if not np.isfinite(v).any():
            raise ValueError(f"coefficient {e} is not finite at any probe point of (0, 1)")
        bad = np.isfinite(v) & (np.abs(v.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(v.real)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"coefficient {e} is complex: q({_PROBES[i]:.6g}) = {v[i]:.6g}"
            )

        def fn(x):
            return np.real(e.value(np.asarray(x, float).astype(complex)))

        def series(x0, n):
            return e.series(x0, n).real

        return cls("expression", str(e), fn, _series=series)

    @classmethod
    def from_samples(cls, xs, values) -> "QFunction":
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
            raise ValueError("need matching 1-d sample arrays with >= 2 points")
        for what, a in (("abscissa", xs), ("value", vs)):
            finite = np.isfinite(a)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValueError(f"sample {what} {i} is {a[i]}, not finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if vs.min() < _NEG_TOL:
            raise NonnegativityViolated(f"sampled q dips to {vs.min()}")
        label = f"samples[{xs.size}] on [{xs[0]:g}, {xs[-1]:g}]"
        slopes = np.concatenate([[0.0], np.diff(vs) / np.diff(xs), [0.0]])

        def series(x0, n):  # the linear piece right of x0 (constant beyond the ends)
            i = int(np.searchsorted(xs, x0, side="right"))
            return np.array([np.interp(x0, xs, vs), slopes[i]])

        return cls("samples", label, lambda x: np.interp(np.asarray(x, float), xs, vs), xs,
                   series)

    def __call__(self, x):
        if np.ndim(x) == 0:
            return _screened(float(self._fn(x)), x)
        v = self._fn(x)
        vmin = float(np.min(v))
        if vmin < _NEG_TOL:
            raise NonnegativityViolated(f"q(...) = {vmin} < 0")
        return np.maximum(v, 0.0)

    def _reach(self, x0: float, x_end: float) -> float:
        """The end of the stretch right of x0 (up to x_end) on which q is one
        analytic piece: the next table knot, or x_end."""
        if self._knots is None:
            return x_end
        i = int(np.searchsorted(self._knots, x0, side="right"))
        return min(x_end, float(self._knots[i])) if i < self._knots.size else x_end

    def _piece(self, x0: float, h: float):
        """q right of x0 as real coefficients in t = x - x0, trailing zeros
        dropped, and the q evaluations spent.  The Taylor series through
        order _ORDER - 2 (a table's linear piece), one evaluation; where q
        has no series at x0 (x^0.5 at x = 0), the polynomial through q at
        Chebyshev points inside [x0, x0 + h], which holds for this h only."""
        try:
            c = np.asarray(self._series(x0, _ORDER - 2), dtype=float)
            c[0] = _screened(c[0], x0)
            spent = 1
        except (BranchPointOrPole, DivisionAtZero):
            c = np.linalg.solve(np.vander(_CHEB, increasing=True), self(x0 + h * _CHEB))
            c, spent = c / h ** np.arange(_CHEB.size), _CHEB.size
        nz = np.flatnonzero(c)
        return c[: nz[-1] + 1 if nz.size else 1], spent

    def _value(self, x: float) -> float:
        """q(x) through its series evaluator at order 0 (for an expression, a
        value-only evaluation), screened as a call is."""
        return _screened(float(self._series(x, 0)[0]), x)


def _horner(coef, t):
    """sum_k coef[k] t^k for a scalar or array t."""
    v = coef[-1] + 0.0 * t
    for c in coef[-2::-1]:
        v = v * t + c
    return v


def _agrees(q: QFunction, coef, x0: float, h: float, tol: float) -> bool:
    """Whether the q polynomial matches q itself at the step's middle and
    end: a mismatch d moves y' by about d * h * y over the step, so d * h
    must stay within tol of max(1, q)."""
    coef = coef.tolist()
    for t in (0.5 * h, h):
        qv = q._value(x0 + t)
        if not abs(_horner(coef, t) - qv) * h <= tol * max(1.0, qv):
            return False
    return True


def _q_step(coef, h: float, rel_tol: float) -> float:
    """A step no longer than h at which the last two terms of q's truncated
    series fall to rel_tol / 10 of max(1, q).  A trimmed series ends in
    zeros and gives no bound: whether it holds (a polynomial q) or not
    (x^200 at x = 0) is left to the check against q."""
    if coef.size < _ORDER - 1:
        return h
    eps = 0.1 * rel_tol * max(1.0, coef[0])
    for j in (_ORDER - 3, _ORDER - 2):
        if coef[j] != 0.0:
            h = min(h, (eps / abs(coef[j])) ** (1.0 / j))
    return h


def _halve(h: float, x0: float) -> float:
    h *= 0.5
    if h < 8.0 * np.spacing(max(1.0, abs(x0))):
        raise StepSizeUnderflow(f"no step from x = {x0!r} keeps the q polynomial on q")
    return h


def _y_series(qc, y0: float, y1: float) -> list:
    """Taylor coefficients of y through order _ORDER for y'' = -q y:
    (k+2)(k+1) y_{k+2} = -sum_j q_j y_{k-j}."""
    ys = [y0, y1]
    qc = qc.tolist()
    m = len(qc)
    for k in range(_ORDER - 1):
        s = 0.0
        for j in range(min(k + 1, m)):
            s += qc[j] * ys[k - j]
        ys.append(-s / ((k + 2) * (k + 1)))
    return ys


def _y_step(ys: list, h: float, eps: float) -> float:
    """A step no longer than h whose truncated terms stay below eps times
    the step's scale s = |y0| + h |y1|: h = rho * eps^(1/_ORDER), with the
    radius of convergence rho estimated as min_j (s / |y_j|)^(1/j) over the
    last _ORDER/2 coefficients.  Reading that many, not only the last two,
    sees through the gaps of y's series where q (nearly) vanishes at the
    step start: q = 0.06 + 7x at x = 0 makes every third coefficient ~1e3
    times the other two."""
    window = range(_ORDER // 2, _ORDER + 1)
    shrink = eps ** (1.0 / _ORDER)
    for _ in range(2):  # the scale shrinks with h: one more pass tightens it
        scale = abs(ys[0]) + h * abs(ys[1])
        for j in window:
            if ys[j] != 0.0:
                h = min(h, shrink * (scale / abs(ys[j])) ** (1.0 / j))
    return h


def _first_root(ys: list, h: float, y_end: float) -> float:
    """The one root in (0, h] of a step polynomial that goes from y(0) > 0
    to y(h) = y_end <= 0: Newton's method, kept inside a shrinking bracket."""
    lo, hi = 0.0, h
    t = h * ys[0] / (ys[0] - y_end)
    for _ in range(100):
        v, d = ys[-1], 0.0
        for a in ys[-2::-1]:
            d = d * t + v
            v = v * t + a
        if v > 0.0:
            lo = t
        else:
            hi = t
        step = v / d if d != 0.0 else math.inf
        new = t - step
        if not (lo < new < hi):
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 2.0 * np.spacing(t) or hi - lo <= 2.0 * np.spacing(hi):
            return new
        t = new
    return t


@dataclass(frozen=True)
class OdeSolution:
    """Dense base solution of y'' + q y = 0, y(0) = 0, y'(0) = 1.

    The solve ends at 1 - eps_end, or earlier at ``first_zero``, the first
    x > 0 with y = 0 (None when y stays positive).  ``nodes`` are the
    reporting nodes up to that end; ``at`` refuses points past it.
    ``n_rhs`` counts the points at which the stepper evaluated q: one per
    Taylor expansion (twelve per interpolant where q has no series) and the
    two check points of every tried step.
    """

    nodes: np.ndarray
    eps_end: float
    rel_tol: float
    n_rhs: int
    first_zero: object  # float or None
    dense: object = field(repr=False, compare=False)

    def at(self, x):
        """(y, y') anywhere in [0, end], end = first_zero or 1 - eps_end,
        from the step polynomials; ValueError outside, where they would
        silently extrapolate."""
        x_arr = np.asarray(x, dtype=float)
        end = 1.0 - self.eps_end if self.first_zero is None else self.first_zero
        if np.any((x_arr < 0.0) | (x_arr > end)):
            raise ValueError(f"x outside the solved span [0, {end!r}]")
        out = self.dense(x_arr)
        if np.ndim(x) == 0:
            return float(out[0]), float(out[1])
        return out[0], out[1]

    def log_slope(self, x):
        y, yp = self.at(x)
        return yp / y


@lru_cache(maxsize=8)
def _reporting_nodes(eps_end: float) -> np.ndarray:
    """>= 512 fixed nodes on [0, 1 - eps_end], geometrically clustered at
    the right end; read-only, because every solve to that eps_end shares
    the one array."""
    base = np.linspace(0.0, 1.0 - eps_end, 385)
    tail = 1.0 - np.geomspace(0.5, eps_end, 161)
    nodes = unique_sorted(base, tail)
    nodes.flags.writeable = False
    return nodes


def _dense(starts, polys):
    """(y, y') at x from the step polynomials: one gather and one Horner
    pass over every requested point."""
    starts = np.asarray(starts)
    Y = np.array(polys)
    D = Y[:, 1:] * np.arange(1, Y.shape[1])

    def dense(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(starts, x, side="right") - 1, 0, starts.size - 1)
        t = x - starts[i]
        return np.array([_horner(Y[i].T, t), _horner(D[i].T, t)])

    return dense


def integrate_ivp(q: QFunction, eps_end: float = 1e-6, rel_tol: float = 1e-10) -> OdeSolution:
    """Integrate the base solution out to x = 1 - eps_end, or to the first
    zero of y if that comes first.

    Each Taylor step is as long as the decay of q's and y's coefficients
    allows at rel_tol (see _q_step, _y_step), ends at a table knot, and
    spans less than pi / sqrt(max |q|), so by Sturm's comparison it holds
    at most one zero of y.  A step whose q polynomial misses q at its
    middle or end is halved.  The first zero is the root of the step
    polynomial where y changes sign, polished by Newton's method, and
    reported as ``first_zero``.  Fixed reporting nodes (>= 512 on the full
    span, geometrically clustered at the right end) make downstream scans
    reproducible, and q is screened for negative values on them.  The
    solve evaluates nothing on them: ``at`` reads y and y' from the step
    polynomials wherever a caller asks.
    """
    if not (1e-8 <= eps_end <= 1e-2):
        raise ValueError(f"eps_end must lie in [1e-8, 1e-2], got {eps_end}")
    if rel_tol > 1e-8:
        raise ValueError(f"rel_tol must be <= 1e-8, got {rel_tol}")
    x_end = 1.0 - eps_end
    eps = rel_tol / _ORDER  # y' carries ~_ORDER times y's truncation error
    starts, polys, n_q = [], [], 0
    x0, y0, y1, first_zero = 0.0, 0.0, 1.0, None
    while x0 < x_end:
        x1 = q._reach(x0, x_end)
        h = x1 - x0
        while True:
            coef, spent = q._piece(x0, h)
            ys = _y_series(coef, y0, y1)
            h = _y_step(ys, _q_step(coef, h, rel_tol), eps)
            bound = float(np.sum(np.abs(coef) * h ** np.arange(coef.size)))
            if bound > 0.0:  # Sturm: zeros of y lie >= pi / sqrt(max q) apart
                h = min(h, 0.9 * math.pi / math.sqrt(bound))
            n_q += spent + 2
            while not _agrees(q, coef, x0, h, rel_tol):
                h = _halve(h, x0)
                if spent > 1:  # an interpolant holds for its own h only: refit
                    break
                n_q += 2
            else:
                break
        x_next = x1 if x0 + h >= x1 else x0 + h
        h = x_next - x0
        starts.append(x0)
        polys.append(ys)
        y_end = _horner(ys, h)
        if y_end <= 0.0:
            first_zero = x0 + _first_root(ys, h, y_end)
            break
        y1 = _horner([k * c for k, c in enumerate(ys)][1:], h)
        x0, y0 = x_next, y_end

    nodes = _reporting_nodes(eps_end)
    if first_zero is not None:
        nodes = nodes[nodes < first_zero]
    q(nodes)  # the nonnegativity screen on every reporting node
    return OdeSolution(
        nodes=nodes,
        eps_end=eps_end,
        rel_tol=rel_tol,
        n_rhs=n_q,
        first_zero=first_zero,
        dense=_dense(starts, polys),
    )


@dataclass(frozen=True)
class PalphaVerdict:
    alpha: float
    member: bool
    positive_on_01: bool
    first_zero: object  # float or None
    limit_estimate: float
    extrapolants: tuple
    raw_tail: tuple
    eps_end: float
    tol: float
    n_rhs: int


_LADDER_SETTLE = 1e-5


def _boundary_limit(sol: OdeSolution):
    """(limit, extrapolants, raw ladder) of y'/y at x -> 1 from a positive
    solution: Richardson along x_k = 1 - 2^-k, k = 7..20 (or as far as
    eps_end allows); ValueError if fewer than three rungs fit (eps_end >
    2^-10), ExtrapolationDiverged carrying the raw tail if the last three
    extrapolants disagree beyond 1e-5."""
    k_max = min(20, int(math.floor(-math.log2(sol.eps_end))) - 1)
    ks = np.arange(7, k_max + 1)
    if ks.size < 3:
        raise ValueError(
            f"eps_end = {sol.eps_end!r} leaves the boundary ladder x_k = 1 - 2^-k (k >= 7) "
            f"{ks.size} of the 3 rungs it needs; use eps_end <= 2^-10"
        )
    raw = tuple(float(v) for v in sol.log_slope(1.0 - np.power(2.0, -ks.astype(float))))
    diag = richardson(raw, ratio=2.0)
    if not (
        abs(diag[-1] - diag[-2]) <= _LADDER_SETTLE
        and abs(diag[-2] - diag[-3]) <= _LADDER_SETTLE
    ):
        raise ExtrapolationDiverged(
            "boundary limit of y'/y did not settle to 1e-5", tail=raw[-5:]
        )
    return float(diag[-1]), tuple(float(d) for d in diag), raw


def check_palpha(
    q: QFunction,
    alpha: float,
    eps_end: float = 2.0**-21,
    rel_tol: float = 1e-10,
    tol: float = 1e-6,
) -> PalphaVerdict:
    """Membership verdict for the positivity class of order alpha.

    Positivity and the first zero (if any) come from the solve itself,
    which stops there (see integrate_ivp).  The boundary limit of y'/y is
    extrapolated from the ladder x_k = 1 - 2^-k, k = 7..20 (or as far as
    eps_end allows; ValueError if fewer than three rungs fit, eps_end >
    2^-10); ExtrapolationDiverged carries the raw tail if the last three
    extrapolants disagree beyond 1e-5.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    sol = integrate_ivp(q, eps_end=eps_end, rel_tol=rel_tol)
    positive = sol.first_zero is None
    limit, extrapolants, raw = math.nan, (), ()
    if positive:
        limit, extrapolants, raw = _boundary_limit(sol)

    member = positive and limit >= alpha - tol
    return PalphaVerdict(
        alpha=alpha,
        member=member,
        positive_on_01=positive,
        first_zero=sol.first_zero,
        limit_estimate=limit,
        extrapolants=extrapolants,
        raw_tail=raw,
        eps_end=eps_end,
        tol=tol,
        n_rhs=sol.n_rhs,
    )


def _q_integral_step(q: QFunction, x0: float, rel_tol: float):
    """One step of the q integral from x0 toward 1, sized as in
    integrate_ivp (without y): the antiderivative coefficients of its q
    polynomial, in t = x - x0, and the step's end."""
    h = 1.0 - x0
    coef, spent = q._piece(x0, h)
    h = _q_step(coef, h, rel_tol)
    try:
        while not _agrees(q, coef, x0, h, rel_tol):
            h = _halve(h, x0)
            if spent > 1:
                coef = q._piece(x0, h)[0]
    except (BranchPointOrPole, DivisionAtZero) as exc:
        x = float(x0 + 0.5 * h)  # _agrees reads q at the step's middle, then at its end
        with contextlib.suppress(BranchPointOrPole, DivisionAtZero):
            q._value(x)
            x = float(x0 + h)
        raise QuadratureFailed(f"q = {q.label} cannot be evaluated at x = {x!r}: {exc}") from exc
    return [c / (j + 1) for j, c in enumerate(coef.tolist())], min(x0 + h, 1.0)


def _mass(a, t1: float, t2: float) -> float:
    """sum_j a_j (t2^(j+1) - t1^(j+1)), the integral over [t1, t2] of a
    step polynomial with antiderivative coefficients a.  For t1 > 0 it is
    (t2 - t1) sum_j a_j S_j, S_j = t1 S_(j-1) + t2^j, S_0 = 1: no
    difference of nearly equal powers, so no cancellation."""
    if t1 == 0.0:
        return t2 * _horner(a, t2)
    s, p, acc = 1.0, 1.0, a[0]
    for c in a[1:]:
        p *= t2
        s = t1 * s + p
        acc += c * s
    return (t2 - t1) * acc


def integrate_q(q: QFunction) -> float:
    """Integral of q over [0, 1), to 1e-10 absolute.

    A sample table is piecewise linear, with np.interp's constant ends
    outside its knots, so its integral is the exact trapezoid sum over the
    knots inside (0, 1) and the ends 0, 1.  Other q are stepped once from
    0 toward 1, each step's q polynomial checked against q as in
    integrate_ivp, and integrated exactly over geometric end segments:
    [0, 1/2], then segments [1-2^-(k-1), 1-2^-k] marching toward 1 until
    two consecutive segments have decayed below the cutoff; a single small
    segment is not enough, because weights like (n+1) x^n hide their mass
    many halvings past 1/2.  Steps run across the segment marks: a
    segment's mass is read from the step polynomials that cover it.
    Raises QuadratureFailed if the segments have not decayed by k = 60.
    """
    if q._knots is not None:
        xs = q._knots
        pts = np.concatenate([[0.0], xs[(xs > 0.0) & (xs < 1.0)], [1.0]])
        return float(np.trapezoid(q(pts), pts))

    cutoff = 1e-10 / 10.0  # a tenth of the 1e-10 the result is good to
    total, prev = 0.0, math.inf
    a = x0 = x1 = 0.0  # a walks the segment, [x0, x1] is the step under it
    for k in range(1, 61):
        b = 1.0 - 2.0**-k
        seg = 0.0
        while a < b:
            if a == x1:
                x0 = x1
                poly, x1 = _q_integral_step(q, x0, 1e-12)
            end = min(x1, b)
            seg += _mass(poly, a - x0, end - x0)
            a = end
        total += seg
        if k == 1:  # [0, 1/2] is no end segment
            continue
        if abs(seg) < cutoff and prev < cutoff and abs(seg) <= prev:
            return float(total)
        prev = abs(seg)
    raise QuadratureFailed("end segments of the q integral did not decay by k = 60")


@dataclass(frozen=True)
class IntegralCheck:
    integral: float
    bound: float
    satisfied: bool
    implied_order: float


def integral_criterion(q: QFunction, c: float) -> IntegralCheck:
    """Sufficient condition: integral of q <= c (c <= 1) puts q in every
    positivity class of order alpha <= 1 - c; the integral is integrate_q's,
    to 1e-10 absolute."""
    c = float(c)
    if not (0.0 <= c <= 1.0):
        raise ValueError(f"the bound c must lie in [0, 1], got {c}")
    total = integrate_q(q)
    return IntegralCheck(
        integral=total,
        bound=c,
        satisfied=bool(total <= c + 1e-10),
        implied_order=1.0 - c,
    )


def constant_solver(target_limit: float) -> float:
    """The constant c whose base solution sin(sqrt(c) x)/sqrt(c) has
    boundary log-slope exactly target_limit: solves sqrt(c) cot(sqrt(c)) =
    target_limit on (0, pi/2)."""
    L = float(target_limit)
    if not (0.0 < L < 1.0):
        raise TargetOutOfRange(f"target limit must lie in (0, 1), got {L}")
    t = bisect(
        lambda t: t / math.tan(t) - L, 1e-9, math.pi / 2.0 - 1e-12, xtol=1e-15
    )
    return t * t


@dataclass(frozen=True)
class SharpnessResult:
    """Search for a convexity breakdown point of the monomial coefficient
    q(x) = (1-beta)(n+1) x^n.

    ``found`` would report an x0 in the span with x0 y'(x0)/y(x0) <= beta
    (convexity value 1 - 2 x y'/y >= 1 - 2 beta); the infimum diagnostics
    are always recorded.

    No such x0 exists, for any n, so ``found`` is always False: q >= 0
    gives y <= x and a decreasing y', so y > 0 and

        x y'/y >= y'(1) >= 1 - int_0^1 q(x) x dx = beta + (1-beta)/(n+2),

    strictly above beta; ``floor`` records that certified bound.  The
    construction shows beta is sharp only in the limit n -> oo (at
    n = 200, beta = 0.4: floor 0.402970, boundary limit 0.405038);
    min_ratio and limit_estimate show how close it gets, and
    floor <= limit_estimate <= min_ratio.  This is why ``gftkit
    sharpness`` exits 1.
    """

    n: int
    beta: float
    q: QFunction
    found: bool
    min_ratio: float
    argmin_x: float
    limit_estimate: float
    eps_end: float
    floor: float


def sharpness_construct(n: int, beta: float, eps_end: float = 1e-6) -> SharpnessResult:
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    coeff = (1.0 - beta) * (n + 1)
    q = QFunction.from_expression(f"{coeff!r}*x^{int(n)}")
    # one solve, at rel_tol 1e-10, serves the scan (on the reporting nodes of
    # an eps_end solve) and the boundary limit (on check_palpha's ladder)
    sol = integrate_ivp(q, eps_end=min(eps_end, 2.0**-21), rel_tol=1e-10)

    # no crossing to search for: y >= floor * x > 0 and x y'/y >= floor > beta
    xs = _reporting_nodes(eps_end)[1:]
    y, yp = sol.at(xs)
    ratios = xs * yp / y
    i_min = int(np.argmin(ratios))

    # boundary limit for the diagnostics; tolerate a non-settling ladder
    try:
        limit = _boundary_limit(sol)[0]
    except ExtrapolationDiverged:
        limit = math.nan

    return SharpnessResult(
        n=int(n),
        beta=float(beta),
        q=q,
        found=False,
        min_ratio=float(ratios[i_min]),
        argmin_x=float(xs[i_min]),
        limit_estimate=limit,
        eps_end=eps_end,
        floor=float(beta) + (1.0 - beta) / (n + 2),
    )
