"""The positivity class route: y'' + q y = 0 on [0, 1).

A continuous q >= 0 belongs to the class of order alpha when the base
solution (y(0) = 0, y'(0) = 1) stays positive on (0, 1) and its
logarithmic slope y'/y keeps a boundary limit >= alpha.  The limit is
never read off at a single point: it is Richardson-extrapolated along
x_k = 1 - 2^-k, which converges because y'/y has an expansion in powers
of (1 - x) there.

Everything downstream (Schwarzian sufficiency, sharpness probes) reduces
to this one ODE, so the integrator settings here are deliberately tight.
The solve stops at the first zero of y: no caller uses y past it, and
for large q it would pay for every later oscillation.

scipy.integrate is imported inside integrate_ivp and integrate_q (and
rays._solve_rays), on first use: it is most of the package's import
time, and the grid-only routes never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ExtrapolationDiverged,
    NonnegativityViolated,
    QuadratureFailed,
    StepSizeUnderflow,
    TargetOutOfRange,
)
from .expressions import FunctionExpr, parse
from .numerics import bisect, is_scalar, richardson

_NEG_TOL = -1e-12  # roundoff allowance before declaring q negative
_IMAG_TOL = 1e-12  # relative allowance for roundoff in Im q
# interior points where an expression q is screened once for Im q != 0
_PROBES = np.linspace(0.0, 1.0, 34)[1:-1]


@dataclass(frozen=True)
class QFunction:
    """Continuous coefficient q >= 0 on [0, 1); constant, expression, or samples.

    Calls validate nonnegativity on every evaluated batch: a value below
    -1e-12 raises NonnegativityViolated, values inside the roundoff band
    clamp to zero, NaN passes through.  A scalar x takes a float-only path
    with the same checks and results (the ODE right-hand side and quad
    call q one point at a time).  An expression is screened once, at
    construction, on fixed probe points in (0, 1): ValueError if q takes a
    complex value there (|Im q| > 1e-12 max(1, |Re q|); non-finite values
    are skipped).
    """

    kind: str
    label: str
    _fn: object = field(repr=False, compare=False)
    _knots: object = field(default=None, repr=False, compare=False)  # a table's abscissae

    @classmethod
    def constant(cls, c: float) -> "QFunction":
        c = float(c)
        if c < 0.0:
            raise NonnegativityViolated(f"constant q = {c} < 0")
        return cls("constant", repr(c), lambda x: np.full_like(np.asarray(x, float), c))

    @classmethod
    def from_expression(cls, expr) -> "QFunction":
        e = expr if isinstance(expr, FunctionExpr) else parse(str(expr), variable="x")
        if e.variable != "x":
            raise ValueError("coefficient expressions use the variable x")
        with np.errstate(all="ignore"):
            v = np.asarray(e.value(_PROBES.astype(complex)), dtype=complex)
        v = np.broadcast_to(v, _PROBES.shape)  # a constant evaluates to a scalar
        bad = np.isfinite(v) & (np.abs(v.imag) > _IMAG_TOL * np.maximum(1.0, np.abs(v.real)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"coefficient {e} is complex: q({_PROBES[i]:.6g}) = {v[i]:.6g}"
            )

        def fn(x):
            return np.real(e.value(np.asarray(x, float).astype(complex)))

        return cls("expression", str(e), fn)

    @classmethod
    def from_samples(cls, xs, values) -> "QFunction":
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
            raise ValueError("need matching 1-d sample arrays with >= 2 points")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if vs.min() < _NEG_TOL:
            raise NonnegativityViolated(f"sampled q dips to {vs.min()}")
        label = f"samples[{xs.size}] on [{xs[0]:g}, {xs[-1]:g}]"
        return cls("samples", label, lambda x: np.interp(np.asarray(x, float), xs, vs), xs)

    def __call__(self, x):
        if is_scalar(x):
            v = float(self._fn(x))
            if v < _NEG_TOL:
                raise NonnegativityViolated(f"q({x}) = {v} < 0")
            return v if v > 0.0 or v != v else 0.0  # as np.maximum: NaN stays, -0.0 -> 0.0
        v = self._fn(x)
        vmin = float(np.min(v))
        if vmin < _NEG_TOL:
            raise NonnegativityViolated(f"q(...) = {vmin} < 0")
        return np.maximum(v, 0.0)


@dataclass(frozen=True)
class OdeSolution:
    """Dense base solution of y'' + q y = 0, y(0) = 0, y'(0) = 1.

    The solve ends at 1 - eps_end, or earlier at ``first_zero``, the first
    x > 0 with y = 0 (None when y stays positive).  ``nodes`` are the
    reporting nodes up to that end; ``at`` refuses points past it.
    """

    nodes: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    eps_end: float
    rel_tol: float
    n_rhs: int
    first_zero: object  # float or None
    dense: object = field(repr=False, compare=False)

    def at(self, x):
        """(y, y') anywhere in [0, end], end = first_zero or 1 - eps_end,
        from the dense interpolant; ValueError outside, where it would
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


def integrate_ivp(
    q: QFunction,
    eps_end: float = 1e-6,
    rel_tol: float = 1e-10,
    max_step: float = np.inf,
) -> OdeSolution:
    """Integrate the base solution out to x = 1 - eps_end, or to the first
    zero of y if that comes first.

    The zero is a terminal event on y (direction -1), located on the
    dense interpolant to roundoff and reported as ``first_zero``; the
    event does not change the steps, so a positive solution is the same
    as without it.  Fixed reporting nodes (>= 512 on the full span,
    geometrically clustered at the right end) make downstream scans
    reproducible; the dense interpolant covers everything in between.
    Cap ``max_step`` when downstream math differentiates the dense output
    (the free interpolant loses accuracy on very long steps).
    """
    if not (1e-8 <= eps_end <= 1e-2):
        raise ValueError(f"eps_end must lie in [1e-8, 1e-2], got {eps_end}")
    if rel_tol > 1e-8:
        raise ValueError(f"rel_tol must be <= 1e-8, got {rel_tol}")
    from scipy.integrate import solve_ivp

    x_end = 1.0 - eps_end
    base = np.linspace(0.0, x_end, 385)
    tail = 1.0 - np.geomspace(0.5, eps_end, 161)
    nodes = np.unique(np.concatenate([base, tail]))

    def rhs(x, s):
        return (s[1], -q(x) * s[0])

    def y_vanishes(x, s):
        return s[0]

    y_vanishes.terminal = True
    y_vanishes.direction = -1.0  # y(0) = 0 on the way up is no event

    sol = solve_ivp(
        rhs,
        (0.0, x_end),
        [0.0, 1.0],
        method="DOP853",
        rtol=rel_tol,
        atol=1e-14,
        dense_output=True,
        t_eval=nodes,
        events=y_vanishes,
        max_step=max_step,
    )
    if not sol.success:
        raise StepSizeUnderflow(f"integrator stopped: {sol.message}")
    zeros = sol.t_events[0]
    return OdeSolution(
        nodes=sol.t,
        y=sol.y[0],
        yp=sol.y[1],
        eps_end=eps_end,
        rel_tol=rel_tol,
        n_rhs=int(sol.nfev),
        first_zero=float(zeros[0]) if zeros.size else None,
        dense=sol.sol,
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

    def member_at(self, alpha: float) -> bool:
        return self.positive_on_01 and self.limit_estimate >= alpha - self.tol


_LADDER_SETTLE = 1e-5


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
    eps_end allows); ExtrapolationDiverged carries the raw tail if the
    last three extrapolants disagree beyond 1e-5.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    sol = integrate_ivp(q, eps_end=eps_end, rel_tol=rel_tol)
    positive = sol.first_zero is None
    limit = math.nan
    extrapolants = ()
    raw = ()
    if positive:
        k_max = min(20, int(math.floor(-math.log2(eps_end))) - 1)
        ks = np.arange(7, k_max + 1)
        xs = 1.0 - np.power(2.0, -ks.astype(float))
        raw = tuple(float(sol.log_slope(x)) for x in xs)
        diag = richardson(raw, ratio=2.0)
        extrapolants = tuple(float(d) for d in diag)
        if len(diag) < 3 or not (
            abs(diag[-1] - diag[-2]) <= _LADDER_SETTLE
            and abs(diag[-2] - diag[-3]) <= _LADDER_SETTLE
        ):
            raise ExtrapolationDiverged(
                "boundary limit of y'/y did not settle to 1e-5", tail=raw[-5:]
            )
        limit = float(diag[-1])

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


def integrate_q(q: QFunction, abs_tol: float = 1e-10) -> float:
    """Integral of q over [0, 1).

    A sample table is piecewise linear, with np.interp's constant ends
    outside its knots, so its integral is the exact trapezoid sum over the
    knots inside (0, 1) and the ends 0, 1.  Other q are adaptive with
    geometric end segments: [0, 1/2] in one adaptive pass, then segments
    [1-2^-k, 1-2^-(k-1)] marching toward 1 until two consecutive segments
    have decayed below the cutoff; a single small segment is not enough,
    because weights like (n+1) x^n hide their mass many halvings past 1/2.
    Raises QuadratureFailed if the segments have not decayed by k = 60.
    """
    if q._knots is not None:
        xs = q._knots
        pts = np.concatenate([[0.0], xs[(xs > 0.0) & (xs < 1.0)], [1.0]])
        return float(np.trapezoid(q(pts), pts))

    from scipy.integrate import quad

    total, _ = quad(q, 0.0, 0.5, epsabs=abs_tol / 10.0, epsrel=1e-12, limit=200)
    cutoff = max(abs_tol / 10.0, 1e-16)
    prev = math.inf
    for k in range(2, 61):
        a, b = 1.0 - 2.0 ** -(k - 1), 1.0 - 2.0**-k
        seg, _ = quad(q, a, b, epsabs=cutoff / 4.0, epsrel=1e-12, limit=200)
        total += seg
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


def integral_criterion(q: QFunction, c: float, abs_tol: float = 1e-10) -> IntegralCheck:
    """Sufficient condition: integral of q <= c (c <= 1) puts q in every
    positivity class of order alpha <= 1 - c."""
    c = float(c)
    if not (0.0 <= c <= 1.0):
        raise ValueError(f"the bound c must lie in [0, 1], got {c}")
    total = integrate_q(q, abs_tol=abs_tol)
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

    ``found`` and ``x0``, ``ratio_at_x0``, ``convexity_value`` would report
    an x0 in the span with x0 y'(x0)/y(x0) <= beta (convexity value
    1 - 2 x y'/y >= 1 - 2 beta); the infimum diagnostics are always recorded.

    No such x0 exists, for any n, so ``found`` is always False and the x0
    fields are None: q >= 0 gives y <= x and a decreasing y', so y > 0 and

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
    x0: object  # float or None
    ratio_at_x0: object
    convexity_value: object
    min_ratio: float
    argmin_x: float
    limit_estimate: float
    eps_end: float
    floor: float


def sharpness_construct(
    n: int, beta: float, eps_end: float = 1e-6, rel_tol: float = 1e-10
) -> SharpnessResult:
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    coeff = (1.0 - beta) * (n + 1)
    q = QFunction.from_expression(f"{coeff!r}*x^{int(n)}")
    sol = integrate_ivp(q, eps_end=eps_end, rel_tol=rel_tol)

    # no crossing to search for: y >= floor * x > 0 and x y'/y >= floor > beta
    xs = sol.nodes[1:]
    ratios = xs * sol.yp[1:] / sol.y[1:]
    i_min = int(np.argmin(ratios))

    # boundary limit for the diagnostics; tolerate a non-settling ladder
    try:
        limit = check_palpha(q, 0.0, rel_tol=rel_tol).limit_estimate
    except ExtrapolationDiverged:
        limit = math.nan

    return SharpnessResult(
        n=int(n),
        beta=float(beta),
        q=q,
        found=False,
        x0=None,
        ratio_at_x0=None,
        convexity_value=None,
        min_ratio=float(ratios[i_min]),
        argmin_x=float(xs[i_min]),
        limit_estimate=limit,
        eps_end=eps_end,
        floor=float(beta) + (1.0 - beta) / (n + 2),
    )
