"""Radial factorization route: f = u/v with v'' + p v = 0, p = S_f / 2.

Along each ray z = e^{i theta} t the two normalized solutions
(v(0) = 0, v'(0) = 1 and u(0) = 1, u'(0) = 0) satisfy the ODE
w_tt = -e^{2 i theta} p(z) w in the distance t, and their Wronskian
u v' - u' v is identically 1: the drift of that invariant is the built-in
quality gauge of every ray solve.

Every solve goes through one Taylor-series stepper, ``_solve_rays`` (Jorba
& Zou, Experiment. Math. 14 (2005) 99-117), which advances all rays of a
call on one shared step in t; ``solve_ray`` is the one-ray case.  Each step
reads the coefficient's Taylor series about the step's start from values
of p on a small circle (a Cauchy ring, ``numerics.ring_taylor``): m
samples and one FFT per ray, so p needs no series of its own, and a plain
callable works as well as an expression.  p is sampled one ring per call:
it maps the complex array of a step's ring points, (rays, m), to values of
the same shape, or to a scalar that is broadcast; a callable that takes
only scalars fails on the first ring.  The series of v and u follow from
(k+2)(k+1) w_{k+2} = -sum_j q_j w_{k-j}, q = e^{2 i theta} p, and stay as
the dense output the reporting nodes are read from.  The step is the
shortest over the rays of what the decay of the w coefficients allows,
and at most half the ring radius.

The ring never samples its centre, so the integration starts at t = 0
exactly from (v, v_t, u, u_t) = (0, e^{i theta}, 1, 0), even where f has
its declared simple pole at 0 and S_f / 2 cannot be evaluated there.  The
ring radius follows the decay of the ring coefficients; a ring whose
aliasing tail is too large (a singularity of p close by), or one whose
points off the ray hit a non-finite value (a ring point can land on a
declared pole), is shrunk and sampled again.  A non-finite sample at a
point of the solved segment [0, r_max] of a ray raises NonAnalyticSample,
naming the ray; a ring radius that has to shrink below _R_MIN raises
StepSizeUnderflow; an error that p raises propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonAnalyticSample, StepSizeUnderflow
from .expressions import FunctionExpr
from .families import DiskSampler, Family, membership
from .numerics import ring_taylor, unique_sorted
from .schwarzian import schwarzian

from . import palpha as _palpha
from .errors import YVanishes

_ORDER = 24  # Taylor order of v and u per step; p enters through order _ORDER - 2
_REL_TOL = 1e-10  # relative error allowed per step
_RING = 32  # samples per ring
# a ring is accepted when its tail (numerics.ring_taylor) is at most _TAIL_TOL;
# a tail cannot fall below the roundoff of the samples, and at 1e-14 the
# samples of S_f / 2 next to its pole at z = 1 fail every ring on the ray
# theta = 0 of z + 1/z - 2 or -1/log(1-z)
_TAIL_TOL = 1e-12
# the next ring's radius is _GROW times the coefficient's estimated radius of
# convergence about the next centre, which puts its tail near _TAIL_TOL / 10
_GROW = (0.1 * _TAIL_TOL) ** (1.0 / (_RING - 4))
# ring coefficients below this fraction of the largest are roundoff, not decay
_NOISE = 1e-14
# ring radii: the first ring's and the largest; below the smallest, the stepper gives up
_R_MAX, _R_MIN = 1.0, 1e-8
_INV = 1.0 / (np.arange(2, _ORDER + 1) * np.arange(1, _ORDER))  # 1 / ((k+2)(k+1))
_K = np.arange(_ORDER + 1)  # the orders of the step polynomials
_RING_K = np.arange(_RING)  # the orders of the ring coefficients
# the orders that _w_step and _reach read the decay from, and their reciprocals
_W_TAIL_K, _MID_K = _K[_ORDER // 2:], _RING_K[_RING // 2:_RING - 4]
_INV_W_TAIL_K, _INV_MID_K = 1.0 / _W_TAIL_K[:, None, None], 1.0 / _MID_K
# every ray reports rho = 0 and the union of 64 geometric and _N_NODES even
# radii from min(_FIRST_NODE, r_max / 8) to r_max
_FIRST_NODE = 1e-3
_N_NODES = 257


@dataclass(frozen=True)
class RaySolution:
    """Both normalized solutions on the reporting radii of one ray.

    ``n_rhs`` counts the coefficient samples (ring points) the solve
    evaluated per ray, rejected rings included.
    """

    theta: float
    rho: np.ndarray
    v: np.ndarray
    v_z: np.ndarray
    u: np.ndarray
    u_z: np.ndarray
    n_rhs: int

    @property
    def z(self) -> np.ndarray:
        return self.rho * np.exp(1j * self.theta)

    @property
    def wronskian_drift(self) -> float:
        w = self.u * self.v_z - self.u_z * self.v
        return float(np.max(np.abs(w - 1.0)))


def solve_ray(
    p,
    theta: float,
    r_max: float = 0.999,
) -> RaySolution:
    """Both normalized solutions along one ray, reported on >= 257 radii,
    solved to relative tolerance 1e-10.

    ``p`` is a FunctionExpr or a plain callable, sampled one ring per
    call: it maps a complex array of ring points, shape (1, 32), to values
    of the same shape, or to a scalar that is broadcast.  A callable that
    takes only scalars fails on the first ring, and an error that p raises
    propagates.  A non-finite coefficient sample on the ray up to r_max
    raises NonAnalyticSample.
    """
    (ray,) = _solve_rays(p.value if isinstance(p, FunctionExpr) else p, [theta], r_max=r_max)
    return ray


def _solve_rays(
    p_at,
    thetas,
    r_max: float = 0.999,
) -> list[RaySolution]:
    """All rays on shared Taylor steps from rho = 0 to r_max, at relative
    tolerance _REL_TOL.

    ``p_at`` maps a complex array of points to their coefficients in one
    call; a scalar result is broadcast.  Each step samples one ring per ray
    about the step start (numerics.ring_taylor), builds the order-_ORDER
    series of v and u, and evaluates the reporting nodes it covers.
    """
    if not (0.0 < r_max < 1.0):
        raise ValueError(f"r_max must lie in (0, 1), got {r_max}")
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.size
    if n < 1:
        raise ValueError("need at least one ray")
    phase = np.exp(1j * thetas)
    minus_phase2 = -phase * phase
    eps = _REL_TOL / _ORDER  # w_t carries ~_ORDER times w's truncation error
    rho_all = _reporting_radii(r_max)
    nodes = rho_all[1:]
    # (w, w_t) x (v, u) x ray at the step start; (w, w_t) x radius x (v, u) x ray
    start = np.zeros((2, 2, n), dtype=complex)
    start[1, 0], start[0, 1] = phase, 1.0
    out = np.empty((2, nodes.size + 1, 2, n), dtype=complex)
    out[:, 0] = start
    rho, radius, n_p, i_node = 0.0, _R_MAX, 0, 0
    while rho < r_max:
        while True:
            coef, tail, samples = ring_taylor(p_at, rho * phase, phase, radius, _RING)
            n_p += _RING
            ahead = ~np.isfinite(samples[:, 0])
            if ahead.any() and rho + radius <= r_max:
                theta = thetas[np.argmax(ahead)]
                raise NonAnalyticSample(
                    f"coefficient not finite at rho = {rho + radius}, theta = {theta}"
                )
            reach = _reach(coef, radius)
            if np.all(tail <= _TAIL_TOL):
                break
            radius = min(0.5 * radius, _GROW * reach)
            if radius < _R_MIN:
                raise StepSizeUnderflow(
                    f"no ring about rho = {float(rho)!r} keeps the coefficient series on p"
                )
        W = _w_series(minus_phase2 * coef[:, : _ORDER - 1].T, start)
        h = min(_w_step(W, 0.5 * radius, eps), r_max - rho)
        j = np.searchsorted(nodes, rho + h, side="right")
        if j > i_node:
            out[:, i_node + 1:j + 1] = _at(W, nodes[i_node:j] - rho)
            i_node = j
        start = _at(W, np.array([h]))[:, 0]
        rho = r_max if h == r_max - rho else rho + h
        # growing at most twofold, a ring that had to shrink for a non-finite
        # sample off the ray does not meet that sample again on every step
        radius = min(_R_MAX, 2.0 * radius, _GROW * (reach - h))

    out[1] *= np.conj(phase)  # d/dz = e^{-i theta} d/dt
    out[1, 0, 0] = 1.0  # v_z(0), not its rounded e^{-i theta} e^{i theta}
    v, u = np.ascontiguousarray(out.transpose(2, 0, 3, 1))  # (v, v_z) and (u, u_z): ray x radius
    return [
        RaySolution(theta=float(thetas[k]), rho=rho_all, v=v[0, k], v_z=v[1, k], u=u[0, k],
                    u_z=u[1, k], n_rhs=n_p)
        for k in range(n)
    ]


@lru_cache(maxsize=8)
def _reporting_radii(r_max: float) -> np.ndarray:
    """rho = 0 and the reporting nodes of a ray solved to r_max; read-only,
    because every solve to that r_max shares the one array."""
    first = min(_FIRST_NODE, r_max / 8.0)
    nodes = unique_sorted(np.geomspace(first, r_max, 64), np.linspace(first, r_max, _N_NODES))
    rho = np.concatenate([[0.0], nodes])
    rho.flags.writeable = False
    return rho


def _reach(coef, radius: float) -> float:
    """The smallest over the rays of the coefficient's estimated radius of
    convergence, radius / max_k (|b_k| / scale)^(1/k) over the middle ring
    coefficients b_k = coef_k radius^k that stand above roundoff; inf where
    none does (a polynomial p), and rays with non-finite samples skipped."""
    b = np.abs(coef) * radius ** _RING_K
    with np.errstate(invalid="ignore"):  # rows with non-finite samples are NaN and read 0
        rel = b[:, _MID_K] / np.maximum(1.0, np.max(b, axis=1, keepdims=True))
        worst = np.max(np.where(rel > _NOISE, rel ** _INV_MID_K, 0.0))
    return radius / worst if worst > 0.0 else np.inf


def _w_series(q, start):
    """Taylor coefficients (_ORDER + 1, 2, n) of v and u about the step
    start, for w_tt = q w with q's coefficients (_ORDER - 1, n) and the
    start values (w, w_t) in ``start`` (2, 2, n): each order is one batched
    product of the reversed q with the orders below it."""
    n = q.shape[1]
    q_rev = np.ascontiguousarray(q[::-1].T)[:, None, :]  # ray x 1 x order
    W = np.empty((n, _ORDER + 1, 2), dtype=complex)
    W[:, :2] = start.transpose(2, 0, 1)
    for k in range(_ORDER - 1):
        W[:, k + 2] = (q_rev[:, :, _ORDER - 2 - k:] @ W[:, : k + 1])[:, 0] * _INV[k]
    return np.ascontiguousarray(W.transpose(1, 2, 0))


def _w_step(W, h: float, eps: float) -> float:
    """A step no longer than h whose truncated terms stay below eps times
    each solution's scale |w_0| + h |w_1|, as palpha._y_step: h = rho
    eps^(1/_ORDER), rho estimated as min_j (scale / |w_j|)^(1/j) over the
    last _ORDER/2 coefficients, minimized over v, u and the rays."""
    size = np.abs(W[_W_TAIL_K])
    shrink = eps ** (1.0 / _ORDER)
    with np.errstate(divide="ignore"):
        for _ in range(2):  # the scale shrinks with h: one more pass tightens it
            scale = np.abs(W[0]) + h * np.abs(W[1])
            h = min(h, shrink * float(np.min((scale / size) ** _INV_W_TAIL_K)))
    return h


def _at(W, t):
    """(w, w_t) at the points t (1-d) of the step polynomials W
    (_ORDER + 1, 2, n): a (2, t.size, 2, n) array, from one real matrix
    product each with the powers of t."""
    powers = t[:, None] ** _K
    slopes = _K[1:] * powers[:, :-1]
    flat = W.reshape(_K.size, -1).view(float)
    shape = (t.size,) + W.shape[1:]
    return np.array([(powers @ flat).view(complex).reshape(shape),
                     (slopes @ flat[1:]).view(complex).reshape(shape)])


def starlike_margin(ray: RaySolution, order: float) -> float:
    """min over the ray nodes of Re(z v'/v) - order, skipping rho = 0
    where the functional takes its limit value 1."""
    z = ray.z[1:]
    v, v_z = ray.v[1:], ray.v_z[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.real(z * v_z / v)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    return float(np.min(vals) - order)


@dataclass(frozen=True)
class EquivalenceReport:
    """Dual-route consistency: the convexity verdict for f against
    starlikeness of order (1+alpha)/2 of the factor solution v.

    ``n_rhs`` counts the coefficient samples per ray; the rays share their
    rings' radii, so every ray's count is the same.
    """

    alpha: float
    v_margin: float
    v_holds: bool
    worst_ray_theta: float
    wronskian_worst: float
    bc_holds: bool
    bc_margin: float
    agree: bool
    n_rays: int
    n_rhs: int


def starlike_equivalence_check(
    f: FunctionExpr,
    alpha: float,
    n_rays: int = 64,
    sampler: DiskSampler = None,
    tol: float = 1e-4,
) -> EquivalenceReport:
    """Check both sides of the factorization equivalence numerically.

    Route one: sampled pole-normalized convexity of f at order alpha.
    Route two: v from p = S_f/2 along n_rays rays, solved to relative
    tolerance 1e-10, must be starlike of order (1+alpha)/2.  The two
    verdicts are reported with the agreement flag; ``tol`` pads route two
    because ray nodes are far sparser than the membership grid.
    """
    sampler = sampler or DiskSampler()
    target = 0.5 * (1.0 + alpha)
    thetas = 2.0 * np.pi * np.arange(int(n_rays)) / n_rays
    rays = _solve_rays(
        lambda z: schwarzian(f, z) / 2.0, thetas, r_max=sampler.r_max
    )

    worst_margin, worst_theta, worst_drift = np.inf, 0.0, 0.0
    for ray in rays:
        m = starlike_margin(ray, target)
        worst_drift = max(worst_drift, ray.wronskian_drift)
        if m < worst_margin:
            worst_margin, worst_theta = m, ray.theta
    v_holds = worst_margin >= -tol

    bc = membership(f, Family.BC, alpha, sampler=sampler)
    return EquivalenceReport(
        alpha=float(alpha),
        v_margin=float(worst_margin),
        v_holds=bool(v_holds),
        worst_ray_theta=float(worst_theta),
        wronskian_worst=float(worst_drift),
        bc_holds=bc.holds_on_samples,
        bc_margin=bc.margin,
        agree=bool(v_holds == bc.holds_on_samples),
        n_rays=int(n_rays),
        n_rhs=rays[0].n_rhs,
    )


class ReconstructedMap:
    """f on (0, 1) rebuilt from a base solution: f' = -1/y^2, f(omega) = 0.

    The map itself comes from trapezoid accumulation of the dense y, solved
    to eps_end at rel_tol 1e-10;
    ``schwarzian_fd`` recovers S_f by finite differences of f''/f' =
    -2 y'/y, deliberately *not* substituting the analytic answer 2 q, so
    comparing it against 2 q is a genuine closed-loop residual.
    """

    def __init__(self, q: _palpha.QFunction, omega: float, eps_end: float = 1e-6):
        if not (0.0 < omega < 1.0 - eps_end):
            raise ValueError(f"omega must lie in (0, 1 - eps_end), got {omega}")
        self.q = q
        self.omega = float(omega)
        self.solution = _palpha.integrate_ivp(q, eps_end=eps_end, rel_tol=1e-10)
        self._x_hi = 1.0 - eps_end

    def _y_checked(self, x):
        zero = self.solution.first_zero
        if zero is not None and np.max(np.asarray(x)) >= zero:
            raise YVanishes(f"base solution vanishes at x = {zero:.9g}, where 1/y^2 is needed")
        y, yp = self.solution.at(x)
        if np.min(np.asarray(y)) <= 0.0:
            raise YVanishes("base solution not positive where 1/y^2 is needed")
        return y, yp

    def f(self, x, step: float = 2e-5):
        """Trapezoid of -1/y^2 from omega to x (error O(step^2), about
        1e-9 at the default step for well-scaled y)."""
        x = float(x)
        n = max(int(abs(x - self.omega) / step) + 2, 33)
        grid = np.linspace(self.omega, x, n)
        y, _ = self._y_checked(grid)
        return float(np.trapezoid(-1.0 / (y * y), grid))

    def fp(self, x):
        y, _ = self._y_checked(x)
        return -1.0 / (y * y)

    def pre_schwarzian(self, x):
        y, yp = self._y_checked(x)
        return -2.0 * yp / y

    def convexity_value(self, x):
        """1 + x f''/f' = 1 - 2 x y'/y, the convexity functional on (0,1)."""
        y, yp = self._y_checked(x)
        return 1.0 - 2.0 * np.asarray(x) * yp / y

    def schwarzian_fd(self, x: float, h: float = None) -> float:
        """S_f(x) from a five-point stencil on f''/f'; needs x +- 2h in range.

        The default step shrinks like x^{3/2} toward 0 because f''/f'
        behaves like -2/x there and the stencil truncation error scales
        with its fifth derivative ~ x^{-6}.
        """
        x = float(x)
        if h is None:
            h = min(7e-4, 0.01 * x**1.5)
        if not (2.0 * h < x < self._x_hi - 2.0 * h):
            raise ValueError(f"x = {x} too close to the domain ends for h = {h}")
        w = self.pre_schwarzian
        wp = (w(x - 2 * h) - 8.0 * w(x - h) + 8.0 * w(x + h) - w(x + 2 * h)) / (12.0 * h)
        return float(wp - 0.5 * w(x) ** 2)


def reconstruct_f_from_y(q: _palpha.QFunction, omega: float,
                         eps_end: float = 1e-6) -> ReconstructedMap:
    """Build the map with Schwarzian 2 q from the base solution of
    y'' + q y = 0; see ReconstructedMap for the closed-loop residual."""
    return ReconstructedMap(q, omega, eps_end=eps_end)
