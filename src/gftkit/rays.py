"""Radial factorization route: f = u/v with v'' + p v = 0, p = S_f / 2.

Along each ray z = rho e^{i theta} the two normalized solutions
(v(0) = 0, v'(0) = 1 and u(0) = 1, u'(0) = 0) satisfy the real-parameter
ODE w_rho_rho = -e^{2 i theta} p(z) w, and their Wronskian u v' - u' v
is identically 1 — the drift of that invariant is the built-in quality
gauge of every ray solve.

The coefficient p has a double pole nowhere but may not extend to z = 0
when f carries the normalized simple pole, so integration starts at a
small rho_0 > 0 from the local series v = z - p z^3/6, u = 1 - p z^2/2.

Every solve goes through one integrator, ``_solve_rays``: an equivalence
check hands it all its rays at once and they advance as one real DOP853
system of 8 n_rays components on a shared rho step, so each right-hand
side call evaluates the coefficient at all n_rays points in one array jet
pass; ``solve_ray`` is the n_rays = 1 case.  solve_ivp accepts a step by
the RMS of the scaled error over all components, which would let one
hard ray's error grow sqrt(n_rays) times past rtol while the easy rays
average it down.  Both rtol and atol are therefore scaled by
1/sqrt(n_rays): a step the shared test accepts has every ray's own RMS
error within the unscaled tolerances, and one ray sees no change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonAnalyticSample, StepSizeUnderflow
from .expressions import FunctionExpr
from .families import DiskSampler, Family, membership
from .schwarzian import schwarzian

from . import palpha as _palpha
from .errors import YVanishes

# integration starts at min(_RHO_START, r_max / 8); every ray reports at
# least _N_NODES radii
_RHO_START = 1e-3
_N_NODES = 257


@dataclass(frozen=True)
class RaySolution:
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
    rel_tol: float = 1e-10,
) -> RaySolution:
    """Both normalized solutions along one ray, reported on >= 257 radii.

    ``p`` is a FunctionExpr or a plain callable z -> complex, called at a
    scalar z.  A non-finite coefficient sample anywhere on the ray raises
    NonAnalyticSample.
    """
    pc = p.value if isinstance(p, FunctionExpr) else p
    (ray,) = _solve_rays(
        lambda z: complex(pc(complex(z[0]))), [theta], r_max=r_max, rel_tol=rel_tol,
    )
    return ray


def _solve_rays(
    p_at,
    thetas,
    r_max: float = 0.999,
    rel_tol: float = 1e-10,
) -> list[RaySolution]:
    """All rays as one DOP853 system on a shared rho grid.

    ``p_at`` maps the n_rays points rho e^{i theta} (a complex array) to
    their coefficients in one call; a scalar result is broadcast.  The
    state is a (4, n_rays) complex array (v, v_rho, u, u_rho per ray)
    viewed as 8 n_rays reals, and the tolerances are scaled by
    1/sqrt(n_rays) so that the shared RMS error test is at least as
    strict as each ray's own.
    """
    if not (0.0 < r_max < 1.0):
        raise ValueError(f"r_max must lie in (0, 1), got {r_max}")
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.size
    if n < 1:
        raise ValueError("need at least one ray")
    # on first use: scipy is most of the package's import time, and only the
    # ray routes need it
    from scipy.integrate import solve_ivp

    phase = np.exp(1j * thetas)
    rho0 = min(_RHO_START, r_max / 8.0)

    def p_checked(rho: float):
        val = np.asarray(p_at(rho * phase), dtype=complex)
        if not np.isfinite(val).all():
            bad = np.broadcast_to(~np.isfinite(val), (n,))
            theta = thetas[np.argmax(bad)]
            raise NonAnalyticSample(f"coefficient not finite at rho = {rho}, theta = {theta}")
        return val

    p0 = p_checked(rho0)
    z0 = rho0 * phase
    state0 = np.array(
        [
            z0 - p0 * z0**3 / 6.0,
            phase * (1.0 - p0 * z0**2 / 2.0),
            1.0 - p0 * z0**2 / 2.0,
            phase * (-p0 * z0),
        ]
    )
    minus_phase2 = -phase * phase

    def rhs(rho, s):
        # rows (w, w_rho) for w = v, u: d/drho (w, w_rho) = (w_rho, coeff w)
        y = s.view(complex).reshape(2, 2, n)
        out = np.empty_like(y)
        out[:, 0] = y[:, 1]
        out[:, 1] = (minus_phase2 * p_checked(rho)) * y[:, 0]
        return out.view(float).ravel()

    nodes = np.unique(
        np.concatenate(
            [np.geomspace(rho0, r_max, 64), np.linspace(rho0, r_max, _N_NODES)]
        )
    )
    scale = 1.0 / np.sqrt(n)
    sol = solve_ivp(
        rhs,
        (rho0, r_max),
        state0.view(float).ravel(),
        method="DOP853",
        rtol=rel_tol * scale,
        atol=1e-13 * scale,
        t_eval=nodes,
    )
    if not sol.success:
        raise StepSizeUnderflow(f"ray integration stopped: {sol.message}")
    y = sol.y.reshape(4, n, 2, -1)  # (v, v_rho, u, u_rho) x ray x (re, im) x node
    rho = np.concatenate([[0.0], sol.t])
    rays = []
    for k in range(n):
        v, v_r, u, u_r = y[:, k, 0] + 1j * y[:, k, 1]
        conj_phase = np.conj(phase[k])
        rays.append(
            RaySolution(
                theta=float(thetas[k]),
                rho=rho,
                v=np.concatenate([[0.0], v]),
                v_z=np.concatenate([[1.0], conj_phase * v_r]),
                u=np.concatenate([[1.0], u]),
                u_z=np.concatenate([[0.0], conj_phase * u_r]),
                n_rhs=int(sol.nfev),
            )
        )
    return rays


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
    starlikeness of order (1+alpha)/2 of the factor solution v."""

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
    rel_tol: float = 1e-10,
    tol: float = 1e-4,
) -> EquivalenceReport:
    """Check both sides of the factorization equivalence numerically.

    Route one: sampled pole-normalized convexity of f at order alpha.
    Route two: v from p = S_f/2 along n_rays rays must be starlike of
    order (1+alpha)/2.  The two verdicts are reported with the agreement
    flag; ``tol`` pads route two because ray nodes are far sparser than
    the membership grid.
    """
    sampler = sampler or DiskSampler()
    target = 0.5 * (1.0 + alpha)
    thetas = 2.0 * np.pi * np.arange(int(n_rays)) / n_rays
    rays = _solve_rays(
        lambda z: schwarzian(f, z) / 2.0, thetas, r_max=sampler.r_max, rel_tol=rel_tol
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

    The map itself comes from trapezoid accumulation of the dense y;
    ``schwarzian_fd`` recovers S_f by finite differences of f''/f' =
    -2 y'/y, deliberately *not* substituting the analytic answer 2 q, so
    comparing it against 2 q is a genuine closed-loop residual.
    """

    def __init__(self, q: _palpha.QFunction, omega: float,
                 eps_end: float = 1e-6, rel_tol: float = 1e-10):
        if not (0.0 < omega < 1.0 - eps_end):
            raise ValueError(f"omega must lie in (0, 1 - eps_end), got {omega}")
        self.q = q
        self.omega = float(omega)
        self.solution = _palpha.integrate_ivp(q, eps_end=eps_end, rel_tol=rel_tol)
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


def reconstruct_f_from_y(
    q: _palpha.QFunction, omega: float, eps_end: float = 1e-6, rel_tol: float = 1e-10
) -> ReconstructedMap:
    """Build the map with Schwarzian 2 q from the base solution of
    y'' + q y = 0; see ReconstructedMap for the closed-loop residual."""
    return ReconstructedMap(q, omega, eps_end=eps_end, rel_tol=rel_tol)
