"""Radius of inverse convexity: how far the inverse-convex inequality
survives for arbitrary pole-normalized starlike-at-0 inputs.

The cutoff radius r_alpha is the root in (0, 1) of

    P_alpha(x) = (-1 - alpha) x^2 + 4 x + alpha - 1,

equivalently r_alpha = (2 - sqrt(3 + alpha^2)) / (1 + alpha); at alpha=0
this is 2 - sqrt(3).  The root finder and the closed form are kept as
independent routes and cross-checked, never collapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expressions import FunctionExpr
from .families import DiskSampler, Family, FamilyVerdict, functional_value, membership
from .numerics import Extremum, bisect


def radius_polynomial(alpha: float, x):
    """P_alpha(x); vectorized in x."""
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    return (-1.0 - alpha) * x * x + 4.0 * x + alpha - 1.0


@dataclass(frozen=True)
class RadiusResult:
    alpha: float
    radius: float
    closed_form: float
    residual: float


def radius_inverse_convexity(alpha: float) -> RadiusResult:
    """Root of P_alpha on (0, 1) by bisection to 1e-15, checked against the
    closed form."""
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    # P(0) = alpha - 1 < 0 and P(1) = 2 > 0: exactly one root inside.
    root = bisect(lambda x: radius_polynomial(alpha, x), 0.0, 1.0, xtol=1e-15)
    closed = (2.0 - math.sqrt(3.0 + alpha * alpha)) / (1.0 + alpha)
    return RadiusResult(
        alpha=alpha,
        radius=root,
        closed_form=closed,
        residual=abs(radius_polynomial(alpha, root)),
    )


@dataclass(frozen=True)
class RadiusCheck:
    alpha: float
    radius: float
    holds_inside: bool
    verdict: FamilyVerdict


def verify_radius(
    g: FunctionExpr,
    alpha: float,
    radius: float = None,
    sampler: DiskSampler = None,
    tol: float = 1e-6,
) -> RadiusCheck:
    """Sample the inverse-convex inequality of order alpha on |z| < radius.

    Defaults to radius = r_alpha; pass a larger radius to probe where the
    guarantee is expected to break.
    """
    r = float(radius) if radius is not None else radius_inverse_convexity(alpha).radius
    base = sampler or DiskSampler()
    excl = max(base.exclusion_radius, g.exclusion_radius)
    if r <= excl:  # r_alpha -> 0 as alpha -> 1
        name = "radius" if radius is not None else "r_alpha"
        raise ValueError(f"{name} = {r!r} lies inside the exclusion radius {excl!r} about "
                         f"the origin: no grid point is left to sample")
    clipped = replace(base, r_max=min(r, base.r_max))
    verdict = membership(g, Family.BCI, alpha, sampler=clipped, tol=tol)
    return RadiusCheck(
        alpha=float(alpha), radius=r, holds_inside=verdict.holds_on_samples, verdict=verdict
    )


@dataclass(frozen=True)
class RotationWitness:
    tau: float
    value: float
    violates: bool


def rotation_witness(
    g: FunctionExpr, alpha: float, radius: float, n_rotations: int = 4096, tol: float = 1e-6
) -> RotationWitness:
    """Scan rotations g_tau(z) = e^{i tau} g(e^{i tau} z) for one whose
    inverse-convex functional at the real point z = radius drops below
    alpha.  (For these rotations that functional equals the functional of
    g at radius * e^{i tau}, so the scan is a ring sweep in disguise, but
    the verdict is stated in rotation form because the radius statement
    is sharp only up to rotation.)  Over 1% NaN on the ring raises EvaluationFailed.
    """
    taus = 2.0 * np.pi * np.arange(int(n_rotations)) / int(n_rotations)
    ring = float(radius) * np.exp(1j * taus)
    least = Extremum()
    least.add(functional_value(g, Family.BCI, ring), taus)
    value, tau = least.best("ring points")
    return RotationWitness(tau=float(tau), value=float(value), violates=bool(value < alpha - tol))
