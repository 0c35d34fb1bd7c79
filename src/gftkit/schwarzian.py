"""Schwarzian derivative, hyperbolically weighted norm, and invariance checks.

S_f = f'''/f' - (3/2)(f''/f')^2, computed from exact jets, never finite
differences.  The norm sup (1-|z|^2)^2 |S_f(z)| is estimated from below
by a boundary-aware grid plus golden-section polish; Mobius invariance
S_{T o f} = S_f and the reciprocal identity S_{1/f} = S_f are exposed as
residual checks since they are the sharpest cheap validation of any
Schwarzian implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationFailed, LocallyNonUnivalent
from .expressions import FunctionExpr, compose_mobius
from .jets import near_zero
from .numerics import Extremum, golden_polish, ring_blocks
from .shared import is_scalar


def schwarzian(f: FunctionExpr, z):
    """S_f at z (scalar complex or complex array).

    Scalar input raises LocallyNonUnivalent where f'(z) = 0; array input
    NaN-masks those points.
    """
    jet = f.jet(z)
    if is_scalar(z):
        if near_zero(jet[1]):
            raise LocallyNonUnivalent(f"f'({z}) = 0 to tolerance")
        # no np.errstate here (it costs more than the formula): a jet that
        # overflowed may warn, as its own evaluation already can
        return complex(_schwarzian(jet))
    return schwarzian_of_jet(jet)


def _schwarzian(jet):
    w = jet[2] / jet[1]
    return jet[3] / jet[1] - 1.5 * w * w


def schwarzian_of_jet(jet):
    """S_f from a jet of f; NaN (no raise) where f' = 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _schwarzian(jet)


def pre_schwarzian(f: FunctionExpr, z):
    """f''/f' at z; same scalar/array semantics as ``schwarzian``."""
    jet = f.jet(z, 2)
    scalar = is_scalar(z)
    if scalar and near_zero(jet[1]):
        raise LocallyNonUnivalent(f"f'({z}) = 0 to tolerance")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = jet[2] / jet[1]
    return complex(w) if scalar else w


def weighted_modulus(f: FunctionExpr, z):
    """(1 - |z|^2)^2 |S_f(z)|, the integrand of the Schwarzian norm."""
    s = schwarzian(f, z)
    weight = (1.0 - np.abs(z) ** 2) ** 2
    out = weight * np.abs(s)
    return float(out) if is_scalar(z) else out


@dataclass(frozen=True)
class NormEstimate:
    lower_bound: float
    argmax: complex
    evaluated: int
    skipped: int


def schwarzian_norm(
    f: FunctionExpr,
    rings: int = 64,
    points_per_ring: int = 512,
    refine_iters: int = 3,
) -> NormEstimate:
    """Grid + polish lower bound for sup (1-|z|^2)^2 |S_f|.

    The weight kills the boundary, so unlike the membership grids the
    radii here are uniform on (0, 1); the grid streams through in blocks of
    whole rings, keeping only the running maximum, and the polish alternates
    golden-section sweeps in radius and angle around the best grid point.
    """
    if rings < 8 or points_per_ring < 64:
        raise ValueError("need rings >= 8 and points_per_ring >= 64")
    r_lo, r_hi = 1e-4, 1.0 - 1e-4
    radii = np.linspace(r_lo, r_hi, rings)
    angles = 2.0 * np.pi * np.arange(points_per_ring) / points_per_ring
    # the maximum is the minimum of the negated values, which the polish minimises too
    least = Extremum()
    for z in ring_blocks(radii, np.exp(1j * angles), f.singular_points, f.exclusion_radius):
        least.add(-weighted_modulus(f, z), z)
    neg, z0 = least.best("norm grid points")
    neg, argmax = golden_polish(
        lambda w: -weighted_modulus(f, complex(w)), z0, float(neg),
        dr=(r_hi - r_lo) / (rings - 1), dth=2.0 * np.pi / points_per_ring,
        r_lo=r_lo, r_hi=r_hi, rounds=refine_iters,
    )
    return NormEstimate(
        lower_bound=-neg,
        argmax=argmax,
        evaluated=least.finite,
        skipped=least.total - least.finite,
    )


@dataclass(frozen=True)
class InvarianceCheck:
    mobius_residual: float
    reciprocal_residual: float
    n_samples: int

    @property
    def max_residual(self) -> float:
        return max(self.mobius_residual, self.reciprocal_residual)


def invariance_residuals(f: FunctionExpr, mobius, samples) -> InvarianceCheck:
    """Residuals of S_{T o f} = S_f and S_{1/f} = S_f on given samples.

    ``mobius`` is the coefficient tuple (a, b, c, d) of T(w) = (aw+b)/(cw+d).
    Samples must avoid singularities of f, T o f and 1/f; a non-finite
    Schwarzian at any sample raises EvaluationFailed.
    """
    a, b, c, d = mobius
    zs = np.asarray(samples, dtype=complex)
    s0 = schwarzian(f, zs)
    s1 = schwarzian(compose_mobius(f, a, b, c, d), zs)
    s2 = schwarzian(1.0 / f, zs)
    if not (np.all(np.isfinite(s0)) and np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise EvaluationFailed("invariance samples hit a singularity")
    return InvarianceCheck(
        mobius_residual=float(np.max(np.abs(s1 - s0))),
        reciprocal_residual=float(np.max(np.abs(s2 - s0))),
        n_samples=int(zs.size),
    )
