"""Schwarzian derivative, hyperbolically weighted norm, and invariance checks.

S_f = f'''/f' - (3/2)(f''/f')^2, computed from exact jets, never finite
differences.  The norm sup (1-|z|^2)^2 |S_f(z)| is estimated from below
by a grid plus a polish in batched sweeps, with S_f near declared poles
from a Cauchy ring; Mobius invariance S_{T o f} = S_f and the reciprocal
identity S_{1/f} = S_f are exposed as residual checks since they are the
sharpest cheap validation of any Schwarzian implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationFailed, LocallyNonUnivalent
from .expressions import FunctionExpr, compose_mobius
from .jets import point_near_zero
from .numerics import Extremum, as_points, polish_minimum, ring_blocks, ring_taylor


def _at(f: FunctionExpr, z, order: int, formula):
    """``formula`` of f's jet at z, NaN where it is undefined; one point runs
    as a one-element array and raises LocallyNonUnivalent where f'(z) = 0."""
    zs, point = as_points(z)
    jet = f.jet(zs, order)
    if point and point_near_zero(jet[1]):
        raise LocallyNonUnivalent(f"f'({z}) = 0 to tolerance")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = formula(jet)
    return complex(out[0]) if point else out


def schwarzian(f: FunctionExpr, z):
    """S_f at z, one point or an array of points; NaN at singular hits, and
    LocallyNonUnivalent at one point where f'(z) = 0."""
    return _at(f, z, 3, schwarzian_of_jet)


def schwarzian_of_jet(jet):
    """S_f from a jet of f; NaN (no raise) where f' = 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = jet[2] / jet[1]
        return jet[3] / jet[1] - 1.5 * w * w


def pre_schwarzian(f: FunctionExpr, z):
    """f''/f' at z; one point and arrays as ``schwarzian`` takes them."""
    return _at(f, z, 2, lambda jet: jet[2] / jet[1])


def weighted_modulus(f: FunctionExpr, z):
    """(1 - |z|^2)^2 |S_f(z)|, the norm's integrand, at z as ``schwarzian`` takes it."""
    zs, point = as_points(z)
    out = (1.0 - np.abs(zs) ** 2) ** 2 * np.abs(schwarzian(f, z))
    return float(out[0]) if point else out


def _pole_polynomials(f: FunctionExpr) -> list:
    """(c, R, Taylor coefficients of S_f about c) per declared point c in the
    disk, from 64 samples on a Cauchy ring |z - c| = R: R is half the distance
    to the other points and to |z| = 1, halved while the ring's tail exceeds
    1e-10 (no ring below f's exclusion radius).  Terms below 1e-17 max(1,
    largest) on |z - c| <= R/2 are dropped."""
    centers = list(dict.fromkeys(map(complex, f.singular_points)))
    polys = []
    for c in centers:
        radius = 0.5 * min([1.0 - abs(c)] + [abs(c - o) for o in centers if o != c])
        while radius >= f.exclusion_radius:
            coef, tail, _ = ring_taylor(lambda z: schwarzian(f, z), [c], [1.0], radius, 64)
            if tail[0] <= 1e-10 and np.isfinite(coef).all():
                size = np.abs(coef[0]) * (0.5 * radius) ** np.arange(coef.shape[1])
                n = 1 + np.flatnonzero(size >= 1e-17 * max(1.0, size.max()))[-1]
                polys.append((c, radius, coef[0, :n]))
                break
            radius *= 0.5
    return polys


def _norm_integrand(f: FunctionExpr, z, polys):
    """``weighted_modulus`` on an array z, S_f within R/2 of a pole from ``polys``
    and from the jets only at the other points."""
    s = rest = None  # rest: the points no polynomial serves, once one serves some
    for c, radius, coef in polys:
        near = np.abs(z - c) < 0.5 * radius
        if near.any():
            if s is None:
                s, rest = np.empty(z.shape, dtype=complex), np.ones(z.shape, dtype=bool)
            s[near], rest[near] = np.polyval(coef[::-1], z[near] - c), False
    if s is None:
        s = schwarzian_of_jet(f.jet(z))
    elif rest.any():
        s[rest] = schwarzian_of_jet(f.jet(z[rest]))
    return (1.0 - np.abs(z) ** 2) ** 2 * np.abs(s)


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
    whole rings, keeping only the running maximum, and ``refine_iters``
    rounds of array sweeps in radius and angle polish the best grid point.
    S_f is analytic at a simple pole of f (S_{1/f} = S_f), but f's jets
    nearly cancel there: within R/2 of a declared singular point, grid
    points and probes alike take S_f from a Cauchy ring of radius R about
    it (``_pole_polynomials``); where no ring passes, from the jets.
    """
    if rings < 8 or points_per_ring < 64:
        raise ValueError("need rings >= 8 and points_per_ring >= 64")
    r_lo, r_hi = 1e-4, 1.0 - 1e-4
    radii = np.linspace(r_lo, r_hi, rings)
    angles = 2.0 * np.pi * np.arange(points_per_ring) / points_per_ring
    polys = _pole_polynomials(f)

    def negated(z):  # the maximum is the minimum of the negated values
        return -_norm_integrand(f, z, polys)

    least = Extremum()
    for z in ring_blocks(radii, np.exp(1j * angles), f.singular_points, f.exclusion_radius):
        least.add(negated(z), z)
    neg, z0 = least.best("norm grid points")
    neg, argmax = polish_minimum(
        negated, z0, float(neg), dr=(r_hi - r_lo) / (rings - 1),
        dth=2.0 * np.pi / points_per_ring, r_lo=r_lo, r_hi=r_hi, rounds=refine_iters,
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
