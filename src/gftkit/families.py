"""Convexity/starlikeness functionals, disk sampling, and membership verdicts.

Five families, each defined by one real functional being >= alpha on the
punctured disk (for the pole-normalized families the functional extends
to the origin with limit value 1):

* ``c``      convex:                     Re(1 + z f''/f')
* ``sstar``  starlike:                   Re(z f'/f)
* ``bc``     pole-normalized convex:     -Re(1 + z f''/f')
* ``bsstar`` pole-normalized starlike:   -Re(z f'/f)
* ``bci``    inverse convex:             Re(1 + z g''/g' - 2 z g'/g)

Membership is sampled, not proved: verdicts say "holds on this grid to
this tolerance" and carry the witness where the functional was smallest.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DivisionAtZero,
    EvaluationFailed,
    GftError,
    LocallyNonUnivalent,
    UnivalenceNotChecked,
)
from .expressions import FunctionExpr
from .jets import Jet3
from .numerics import finite_samples, golden_min, is_scalar, quasi_random_disk

_TINY = 1e-13


class Family(str, Enum):
    C = "c"
    SSTAR = "sstar"
    BC = "bc"
    BSSTAR = "bsstar"
    BCI = "bci"


# Families whose members carry the normalized simple pole at the origin;
# their functional has the removable limit value 1 at z = 0.
B_FAMILIES = frozenset({Family.BC, Family.BSSTAR, Family.BCI})

FAMILY_LABELS = {
    Family.C: "convex of order alpha",
    Family.SSTAR: "starlike of order alpha",
    Family.BC: "pole-normalized convex of order alpha",
    Family.BSSTAR: "pole-normalized starlike of order alpha",
    Family.BCI: "inverse convex of order alpha (univalence assumed, not checked)",
}


@dataclass(frozen=True)
class DiskSampler:
    """Deterministic grid on the punctured disk, biased toward |z| = 1.

    Radii follow r_j = 1 - 2**(-s_j) with s_j equally spaced, so each
    ring halves the distance to the boundary reached by the previous
    spacing block; extremal behavior of the functionals concentrates
    there.  Points within ``exclusion_radius`` of the origin or of any
    declared singular point are dropped.
    """

    r_max: float = 0.999
    rings: int = 64
    points_per_ring: int = 512
    exclusion_radius: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.exclusion_radius < self.r_max < 1.0):
            raise ValueError(
                f"need 0 < exclusion_radius < r_max < 1, got "
                f"{self.exclusion_radius} and {self.r_max}"
            )
        if self.rings < 1 or self.points_per_ring < 4:
            raise ValueError("need rings >= 1 and points_per_ring >= 4")

    @property
    def verdict_grade(self) -> bool:
        # Coarser grids are fine for exploration but not for verdicts.
        return self.rings * self.points_per_ring >= 1024

    def radii(self) -> np.ndarray:
        depth = -np.log2(1.0 - self.r_max)
        s = np.arange(1, self.rings + 1) * (depth / self.rings)
        return 1.0 - np.power(2.0, -s)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.points_per_ring) / self.points_per_ring

    def points(self, singular_points=(), exclusion_radius: float = None) -> np.ndarray:
        """Flattened complex grid with exclusion balls removed."""
        excl = max(self.exclusion_radius, exclusion_radius or 0.0)
        z = (self.radii()[:, None] * np.exp(1j * self.angles())[None, :]).ravel()
        keep = np.abs(z) >= excl
        for s in singular_points:
            keep &= np.abs(z - complex(s)) >= excl
        return z[keep]


@dataclass(frozen=True)
class FamilyVerdict:
    family: Family
    alpha: float
    holds_on_samples: bool
    margin: float
    witness: complex
    witness_value: float
    order_estimate: float
    samples_evaluated: int
    samples_skipped: int
    tol: float


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return alpha


def _functional(family: Family, z, jet: Jet3):
    """The family formula from a jet of f at z; NaN where it is undefined."""
    v0, v1, v2 = jet.v0, jet.v1, jet.v2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family is Family.C:
            val = np.real(1.0 + z * v2 / v1)
        elif family is Family.SSTAR:
            val = np.real(z * v1 / v0)
        elif family is Family.BC:
            val = -np.real(1.0 + z * v2 / v1)
        elif family is Family.BSSTAR:
            val = -np.real(z * v1 / v0)
        else:
            val = np.real(1.0 + z * v2 / v1 - 2.0 * z * v1 / v0)
        if family in B_FAMILIES and not is_scalar(z):
            val = np.where(np.asarray(z) == 0, 1.0, val)
    return val


def functional_value(f: FunctionExpr, family: Family, z):
    """The defining functional of ``family`` for f at z (scalar or array).

    Scalar input raises on singular hits (pole, f' = 0, f = 0); array
    input yields NaN at such points so grids can skip and count them.
    At z = 0 the pole-normalized families take their limit value 1.
    """
    family = Family(family)
    scalar = is_scalar(z)
    if scalar and complex(z) == 0 and family in B_FAMILIES:
        return 1.0
    jet = f.jet(z)
    if scalar and family in (Family.C, Family.BC, Family.BCI) and abs(jet.v1) < _TINY:
        raise LocallyNonUnivalent(f"f'({z}) = 0 to tolerance")
    if scalar and family in (Family.SSTAR, Family.BSSTAR, Family.BCI) and abs(jet.v0) < _TINY:
        raise DivisionAtZero(f"f({z}) = 0 to tolerance")
    val = _functional(family, z, jet)
    return float(val) if scalar else val


def _worker_count() -> int:
    return max(1, int(os.environ.get("GFT_THREADS", "").strip() or 1))


def _grid_jet(f: FunctionExpr, pts: np.ndarray) -> Jet3:
    workers = _worker_count()
    if workers <= 1 or pts.size < 4 * workers:
        return f.jet(pts)
    chunks = np.array_split(pts, workers)
    f.array_jet  # build the evaluator here, once, not in each worker
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(f.jet, chunks))
    # a constant map has scalar jet components: broadcast them per chunk
    return Jet3(*(
        np.concatenate([np.broadcast_to(v, c.shape) for v, c in zip(vals, chunks)])
        for vals in zip(*((p.v0, p.v1, p.v2, p.v3) for p in parts))
    ))


def _safe_scalar(f, family, z) -> float:
    try:
        v = functional_value(f, family, z)
    except GftError:
        return np.inf
    return v if np.isfinite(v) else np.inf


class GridField:
    """One map evaluated once on one disk grid: the sampler's points and the
    order-3 jet of f there, from which every verdict and order estimate on
    this grid is read.  Only the golden polish evaluates f again, pointwise.
    """

    def __init__(self, f: FunctionExpr, sampler: DiskSampler = None):
        self.f = f
        self.sampler = sampler or DiskSampler()
        self.points = self.sampler.points(f.singular_points, f.exclusion_radius)
        self.jet = _grid_jet(f, self.points)

    def verdict(self, family: Family, alpha: float, tol: float = 1e-6) -> FamilyVerdict:
        """Sampled verdict on this grid; see ``membership``."""
        family = Family(family)
        alpha = _check_alpha(alpha)
        if family is Family.BCI:
            warnings.warn(
                "inverse-convex membership samples the inequality only; "
                "univalence of the input is assumed",
                UnivalenceNotChecked,
                stacklevel=2,
            )
        vals = _functional(family, self.points, self.jet)
        finite = finite_samples(vals, "grid points")
        skipped = int(vals.size - np.count_nonzero(finite))
        vals, pts = vals[finite], self.points[finite]
        if family in B_FAMILIES:
            # removable limit at the origin pole
            vals = np.append(vals, 1.0)
            pts = np.append(pts, 0.0 + 0.0j)
        i = int(np.argmin(vals))
        vmin = float(vals[i])
        margin = vmin - alpha
        return FamilyVerdict(
            family=family,
            alpha=alpha,
            holds_on_samples=bool(margin >= -tol),
            margin=margin,
            witness=complex(pts[i]),
            witness_value=vmin,
            order_estimate=float(np.clip(vmin, 0.0, 1.0)),
            samples_evaluated=int(vals.size),
            samples_skipped=skipped,
            tol=tol,
        )

    def order_estimate(self, family: Family) -> float:
        """Polished order estimate on this grid; see ``order_estimate``."""
        family = Family(family)
        f, sampler, pts = self.f, self.sampler, self.points
        vals = _functional(family, pts, self.jet)
        finite = finite_samples(vals, "grid points")
        if not finite.any():
            raise EvaluationFailed("no grid point evaluated to a finite functional value")
        i = int(np.argmin(np.where(finite, vals, np.inf)))
        best = float(vals[i])
        r_w, th_w = abs(pts[i]), np.angle(pts[i])

        dth = 2.0 * np.pi / sampler.points_per_ring
        th, v_th = golden_min(
            lambda t: _safe_scalar(f, family, r_w * np.exp(1j * t)), th_w - dth, th_w + dth
        )
        if v_th < best:
            best, th_w = v_th, th

        radii = sampler.radii()
        k = int(np.argmin(np.abs(radii - r_w)))
        r_lo = radii[k - 1] if k > 0 else max(sampler.exclusion_radius, f.exclusion_radius)
        r_hi = radii[k + 1] if k + 1 < radii.size else sampler.r_max
        _, v_r = golden_min(
            lambda r: _safe_scalar(f, family, r * np.exp(1j * th_w)), r_lo, r_hi
        )
        best = min(best, v_r)
        return float(np.clip(best, 0.0, 1.0))


def membership(
    f: FunctionExpr,
    family: Family,
    alpha: float,
    sampler: DiskSampler = None,
    tol: float = 1e-6,
) -> FamilyVerdict:
    """Sampled verdict: does the family functional stay >= alpha - tol?

    Skips non-finite grid values (poles of derived quantities that were
    not declared) up to 1% of the grid; beyond that the grid is judged
    unusable and EvaluationFailed is raised.
    """
    return GridField(f, sampler).verdict(family, alpha, tol)


def order_estimate(f: FunctionExpr, family: Family, sampler: DiskSampler = None) -> float:
    """Largest alpha the sampled functional supports, clipped to [0, 1].

    Grid minimum plus a golden-section polish of the extremal ring, first
    in angle then in radius, so the estimate does not depend on the grid
    lining up with the true argmin.  The grid must pass the same 1% rule
    as ``membership``: EvaluationFailed otherwise.
    """
    return GridField(f, sampler).order_estimate(family)


def injectivity_spot_check(
    f: FunctionExpr, n_pairs: int = 2000, seed: int = 0, r_max: float = 0.999
) -> bool:
    """Heuristic univalence screen: no near-collisions among sampled pairs.

    Complements (never replaces) the UnivalenceNotChecked caveat on
    inverse-convex verdicts.
    """
    excl = max(1e-3, f.exclusion_radius)
    za = quasi_random_disk(n_pairs, excl, r_max, seed=seed)
    zb = quasi_random_disk(n_pairs, excl, r_max, seed=seed + 7)
    wa, wb = f.value(za), f.value(zb)
    ok = np.isfinite(wa) & np.isfinite(wb) & (np.abs(za - zb) > 1e-5)
    scale = 1.0 + np.maximum(np.abs(wa), np.abs(wb))
    collisions = ok & (np.abs(wa - wb) < 1e-10 * scale)
    return not bool(collisions.any())
