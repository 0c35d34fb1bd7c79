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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivisionAtZero, LocallyNonUnivalent, UnivalenceNotChecked
from .expressions import FunctionExpr
from .jets import point_near_zero
from .numerics import (Extremum, as_points, polish_minimum, quasi_random_disk, ring_blocks,
                       ring_points)
from .shared import B_FAMILIES, Family


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

    def radii(self) -> np.ndarray:
        depth = -np.log2(1.0 - self.r_max)
        s = np.arange(1, self.rings + 1) * (depth / self.rings)
        return 1.0 - np.power(2.0, -s)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.points_per_ring) / self.points_per_ring

    def _grid(self, singular_points, exclusion_radius):
        excl = max(self.exclusion_radius, exclusion_radius or 0.0)
        return self.radii(), np.exp(1j * self.angles()), (0.0, *singular_points), excl

    def points(self, singular_points=(), exclusion_radius: float = None) -> np.ndarray:
        """Flattened complex grid with exclusion balls removed."""
        return ring_points(*self._grid(singular_points, exclusion_radius))

    def _blocks(self, singular_points=(), exclusion_radius: float = None):
        """``points()`` as blocks of whole rings, in order, empty ones skipped."""
        return ring_blocks(*self._grid(singular_points, exclusion_radius))


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


# The families that read Re(1 + z f''/f'), and those that read Re(z f'/f).
_CONVEX = frozenset({Family.C, Family.BC, Family.BCI})
_STARLIKE = frozenset({Family.SSTAR, Family.BSSTAR, Family.BCI})
# each family's functional from a = Re(1 + z f''/f') and b = Re(z f'/f);
# bci's is Re(1 + z f''/f' - 2 z f'/f) bit for bit: scaling by 2 is exact
_FORMULAS = {
    Family.C: lambda a, b: a,
    Family.SSTAR: lambda a, b: b,
    Family.BC: lambda a, b: -a,
    Family.BSSTAR: lambda a, b: -b,
    Family.BCI: lambda a, b: a - 2.0 * b,
}


def _functionals(families, z, jet) -> dict:
    """{family: its functional} for each of ``families``, from a jet of f at
    z; NaN where it is undefined.  Each complex quotient is formed once per
    point, and only if one of the families reads it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = 1.0 + np.real(z * jet[2] / jet[1]) if not _CONVEX.isdisjoint(families) else None
        b = np.real(z * jet[1] / jet[0]) if not _STARLIKE.isdisjoint(families) else None
        return {fam: _FORMULAS[fam](a, b) for fam in families}


def functional_value(f: FunctionExpr, family: Family, z):
    """The defining functional of ``family`` for f at z (one point or an array).

    NaN where it is undefined, so grids can skip and count such points.  One
    point runs as a one-element array, so it gets a grid's value bit for
    bit, and raises where a quotient it reads divides by f' = 0 or f = 0.
    At z = 0 the pole-normalized families take their limit value 1.
    """
    family = Family(family)
    zs, point = as_points(z)
    jet = f.jet(zs, 2)
    if point and not (zs[0] == 0 and family in B_FAMILIES):
        if family in _CONVEX and point_near_zero(jet[1]):
            raise LocallyNonUnivalent(f"f'({z}) = 0 to tolerance")
        if family in _STARLIKE and point_near_zero(jet[0]):
            raise DivisionAtZero(f"f({z}) = 0 to tolerance")
    val = _functionals((family,), zs, jet)[family]
    val = np.where(zs == 0, 1.0, val) if family in B_FAMILIES else val
    return float(val[0]) if point else val


class GridField:
    """One map evaluated once on one disk grid, for the families it is asked
    for.  The grid streams through in blocks of whole rings: each block's
    jet of f gives the family functionals there, and each family keeps only
    its running grid minimum, the minimum's witness and the counts the 1%
    rule reads.  Every verdict and order estimate on this grid is read from
    those; only the polish of a minimum evaluates f again, on small arrays
    of probe points.

    ``each_block(points, jet)``, if given, sees every block's jet too, so a
    caller can reduce its own quantity in the same pass; that jet is of
    order 3.  Otherwise the jets stop at the highest derivative the
    families read: f' for the starlike ones, f'' for the others.
    """

    def __init__(self, f: FunctionExpr, sampler: DiskSampler = None,
                 families=tuple(Family), each_block=None):
        self.f = f
        self.sampler = sampler or DiskSampler()
        self._minima = {fam: Extremum() for fam in map(Family, families)}
        order = 3 if each_block is not None else 2 if not _CONVEX.isdisjoint(self._minima) else 1
        for z in self.sampler._blocks(f.singular_points, f.exclusion_radius):
            jet = f.jet(z, order)
            if each_block is not None:
                each_block(z, jet)
            for fam, vals in _functionals(self._minima, z, jet).items():
                self._minima[fam].add(vals, z)

    def _extremum(self, family: Family) -> Extremum:
        extremum = self._minima.get(family)
        if extremum is None:
            raise ValueError(f"family {family.value} was not evaluated on this grid")
        return extremum

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
        extremum = self._extremum(family)
        vmin, witness = extremum.best("grid points")
        evaluated = extremum.finite
        if family in B_FAMILIES:
            # removable limit at the origin pole, counted last: a tie keeps the grid point
            evaluated += 1
            if 1.0 < vmin:
                vmin, witness = 1.0, 0.0 + 0.0j
        vmin = float(vmin)
        margin = vmin - alpha
        return FamilyVerdict(
            family=family,
            alpha=alpha,
            holds_on_samples=bool(margin >= -tol),
            margin=margin,
            witness=complex(witness),
            witness_value=vmin,
            order_estimate=float(np.clip(vmin, 0.0, 1.0)),
            samples_evaluated=evaluated,
            samples_skipped=extremum.total - extremum.finite,
            tol=tol,
        )

    def polished(self, family: Family):
        """(value, point) of the grid minimum polished off the grid in one
        round of sweeps: ``functional_value`` at the point, bit for bit."""
        family = Family(family)
        f, sampler = self.f, self.sampler
        vmin, z0 = self._extremum(family).best("grid points")
        r_lo = max(sampler.exclusion_radius, f.exclusion_radius)
        # the domain ends stand in for the missing neighbours of the end rings
        radii = np.concatenate(([r_lo], sampler.radii(), [sampler.r_max]))
        k = 1 + int(np.argmin(np.abs(radii[1:-1] - abs(z0))))
        return polish_minimum(
            lambda z: functional_value(f, family, z), z0, float(vmin),
            dr=max(radii[k] - radii[k - 1], radii[k + 1] - radii[k]),
            dth=2.0 * np.pi / sampler.points_per_ring, r_lo=r_lo, r_hi=sampler.r_max, rounds=1,
        )

    def order_estimate(self, family: Family) -> float:
        """Polished order estimate on this grid; see ``order_estimate``."""
        return float(np.clip(self.polished(family)[0], 0.0, 1.0))


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
    return GridField(f, sampler, (family,)).verdict(family, alpha, tol)


def order_estimate(f: FunctionExpr, family: Family, sampler: DiskSampler = None) -> float:
    """Largest alpha the sampled functional supports, clipped to [0, 1].

    Grid minimum plus a polish of the extremal ring, first in radius then in
    angle, so the estimate does not depend on the grid lining up with the
    true argmin.  The grid must pass the same 1% rule as ``membership``:
    EvaluationFailed otherwise.
    """
    return GridField(f, sampler, (family,)).order_estimate(family)


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
