"""Small numerical kernels: bracketed root finding, the grid-minimum
polish in array sweeps, Richardson extrapolation, Taylor coefficients from
a ring of samples, quasi-random disk points, polar grids streamed in blocks
of whole rings, the one reduction of a sampled quantity (``Extremum``, home
of the 1% non-finite rule), sorted distinct values."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EvaluationFailed, GftError

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def bisect(fn, a: float, b: float, xtol: float = 1e-14) -> float:
    """Root of fn on [a, b] by plain bisection, at most 200 halvings;
    requires a sign change."""
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < xtol or m == a or m == b:
            return m
        fm = fn(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def unique_sorted(*arrays) -> np.ndarray:
    """The distinct values of ``arrays``, sorted: ``np.unique`` of their
    concatenation, without the masked-array module that ``np.unique`` loads."""
    v = np.sort(np.concatenate(arrays))
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


# Points per block of a streamed grid.  A block's jet and functional
# temporaries then stay within a core's L2 cache: blocks of 4 096 to 32 768
# points measured alike on a 2-core host, and whole 128x4096 grids took 2-3x
# longer per point.  Below 16 384 points no complex array reaches numpy's
# 256 KiB temporary-elision threshold, so a point's jet does not depend on
# the grid it lies on: elision reorders complex products, which numpy's SIMD
# loops do not round commutatively.  The array jet evaluators run any longer
# array in blocks of this size, for the same reason.
_RING_BLOCK_POINTS = 8192

# Freeing one large block that malloc mapped raises glibc's mmap threshold to
# its size and the heap's trim threshold to twice that, as the 8 MiB arrays of
# whole 128x4096 grids used to.  At the default 128 KiB trim threshold, the
# heap top that each grid block's temporaries free goes back to the system and
# faults in again on the next block: ~110 page faults per 8 192-point block,
# which made a 64x512 membership check up to twice as slow.  The array is never
# touched, so it costs no resident memory; under other allocators it is one
# short-lived allocation.
np.empty(64 * _RING_BLOCK_POINTS, dtype=complex)


def ring_points(radii, phases, centers, radius: float) -> np.ndarray:
    """The points r e^{i theta}, ring by ring (``phases`` are the e^{i theta}),
    without those closer than ``radius`` to any of ``centers``."""
    z = radii[:, None] * phases[None, :]
    keep = None
    for c in dict.fromkeys(map(complex, centers)):
        # |z - c| >= ||z| - |c||: a ring farther than the radius from |c|, with
        # a margin for the rounding of |z|, keeps every point
        near = np.abs(radii - abs(c)) <= radius * (1.0 + 1e-9) + 1e-12
        if near.any():
            if keep is None:
                keep = np.ones(z.shape, dtype=bool)
            keep[near] &= np.abs(z[near] - c) >= radius
    return z.ravel() if keep is None else z[keep]


def ring_blocks(radii, phases, centers, radius: float):
    """``ring_points`` as consecutive blocks of whole rings, at least one ring
    and about ``_RING_BLOCK_POINTS`` points each, in the same order and with
    the same values; blocks that the balls empty are skipped."""
    step = max(1, _RING_BLOCK_POINTS // phases.size)
    for i in range(0, radii.size, step):
        z = ring_points(radii[i:i + step], phases, centers, radius)
        if z.size:
            yield z


class Extremum:
    """First-occurrence minimum of values streamed in blocks, with its point,
    skipping non-finite values and counting them.  Across blocks only a
    strictly smaller value replaces the best, so the point is the one
    ``np.argmin`` of all the values picks.  A maximum is the minimum of the
    negated values: negation is exact and keeps the first occurrence."""

    def __init__(self):
        self.value = self.point = None  # numpy scalars, as the grid holds them
        self.finite = self.total = 0

    def add(self, vals, points) -> None:
        self.total += vals.size
        finite = np.isfinite(vals)
        if not finite.all():
            vals, points = vals[finite], points[finite]
        self.finite += vals.size
        if not vals.size:
            return
        i = int(np.argmin(vals))
        if self.value is None or vals[i] < self.value:
            self.value, self.point = vals[i], points[i]

    def best(self, what: str):
        """(minimum, its point), after the 1% rule: more than 1% non-finite
        values make the sample set unusable.  EvaluationFailed then, and
        where no value was finite."""
        bad = self.total - self.finite
        if bad > 0.01 * self.total:
            raise EvaluationFailed(f"{bad} of {self.total} {what} failed to evaluate (> 1%)")
        if self.value is None:
            raise EvaluationFailed(f"no {what} evaluated to a finite value")
        return self.value, self.point


def as_points(z):
    """(z as an array, whether z was one point, now a one-element array)."""
    z = np.asarray(z, dtype=complex)
    return (z, False) if z.ndim else (z.reshape(1), True)


_SWEEP_POINTS = 9  # points per array call of a polish sweep


def _sweep(fn, point_at, a: float, b: float):
    """The least value of fn at the points ``point_at(x)``, x in [a, b] ->
    (x, point, value), from calls on 9 points.  The first spans [a, b];
    each next spans a quarter spacing either side of the vertex of the
    parabola through the best point and its neighbours, or is the last
    span moved to a best point at its end.  It stops once a call is flat to
    8 ulp, the spacing is below 1e-10 max(1, |x|), or the best point is at
    a or b.  A non-finite value, or a call that raises GftError, is +inf."""
    best, lo, hi, last = (a, None, math.inf), a, b, _SWEEP_POINTS - 1
    for _ in range(64):
        h = (hi - lo) / last
        xs = [lo + k * h for k in range(last)] + [hi]
        points = point_at(np.array(xs))
        try:
            v = np.asarray(fn(points), dtype=float).tolist()
        except GftError:
            v = [math.inf] * len(xs)
        v = [y if math.isfinite(y) else math.inf for y in v]
        i = min(range(len(v)), key=v.__getitem__)
        x, y = xs[i], v[i]
        if y < best[2]:
            best = (x, points[i], y)
        if (y == math.inf or max(v) - y <= 8.0 * math.ulp(y) or h < 1e-10 * max(1.0, abs(x))
                or (i == 0 and lo == a) or (i == last and hi == b)):
            break
        if i in (0, last):
            c, half = x, 0.5 * (hi - lo)
        else:
            left, right = v[i - 1] - y, v[i + 1] - y  # >= 0, +inf by a failed probe
            curved = 0.0 < left + right < math.inf
            c = x + 0.5 * h * (left - right) / (left + right) if curved else x
            half = 0.25 * h
        lo, hi = max(a, c - half), min(b, c + half)
        lo, hi = max(a, hi - 2.0 * half), min(b, lo + 2.0 * half)
    return best


def polish_minimum(fn, z0, f0: float, dr: float, dth: float, r_lo: float, r_hi: float,
                   rounds: int):
    """Polish a grid minimum f0 = fn(z0) off the grid -> (value, point),
    the value fn's at the point, bit for bit.  ``fn`` maps an array of points
    to their values.  Each round sweeps in radius within dr of the best point,
    inside [r_lo, r_hi], then in angle within dth (``_sweep``), keeps only
    improvements and quarters dr and dth."""
    best, point = f0, z0
    r, th = float(np.abs(z0)), float(np.angle(z0))
    for _ in range(rounds):
        x, z, v = _sweep(fn, lambda x: x * np.exp(1j * th), max(r_lo, r - dr), min(r_hi, r + dr))
        if v < best:
            best, point, r = v, z, x
        x, z, v = _sweep(fn, lambda x: r * np.exp(1j * x), th - dth, th + dth)
        if v < best:
            best, point, th = v, z, x
        dr *= 0.25
        dth *= 0.25
    return best, complex(point)


def richardson(values, ratio: float = 2.0) -> np.ndarray:
    """Diagonal of the Richardson/Neville table for a sequence sampled at
    step sizes h_k = h0 / ratio**k, assuming an error expansion in integer
    powers of h.  Returns the diagonal T[k,k], whose last entries are the
    best extrapolants.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    table = v.copy()
    diag = [v[0]] if n else []
    for m in range(1, n):
        factor = ratio**m
        table = (factor * table[1:] - table[:-1]) / (factor - 1.0)
        diag.append(table[0])
    return np.asarray(diag)


# the ring coefficients whose size is the aliasing tail
_RING_TAIL_TERMS = 4


@lru_cache(maxsize=4)
def _roots_of_unity(m: int):
    """(w^j, j) for j < m, w = e^{2 pi i / m}: read-only, shared by every ring of m samples."""
    k = np.arange(m)
    roots = np.exp(2j * np.pi * k / m)
    k.flags.writeable = roots.flags.writeable = False
    return roots, k


def ring_taylor(p_at, centers, phases, radius: float, m: int):
    """Taylor coefficients of p along directions, from m samples on a circle.

    Sample j about centre c in direction e^{i theta} (``phases``) is
    p(c + R e^{i theta} w^j), w = e^{2 pi i / m}, so sample 0 lies on the
    direction, forward.  ``p_at`` maps the (n, m) complex array of all
    sample points to their values in one call.  One FFT along the sample
    axis is the trapezoid rule for the Cauchy integrals:
    b_k = a_k (R e^{i theta})^k, a_k the Taylor coefficients of p about c,
    up to aliased terms a_{k+m}, a_{k+2m}, ... (Trefethen & Weideman, SIAM
    Rev. 56 (2014) 385-458).

    Returns (coef, tail, samples): ``coef`` (n, m) holds b_k / R^k, the
    coefficients of p(c + e^{i theta} t) in the distance t; ``tail`` (n,)
    is the largest of the last four |b_k| relative to max(1, max_k |b_k|):
    where the b_k decay geometrically it exceeds the aliased terms, and a
    singularity inside the ring makes it large (its Laurent terms alias
    onto the last coefficients); it is +inf where a sample is not finite;
    ``samples`` (n, m) are the values.
    """
    centers = np.asarray(centers, dtype=complex)
    phases = np.asarray(phases, dtype=complex)
    roots, k = _roots_of_unity(m)
    points = centers[:, None] + phases[:, None] * (radius * roots)
    samples = np.broadcast_to(np.asarray(p_at(points), dtype=complex), points.shape)
    with np.errstate(invalid="ignore"):  # a non-finite sample spoils its ray only
        b = np.fft.fft(samples, axis=1) / m
        size = np.abs(b)
        tail = np.max(size[:, -_RING_TAIL_TERMS:], axis=1) / np.maximum(1.0, np.max(size, axis=1))
        coef = b / radius ** k
    return coef, np.where(np.isfinite(samples).all(axis=1), tail, np.inf), samples


def quasi_random_disk(n: int, r_min: float, r_max: float, seed: int = 0) -> np.ndarray:
    """n deterministic low-discrepancy points in the annulus r_min <= |z| <= r_max.

    Golden-angle spiral; the seed rotates the whole spiral so distinct
    seeds give distinct but reproducible point sets.
    """
    k = np.arange(1, n + 1, dtype=float)
    r = r_min + (r_max - r_min) * np.sqrt((k - 0.5) / n)
    theta = k * _GOLDEN_ANGLE + seed * _GOLDEN_ANGLE * 0.61803398875
    return r * np.exp(1j * theta)
