"""Small numerical kernels: bracketed root finding,
golden-section search and the grid-minimum polish, Richardson extrapolation,
Taylor coefficients from a ring of samples, quasi-random disk points, polar
grids streamed in blocks of whole rings, the one reduction of a sampled
quantity (``Extremum``, home of the 1% non-finite rule), sorted distinct
values."""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationFailed, GftError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def bisect(fn, a: float, b: float, xtol: float = 1e-14, max_iter: int = 200) -> float:
    """Root of fn on [a, b] by plain bisection; requires a sign change."""
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    for _ in range(max_iter):
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
# loops do not round commutatively.
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
    z = (radii[:, None] * phases[None, :]).ravel()
    far = [np.abs(z - complex(c)) >= radius for c in centers]
    return z[np.logical_and.reduce(far)] if far else z


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


def golden_min(fn, a: float, b: float, xtol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimum of a unimodal fn on [a, b] -> (x, fx).

    Deterministic and derivative-free; fine for the short refinement
    sweeps where a bracketing optimiser would be overkill.
    """
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if h < xtol:
            break
        h *= _INVPHI
        if fc < fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def golden_polish(fn, z0, f0: float, dr: float, dth: float, r_lo: float, r_hi: float,
                  rounds: int):
    """Polish a grid minimum f0 = fn(z0) off the grid -> (value, point).

    Each round runs a golden sweep in radius within dr of the best point,
    kept inside [r_lo, r_hi], then one in angle within dth; it keeps only
    improvements and quarters both brackets.  ``fn`` is called at scalar
    points r e^{i theta}; a probe that raises GftError or is not finite
    counts as +inf, so it never wins.
    """
    best, r_w, th_w = f0, float(np.abs(z0)), float(np.angle(z0))

    def probe(z) -> float:
        try:
            v = fn(z)
        except GftError:
            return np.inf
        return v if np.isfinite(v) else np.inf

    for _ in range(rounds):
        r, v = golden_min(lambda r: probe(r * np.exp(1j * th_w)),
                          max(r_lo, r_w - dr), min(r_hi, r_w + dr))
        if v < best:
            best, r_w = v, r
        t, v = golden_min(lambda t: probe(r_w * np.exp(1j * t)), th_w - dth, th_w + dth)
        if v < best:
            best, th_w = v, t
        dr *= 0.25
        dth *= 0.25
    return best, complex(r_w * np.exp(1j * th_w))


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
    ring = radius * np.exp(2j * np.pi * np.arange(m) / m)
    points = centers[:, None] + phases[:, None] * ring
    samples = np.broadcast_to(np.asarray(p_at(points), dtype=complex), points.shape)
    with np.errstate(invalid="ignore"):  # a non-finite sample spoils its ray only
        b = np.fft.fft(samples, axis=1) / m
        size = np.abs(b)
        tail = np.max(size[:, -_RING_TAIL_TERMS:], axis=1) / np.maximum(1.0, np.max(size, axis=1))
        coef = b / radius ** np.arange(m)
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
