"""Small numerical kernels: the scalar test, bracketed root finding,
golden-section search, Richardson extrapolation, quasi-random disk points,
the 1% non-finite rule."""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationFailed

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


_SCALAR_TYPES = (complex, float, int, np.generic)


def is_scalar(x) -> bool:
    """``np.ndim(x) == 0``, without its ~2 us cost on Python and numpy scalars."""
    if isinstance(x, _SCALAR_TYPES):
        return True
    if isinstance(x, np.ndarray):
        return x.ndim == 0
    return np.ndim(x) == 0


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


def finite_samples(vals, what: str) -> np.ndarray:
    """Mask of the finite entries of ``vals``; more than 1% non-finite
    samples make the sample set unusable and raise EvaluationFailed."""
    finite = np.isfinite(vals)
    bad = int(finite.size - np.count_nonzero(finite))
    if bad > 0.01 * finite.size:
        raise EvaluationFailed(f"{bad} of {finite.size} {what} failed to evaluate (> 1%)")
    return finite


def golden_min(fn, a: float, b: float, xtol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimum of a unimodal fn on [a, b] -> (x, fx).

    Deterministic and derivative-free; fine for the short refinement
    sweeps where scipy's bracketing would be overkill.
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


def golden_max(fn, a: float, b: float, xtol: float = 1e-10, max_iter: int = 200):
    x, fneg = golden_min(lambda t: -fn(t), a, b, xtol, max_iter)
    return x, -fneg


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


def quasi_random_disk(n: int, r_min: float, r_max: float, seed: int = 0) -> np.ndarray:
    """n deterministic low-discrepancy points in the annulus r_min <= |z| <= r_max.

    Golden-angle spiral; the seed rotates the whole spiral so distinct
    seeds give distinct but reproducible point sets.
    """
    k = np.arange(1, n + 1, dtype=float)
    r = r_min + (r_max - r_min) * np.sqrt((k - 0.5) / n)
    theta = k * _GOLDEN_ANGLE + seed * _GOLDEN_ANGLE * 0.61803398875
    return r * np.exp(1j * theta)
