"""Print one sha256 over the full-precision jets and series of the catalog
maps, of the maps the theorem and invariance checks derive from them, and
of seeded random expression trees.

Run it on two checkouts to show that a change to the evaluators moves no
bit of any jet or series::

    PYTHONPATH=<checkout>/src python tests/jet_digest.py

For each catalog map f it covers f, its dual h = 1/(z (1/f)'), h', 1/f,
a Mobius image T o f, 2f and if: one-point jets at fixed points, array jets
on 3 000 points and on one array longer than one 8 192-point block, and
order-8 Taylor series about three real centres, all at the default jet
order 3.  For each of 3 000 random trees over the whole grammar (integer
exponents from -3 to 7, the constants 1e309 and exp(800), signed zeros) it
covers the one-point and the array jets of every order 0 to 3 and order-5
series about three centres.

A jet is read entry by entry, whether it is a Jet3 or a tuple, and an
entry above the jet's order, which a Jet3 holds as None, is skipped.  A NaN
enters the digest by its place alone: its sign and payload bits are not
part of the result (numpy's may depend on what the process ran before).  A
raised error enters as its repr.  Not a test module: pytest does not
collect it.
"""

import hashlib
import random

import numpy as np

from gftkit import compose_mobius, parse
from gftkit.catalog import entries
from gftkit.theorems import dual_transform

SCALAR_POINTS = (0.5, -0.5, 0.3 + 0.4j, -0.2 - 0.7j, 0.9j, 0.05 + 0.01j, 0.0, 1.0,
                 complex(-0.5, -0.0), 0.999 * np.exp(2.1j))
SERIES_CENTRES = (0.25, 0.5, -0.4)


def _points(n, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0.0, 0.998, n)) * np.exp(2j * np.pi * rng.uniform(size=n))


ARRAYS = (_points(3000, 1), _points(20000, 2))

TREES, TREE_SEED = 3000, 2024
FUNCS = ("sin", "cos", "tan", "cot", "exp", "log", "sqrt")
EXPONENTS = ("0", "1", "2", "3", "4", "7", "-1", "-2", "-3", "0.5", "-0.5", "1.5", "-2.25")
CONSTANTS = ("i", "pi", "0", "-(0)", "1", "2", "1e309", "exp(800)")
TREE_POINTS = (0.5, 0.3 - 0.4j, 0j, complex(-0.0, -0.0), complex(0.0, -0.0), -1.0, 0.7j)
TREE_ARRAY = np.array([0.5, -0.25 + 0.6j, complex(-0.0, 0.0), 0.9, -0.3 - 0.3j])


def _tree(rng, depth=4):
    """Expression text over the whole grammar, up to ``depth`` levels."""
    kind = rng.randrange(10) if depth else 0
    if kind == 0:
        leaf = rng.random()
        if leaf < 0.5:
            return "z"
        if leaf < 0.75:
            return rng.choice(CONSTANTS)
        x = f"{rng.uniform(0.1, 3.0):.4g}"
        return x if leaf < 0.9 else f"({x}+{rng.uniform(0.1, 3.0):.4g}*i)"
    if kind <= 4:
        return f"({_tree(rng, depth - 1)}){rng.choice('+-*/')}({_tree(rng, depth - 1)})"
    if kind == 5:
        return f"-({_tree(rng, depth - 1)})"
    if kind <= 7:
        return f"({_tree(rng, depth - 1)})^{rng.choice(EXPONENTS)}"
    return f"{rng.choice(FUNCS)}({_tree(rng, depth - 1)})"


def _derived(f):
    h = dual_transform(f)
    return {"f": f, "h": h, "h'": h.derivative(), "1/f": 1.0 / f,
            "T(f)": compose_mobius(f, 1.0, 2.0, 0.5, 3.0), "2f": 2.0 * f, "if": 1j * f}


def _feed(digest, value):
    digest.update(type(value).__name__.encode())
    a = np.asarray(value, dtype=complex)
    digest.update(str(a.shape).encode())
    for part in (a.real, a.imag):
        nan = np.isnan(part)
        digest.update(nan.tobytes())
        digest.update(np.where(nan, 0.0, part).tobytes())


def _entries(digest, fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # every outcome enters the digest, errors included
        digest.update(repr(exc).encode())
        return
    if hasattr(out, "v0"):
        out = (out.v0, out.v1, out.v2, out.v3)
    for value in out if isinstance(out, tuple) else (out,):
        if value is not None:
            _feed(digest, value)


def main():
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for entry in entries():
            for name, g in _derived(entry.expr).items():
                digest.update(f"{entry.name} {name}".encode())
                for z in SCALAR_POINTS:
                    _entries(digest, g.jet, z)
                for z in ARRAYS:
                    _entries(digest, g.jet, z)
                for x0 in SERIES_CENTRES:
                    _entries(digest, g.series, x0, 8)
        rng = random.Random(TREE_SEED)
        for _ in range(TREES):
            text = _tree(rng)
            digest.update(text.encode())
            f = parse(text)
            for order in range(4):
                for z in TREE_POINTS + (TREE_ARRAY,):
                    _entries(digest, f.jet, z, order)
            for x0 in SERIES_CENTRES:
                _entries(digest, f.series, x0, 5)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
