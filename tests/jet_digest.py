"""Print one sha256 over the full-precision jets and series of the catalog
maps and of the maps the theorem and invariance checks derive from them.

Run it on two checkouts to show that a change to the evaluators moves no
bit of any jet or series::

    PYTHONPATH=<checkout>/src python tests/jet_digest.py

For each catalog map f it covers f, its dual h = 1/(z (1/f)'), h', 1/f,
a Mobius image T o f, 2f and if: scalar jets at fixed points, array jets
on 3 000 points and on one array longer than one 8 192-point block, and
order-8 Taylor series about three real centres.  Jets are read at the
default order 3.  A raised error enters the digest as its repr.  Not a
test module: pytest does not collect it.
"""

import hashlib

import numpy as np

from gftkit import compose_mobius
from gftkit.catalog import entries
from gftkit.theorems import dual_transform

SCALAR_POINTS = (0.5, -0.5, 0.3 + 0.4j, -0.2 - 0.7j, 0.9j, 0.05 + 0.01j, 0.0, 1.0,
                 complex(-0.5, -0.0), 0.999 * np.exp(2.1j))
SERIES_CENTRES = (0.25, 0.5, -0.4)


def _points(n, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0.0, 0.998, n)) * np.exp(2j * np.pi * rng.uniform(size=n))


ARRAYS = (_points(3000, 1), _points(20000, 2))


def _derived(f):
    h = dual_transform(f)
    return {"f": f, "h": h, "h'": h.derivative(), "1/f": 1.0 / f,
            "T(f)": compose_mobius(f, 1.0, 2.0, 0.5, 3.0), "2f": 2.0 * f, "if": 1j * f}


def _feed(digest, value):
    if value is None:
        digest.update(b"None")
    else:
        digest.update(type(value).__name__.encode())
        digest.update(np.asarray(value, dtype=complex).tobytes())


def _entries(digest, fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # every outcome enters the digest, errors included
        digest.update(repr(exc).encode())
        return
    for value in (out.v0, out.v1, out.v2, out.v3) if hasattr(out, "v0") else (out,):
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
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
