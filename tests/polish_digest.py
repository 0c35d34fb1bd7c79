"""Print every catalog order estimate and every catalog Schwarzian norm at
full precision, one ``repr`` per line.

Run it on two checkouts to list what a change to the grid or the polish
moves::

    PYTHONPATH=<checkout>/src python tests/polish_digest.py > digest.txt

The order estimates are ``order_estimate(f, family)`` for each catalog map
and each of the five families, on the default 64x512 disk grid.  The norms
are ``schwarzian_norm(f, rings, points)`` on the 64x512 and the 24x128
grids, with the default three polish rounds, each line with its argmax.  An
estimate that raises prints the error's repr.  Not a test module: pytest
does not collect it.
"""

import warnings

from gftkit import Family, order_estimate, schwarzian_norm
from gftkit.catalog import entries
from gftkit.errors import UnivalenceNotChecked

NORM_GRIDS = ((64, 512), (24, 128))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every outcome is printed, errors included
        return exc


def main():
    warnings.simplefilter("ignore", UnivalenceNotChecked)
    for entry in entries():
        for family in Family:
            value = _outcome(order_estimate, entry.expr, family)
            print(f"order {entry.name} {family.value} {value!r}")
    for rings, points in NORM_GRIDS:
        for entry in entries():
            est = _outcome(schwarzian_norm, entry.expr, rings=rings, points_per_ring=points)
            shown = est if isinstance(est, Exception) else f"{est.lower_bound!r} at {est.argmax!r}"
            print(f"norm {rings}x{points} {entry.name} {shown}")


if __name__ == "__main__":
    main()
