"""Names the numpy-free layers share with the numeric ones.

The parser, the catalog and the command line's argument handling import
only this module, ``errors`` and ``expressions``, so that a listing or a
malformed input is answered without loading numpy.  ``families`` and
``theorems`` re-export what they define here.
"""

from __future__ import annotations

from enum import Enum


class Family(str, Enum):
    C = "c"
    SSTAR = "sstar"
    BC = "bc"
    BSSTAR = "bsstar"
    BCI = "bci"


# Families whose members carry the normalized simple pole at the origin;
# their functional has the removable limit value 1 at z = 0.
B_FAMILIES = frozenset({Family.BC, Family.BSSTAR, Family.BCI})

CHECK_IDS = ("sufficiency", "duality", "inclusions")

_NUMBERS = (complex, float, int)  # numpy's float64 and complex128 subclass these


def is_scalar(x) -> bool:
    """``np.ndim(x) == 0``, without its ~2 us cost on Python and numpy
    scalars, and without importing numpy for them: numpy values answer by
    their own ``ndim``."""
    if isinstance(x, _NUMBERS):
        return True
    dims = getattr(x, "ndim", None)
    if dims is None:  # a sequence or another object: numpy decides, as np.ndim does
        import numpy

        dims = numpy.ndim(x)
    return dims == 0
