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
