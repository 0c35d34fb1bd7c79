"""Built-in reference maps with known family memberships and orders.

Each entry records the expression text, the claims the test suite
verifies, and a one-line mathematical justification per claim.  The
parameterized builders (`cot_scaled`, `power_ratio`) produce the same
shapes at arbitrary admissible orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expressions import FunctionExpr, parse
from .shared import Family


@dataclass(frozen=True)
class FamilyClaim:
    family: Family
    order: float
    cite: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    expr_text: str
    expr: FunctionExpr
    params: dict
    claims: tuple
    univalent: bool
    is_b_form: bool
    notes: str = ""


def _entry(name, text, claims, *, params=None, univalent=True, b_form=False,
           singular=(), notes=""):
    return CatalogEntry(
        name=name,
        expr_text=text,
        expr=parse(text, singular_points=singular),
        params=dict(params or {}),
        claims=tuple(claims),
        univalent=univalent,
        is_b_form=b_form,
        notes=notes,
    )


def cot_scaled(alpha: float) -> CatalogEntry:
    """b*cot(b*z) with b = sqrt((1-alpha)/pi): constant Schwarzian 2(1-alpha)/pi."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    b = math.sqrt((1.0 - alpha) / math.pi)
    text = f"{b!r}*cot({b!r}*z)"
    return _entry(
        f"cot_scaled_a{round(alpha * 100):03d}",
        text,
        [
            FamilyClaim(
                Family.BC,
                alpha,
                "constant Schwarzian 2(1-alpha)/pi is dominated by twice the "
                "coefficient (1-alpha)/(pi(1+x^2)) whose base solution stays "
                "positive with boundary log-slope at least (1+alpha)/2",
            )
        ],
        params={"alpha": alpha, "b": b},
        b_form=True,
        singular=(0,),
        notes="pole-normalized: b*cot(b*z) = 1/z - b^2 z/3 - ...",
    )


def power_ratio(alpha: float) -> CatalogEntry:
    """eta/(1-(1-z)^eta) with eta = 2*alpha - 1, inverse convex of order alpha."""
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    eta = 2.0 * alpha - 1.0
    text = f"{eta!r}/(1-(1-z)^{eta!r})"
    return _entry(
        f"power_ratio_a{round(alpha * 100):03d}",
        text,
        [
            FamilyClaim(
                Family.BCI,
                alpha,
                "the reciprocal (1-(1-z)^eta)/eta is convex of order alpha: "
                "1 + z f''/f' = (1 + (1-eta) z/(1-z)) has real part > alpha",
            )
        ],
        params={"alpha": alpha, "eta": eta},
        b_form=True,
        singular=(0,),
    )


def _build_entries():
    entries = [
        _entry(
            "quarter_pole",
            "z/4 + 1/z",
            [
                FamilyClaim(
                    Family.BC,
                    0.5,
                    "-Re(1 + z f''/f') = Re((z^2+4)/(4-z^2)) = "
                    "(4 - r^2)/|...| >= (4-r^2)/(4+r^2) > 3/5 on the unit disk",
                )
            ],
            b_form=True,
            singular=(0,),
            notes="pole-normalized convex map onto the complement of an ellipse",
        ),
        cot_scaled(0.0),
        cot_scaled(0.3),
        cot_scaled(0.5),
        _entry(
            "inverse_log",
            "-1/log(1-z)",
            [
                FamilyClaim(
                    Family.BCI,
                    0.5,
                    "the reciprocal -log(1-z) is convex of order 1/2: "
                    "1 + z f''/f' = 1/(1-z) maps the disk into Re w > 1/2",
                )
            ],
            b_form=True,
            singular=(0,),
        ),
        power_ratio(0.25),
        _entry(
            "koebe",
            "z/(1-z)^2",
            [
                FamilyClaim(
                    Family.SSTAR,
                    0.0,
                    "extremal starlike map: Re(z f'/f) = Re((1+z)/(1-z)) > 0",
                )
            ],
            notes="univalent, starlike, but not convex: the convexity "
            "functional goes negative along the negative real axis",
        ),
        _entry(
            "koebe_reciprocal",
            "z + 1/z - 2",
            [
                FamilyClaim(
                    Family.BSSTAR,
                    0.0,
                    "-Re(z h'/h) = -Re((z+1)/(z-1)) > 0 on the disk",
                )
            ],
            b_form=True,
            singular=(0,),
            notes="reciprocal of the extremal starlike map; fails the "
            "inverse-convex inequality, witnessing proper containment",
        ),
        _entry(
            "mobius_pole",
            "(1-z)/z",
            [
                FamilyClaim(
                    Family.BC,
                    1.0,
                    "-Re(1 + z g''/g') = 1 identically (g'' / g' = -2/z)",
                ),
                FamilyClaim(
                    Family.BSSTAR,
                    0.5,
                    "-Re(z g'/g) = Re(1/(1-z)) > 1/2 on the disk",
                ),
            ],
            b_form=True,
            singular=(0,),
        ),
        _entry(
            "half_plane_log",
            "-log(1-z)",
            [
                FamilyClaim(
                    Family.C,
                    0.5,
                    "1 + z f''/f' = 1/(1-z) maps the disk into Re w > 1/2",
                )
            ],
        ),
        _entry(
            "cayley",
            "z/(1-z)",
            [
                FamilyClaim(
                    Family.C,
                    0.0,
                    "1 + z f''/f' = (1+z)/(1-z) has positive real part, "
                    "with infimum 0 toward z = -1",
                ),
                FamilyClaim(
                    Family.SSTAR,
                    0.5,
                    "z f'/f = 1/(1-z) maps the disk into Re w > 1/2",
                ),
            ],
        ),
        _entry(
            "mobius_generic",
            "(2*z + 1)/(z + 3)",
            [],
            notes="Schwarzian vanishes identically; reference input for "
            "invariance and zero-norm checks",
        ),
    ]
    return {e.name: e for e in entries}


_ENTRIES = _build_entries()


def entries() -> tuple:
    return tuple(_ENTRIES.values())


def names() -> tuple:
    return tuple(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        known = ", ".join(_ENTRIES)
        raise KeyError(f"no catalog entry {name!r}; known: {known}") from None


def catalog_json() -> list:
    """Schema: [{name, expr, params, expected: [{family, order, cite}]}]."""
    return [
        {
            "name": e.name,
            "expr": e.expr_text,
            "params": e.params,
            "expected": [
                {"family": c.family.value, "order": c.order, "cite": c.cite}
                for c in e.claims
            ],
        }
        for e in entries()
    ]
