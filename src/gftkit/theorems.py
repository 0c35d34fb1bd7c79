"""Cross-route consistency checks for the three structural results the
toolkit is built around:

* ``sufficiency``: Schwarzian domination |S_f| <= 2 q(|z|) by a
  coefficient in the positivity class of order (1+alpha)/2 forces
  pole-normalized convexity of order alpha.
* ``duality``: g is inverse convex of order alpha exactly when
  h = 1/(z (1/g)') is pole-normalized starlike of order alpha.
* ``inclusions``: order classes nest, are scale invariant, and sit
  properly inside pole-normalized starlikeness of order 0.

Each check runs every hypothesis and the conclusion independently and
reports whether the observed verdicts are consistent with the
implication; it never assumes the result to shortcut the computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shared
from .expressions import FunctionExpr, parse, var_expr
from .families import DiskSampler, Family, GridField, membership, order_estimate
from .numerics import Extremum
from .palpha import QFunction, check_palpha
from .schwarzian import schwarzian_of_jet

CHECK_IDS = shared.CHECK_IDS  # defined numpy-free, for the command line's choices


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class TheoremReport:
    check_id: str
    subject: str
    items: tuple
    hypotheses_hold: bool
    conclusion_holds: bool
    consistent: bool

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def dual_transform(g: FunctionExpr) -> FunctionExpr:
    """h = 1 / (z * (1/g)'), the starlike partner of an inverse-convex g."""
    return 1.0 / (var_expr(g.variable) * (1.0 / g).derivative())


def verify_sufficiency(
    f: FunctionExpr,
    q: QFunction,
    alpha: float,
    sampler: DiskSampler = None,
    dominance_tol: float = 1e-8,
    tol: float = 1e-6,
) -> TheoremReport:
    """Hypotheses: |S_f(z)| <= 2 q(|z|) on the sampled disk, and q lies in
    the positivity class of order (1+alpha)/2.  Conclusion: f is
    pole-normalized convex of order alpha on the same grid."""
    # the dominance hypothesis is reduced in the grid's one pass, from the same
    # block jets as the conclusion: the least slack 2q(|z|) - |S_f| and its
    # point; q is read only where S_f is finite, the other points enter as NaN
    slack = Extremum()

    def dominance(z, jet):
        s = schwarzian_of_jet(jet)
        ok = np.isfinite(s)
        vals = np.full(s.shape, np.nan)
        if ok.any():
            vals[ok] = 2.0 * q(np.abs(z[ok])) - np.abs(s[ok])
        slack.add(vals, z)

    field = GridField(f, sampler, (Family.BC,), each_block=dominance)
    least, at = slack.best("Schwarzian samples")
    dom_margin = -float(least)
    dominated = dom_margin <= dominance_tol

    target = 0.5 * (1.0 + alpha)
    pv = check_palpha(q, target, tol=tol)
    q_margin = pv.limit_estimate - target

    concl = field.verdict(Family.BC, alpha, tol)

    items = (
        CheckItem(
            "schwarzian_dominated",
            dominated,
            -dom_margin,
            f"max(|S_f| - 2q) = {dom_margin:.3e} at {complex(at)!r} over {slack.finite} samples",
        ),
        CheckItem(
            "coefficient_class",
            pv.member,
            float(q_margin) if pv.positive_on_01 else float("-inf"),
            f"positive={pv.positive_on_01}, boundary log-slope {pv.limit_estimate:.9f} "
            f"vs target {target}",
        ),
        CheckItem(
            "convexity_conclusion",
            concl.holds_on_samples,
            concl.margin,
            f"grid margin {concl.margin:.3e} at witness {concl.witness:.6f}",
        ),
    )
    hyp = dominated and pv.member
    return TheoremReport(
        check_id="sufficiency",
        subject=str(f),
        items=items,
        hypotheses_hold=hyp,
        conclusion_holds=concl.holds_on_samples,
        consistent=not (hyp and not concl.holds_on_samples),
    )


def verify_duality(
    g: FunctionExpr, alpha: float, sampler: DiskSampler = None, tol: float = 1e-6
) -> TheoremReport:
    """Equivalence check: inverse-convex verdict for g against the
    pole-normalized starlike verdict for h = 1/(z (1/g)')."""
    h = dual_transform(g)
    vg = membership(g, Family.BCI, alpha, sampler=sampler, tol=tol)
    vh = membership(h, Family.BSSTAR, alpha, sampler=sampler, tol=tol)
    items = (
        CheckItem(
            "inverse_convex_side",
            vg.holds_on_samples,
            vg.margin,
            f"margin {vg.margin:.3e} at {vg.witness:.6f}",
        ),
        CheckItem(
            "starlike_partner_side",
            vh.holds_on_samples,
            vh.margin,
            f"h = {h}, margin {vh.margin:.3e} at {vh.witness:.6f}",
        ),
    )
    return TheoremReport(
        check_id="duality",
        subject=str(g),
        items=items,
        hypotheses_hold=vg.holds_on_samples,
        conclusion_holds=vh.holds_on_samples,
        consistent=vg.holds_on_samples == vh.holds_on_samples,
    )


_WITNESS_TEXT = "z + 1/z - 2"


def verify_inclusions(
    g: FunctionExpr, alphas, sampler: DiskSampler = None, tol: float = 1e-6
) -> TheoremReport:
    """Structure of the inverse-convex order classes, probed on g:

    (i) verdicts nest downward in alpha; (ii) the sampled order is exactly
    scale invariant (g -> lam g for lam = 2 and lam = i); (iii) any
    member is pole-normalized starlike of order 0, and the containment is
    proper, witnessed by z + 1/z - 2.
    """
    field = GridField(g, sampler, (Family.BCI, Family.BSSTAR))
    alphas = tuple(sorted(float(a) for a in alphas))
    verdicts = [field.verdict(Family.BCI, a, tol) for a in alphas]
    holds = [v.holds_on_samples for v in verdicts]
    nested = all(holds[i] or not holds[i + 1] for i in range(len(holds) - 1))
    nest_item = CheckItem(
        "orders_nest",
        nested,
        min(v.margin for v in verdicts),
        " ".join(f"alpha={a}:{'ok' if h else 'fail'}" for a, h in zip(alphas, holds)),
    )

    base = field.order_estimate(Family.BCI)
    # 2g and ig get their own grid evaluations: scale invariance is under test
    drift = max(
        abs(order_estimate(lam * g, Family.BCI, sampler=sampler) - base)
        for lam in (2.0, 1j)
    )
    scale_item = CheckItem(
        "scale_invariant",
        drift <= 1e-12,
        -drift,
        f"order {base:.9f}, worst drift {drift:.3e} under lam in {{2, i}}",
    )

    bs0 = field.verdict(Family.BSSTAR, 0.0, tol)
    member_anywhere = any(holds)
    containment_ok = bs0.holds_on_samples or not member_anywhere
    wit = GridField(parse(_WITNESS_TEXT, singular_points=(0,)), sampler,
                    (Family.BCI, Family.BSSTAR))
    wit_bs = wit.verdict(Family.BSSTAR, 0.0, tol)
    wit_bci = wit.verdict(Family.BCI, 0.0, tol)
    proper = wit_bs.holds_on_samples and not wit_bci.holds_on_samples
    contain_item = CheckItem(
        "contained_in_starlike0",
        containment_ok,
        bs0.margin,
        f"starlike-0 margin {bs0.margin:.3e}",
    )
    proper_item = CheckItem(
        "containment_proper",
        proper,
        wit_bci.margin,
        f"witness {_WITNESS_TEXT}: starlike-0 margin {wit_bs.margin:.3e}, "
        f"inverse-convex margin {wit_bci.margin:.3e}",
    )

    items = (nest_item, scale_item, contain_item, proper_item)
    all_ok = all(it.passed for it in items)
    return TheoremReport(
        check_id="inclusions",
        subject=str(g),
        items=items,
        hypotheses_hold=member_anywhere,
        conclusion_holds=all_ok,
        consistent=all_ok,
    )
