"""Structural checks: sufficiency, duality, and class inclusions.

Each verifier runs hypotheses and conclusion independently and only
reports whether the observed verdicts are consistent with the
implication, so these tests exercise satisfied, vacuous, and failing
configurations.
"""

import math

import numpy as np
import pytest

from gftkit import (
    QFunction,
    catalog,
    dual_transform,
    eval_jet,
    verify_duality,
    verify_inclusions,
    verify_sufficiency,
)
from gftkit.errors import EvaluationFailed
from gftkit.expressions import parse
from gftkit.families import DiskSampler
from gftkit.schwarzian import schwarzian
from gftkit.theorems import CHECK_IDS

pytestmark = pytest.mark.filterwarnings(
    "ignore::gftkit.errors.UnivalenceNotChecked"
)

SAMPLER = DiskSampler(rings=24, points_per_ring=128)


def test_check_id_registry():
    assert CHECK_IDS == ("sufficiency", "duality", "inclusions")


# -- sufficiency ---------------------------------------------------------------


def test_sufficiency_satisfied_for_the_cot_map():
    alpha = 0.4
    f = catalog.cot_scaled(alpha).expr
    q = QFunction.from_expression(f"{(2 - 2 * alpha) / math.pi!r}/(1 + x^2)")
    rep = verify_sufficiency(f, q, alpha, sampler=SAMPLER)
    assert rep.check_id == "sufficiency" and rep.subject == str(f)
    assert rep.hypotheses_hold and rep.conclusion_holds and rep.consistent
    assert all(it.passed for it in rep.items)
    # |S| = 2q exactly on the boundary circle; strictly below inside
    assert 0 < rep.item("schwarzian_dominated").margin < 1e-3


def test_sufficiency_with_a_vanishing_coefficient():
    f = catalog.get_entry("mobius_pole").expr
    rep = verify_sufficiency(f, QFunction.constant(0.0), 0.9, sampler=SAMPLER)
    assert rep.hypotheses_hold and rep.conclusion_holds and rep.consistent
    assert abs(rep.item("schwarzian_dominated").margin) <= 1e-12  # S = 0
    assert rep.item("coefficient_class").margin == pytest.approx(0.05, abs=1e-6)
    assert rep.item("convexity_conclusion").margin == pytest.approx(0.1, abs=1e-6)


def test_sufficiency_vacuous_when_the_coefficient_class_fails():
    # constant coefficient tuned to boundary slope 1/2, far below the
    # required (1 + 0.7)/2; conclusion fails too, so no contradiction
    f = catalog.get_entry("quarter_pole").expr
    q = QFunction.constant(1.3585328764616391)
    rep = verify_sufficiency(f, q, 0.7, sampler=SAMPLER)
    assert not rep.hypotheses_hold and not rep.conclusion_holds and rep.consistent
    assert rep.item("schwarzian_dominated").passed
    assert rep.item("coefficient_class").margin == pytest.approx(-0.35, abs=1e-6)
    assert rep.item("convexity_conclusion").margin == pytest.approx(-0.0994, abs=1e-3)


def test_sufficiency_vacuous_when_dominance_fails():
    f = catalog.get_entry("quarter_pole").expr
    rep = verify_sufficiency(f, QFunction.constant(0.0), 0.5, sampler=SAMPLER)
    assert not rep.hypotheses_hold  # |S| > 0 = 2q
    assert rep.conclusion_holds and rep.consistent
    assert not rep.item("schwarzian_dominated").passed
    assert rep.item("schwarzian_dominated").margin < -2.0


def test_sufficiency_refuses_degenerate_maps():
    with pytest.raises(EvaluationFailed):
        verify_sufficiency(
            parse("2 + 0*z"), QFunction.constant(0.0), 0.5, sampler=SAMPLER
        )


@pytest.mark.parametrize("q", [QFunction.constant(1.5),
                               QFunction.from_expression(parse("2*(1-x)+3*x^4", variable="x"))],
                         ids=["1.5", "2*(1-x)+3*x^4"])
def test_dominance_reports_a_witness_that_reproduces_its_maximum(q):
    sampler = DiskSampler(rings=64, points_per_ring=512)
    for entry in catalog.entries():
        item = verify_sufficiency(entry.expr, q, 0.2, sampler=sampler).item(
            "schwarzian_dominated")
        z = np.array([complex(item.detail.split(" at ")[1].split(" over ")[0])])
        s = schwarzian(entry.expr, z)
        assert np.abs(s[0]) - 2.0 * q(np.abs(z))[0] == -item.margin, entry.name


def test_report_item_lookup():
    f = catalog.get_entry("mobius_pole").expr
    rep = verify_sufficiency(f, QFunction.constant(0.0), 0.5, sampler=SAMPLER)
    with pytest.raises(KeyError):
        rep.item("no_such_item")


# -- duality -------------------------------------------------------------------


def test_dual_transform_closed_forms():
    z = np.array([0.3 + 0.4j, -0.2 + 0.1j, 0.05 - 0.6j])
    h1 = dual_transform(catalog.get_entry("inverse_log").expr)
    h2 = dual_transform(catalog.get_entry("power_ratio_a025").expr)
    for zz in z:
        assert abs(eval_jet(h1, zz)[0] - (1 - zz) / zz) <= 1e-12
        assert abs(eval_jet(h2, zz)[0] - (1 - zz) ** 1.5 / zz) <= 1e-12


@pytest.mark.parametrize(
    "name, alpha",
    [("inverse_log", 0.5), ("power_ratio_a025", 0.25)],
)
def test_duality_agrees_when_both_sides_hold(name, alpha):
    rep = verify_duality(catalog.get_entry(name).expr, alpha, sampler=SAMPLER)
    assert rep.check_id == "duality"
    assert rep.hypotheses_hold and rep.conclusion_holds and rep.consistent
    assert rep.item("inverse_convex_side").passed
    assert rep.item("starlike_partner_side").passed


def test_duality_agrees_when_both_sides_fail():
    rep = verify_duality(
        catalog.get_entry("koebe_reciprocal").expr, 0.0, sampler=SAMPLER
    )
    assert not rep.hypotheses_hold and not rep.conclusion_holds
    assert rep.consistent  # equivalence: both verdicts flip together


# -- inclusions ----------------------------------------------------------------


def test_inclusions_on_a_boundary_order_member():
    rep = verify_inclusions(
        catalog.get_entry("mobius_pole").expr, (0.0, 0.25, 0.5), sampler=SAMPLER
    )
    assert rep.check_id == "inclusions"
    assert rep.hypotheses_hold and rep.conclusion_holds and rep.consistent
    nest = rep.item("orders_nest")
    assert nest.passed and "alpha=0.0:ok" in nest.detail and "alpha=0.5:fail" in nest.detail
    assert rep.item("scale_invariant").passed
    assert rep.item("scale_invariant").margin == 0.0  # drift is exactly zero
    assert rep.item("contained_in_starlike0").margin == pytest.approx(0.5, abs=1e-3)
    assert rep.item("containment_proper").passed


def test_inclusions_hold_vacuously_for_the_gap_witness():
    # z + 1/z - 2 is starlike-0 but not inverse convex of any order:
    # every class verdict is negative, so nesting and containment are
    # unchallenged while the properness witness still separates
    rep = verify_inclusions(
        catalog.get_entry("koebe_reciprocal").expr, (0.0, 0.5), sampler=SAMPLER
    )
    assert not rep.hypotheses_hold
    assert rep.conclusion_holds and rep.consistent
    assert rep.item("containment_proper").passed
    assert rep.item("containment_proper").margin < -100
