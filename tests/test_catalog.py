"""Reference-map catalog: claims, pole form, JSON export."""

import numpy as np
import pytest
from jsonschema import validate

from gftkit import Family, laurent_b_check, membership, order_estimate
from gftkit.catalog import (
    catalog_json,
    cot_scaled,
    entries,
    get_entry,
    names,
    power_ratio,
)
from gftkit.jets import variable
from gftkit.numerics import quasi_random_disk

pytestmark = pytest.mark.filterwarnings(
    "ignore::gftkit.errors.UnivalenceNotChecked"
)

_CATALOG_SCHEMA = {
    "type": "array",
    "minItems": 10,
    "items": {
        "type": "object",
        "required": ["name", "expr", "params", "expected"],
        "additionalProperties": False,
        "properties": {
            "name": {"type": "string", "pattern": r"^[a-z][a-z0-9_]*$"},
            "expr": {"type": "string", "minLength": 1},
            "params": {"type": "object"},
            "expected": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["family", "order", "cite"],
                    "additionalProperties": False,
                    "properties": {
                        "family": {"enum": ["c", "sstar", "bc", "bsstar", "bci"]},
                        "order": {"type": "number", "minimum": 0, "maximum": 1},
                        "cite": {"type": "string", "minLength": 1},
                    },
                },
            },
        },
    },
}


def test_catalog_json_schema():
    js = catalog_json()
    validate(js, _CATALOG_SCHEMA)
    assert [e["name"] for e in js] == list(names())


def test_names_are_unique_and_resolvable():
    assert len(set(names())) == len(names())
    for n in names():
        assert get_entry(n).name == n
    with pytest.raises(KeyError):
        get_entry("no_such_map")


@pytest.mark.parametrize("name", names())
def test_every_entry_evaluates_on_the_punctured_disk(name):
    e = get_entry(name)
    z = quasi_random_disk(10_000, 2e-3, 0.999, seed=3)
    for s in e.expr.singular_points:
        z = z[np.abs(z - s) >= e.expr.exclusion_radius]
    for comp in e.expr.jet(z):
        assert np.isfinite(comp).all()


@pytest.mark.parametrize("name", names())
def test_entry_claims_hold_on_samples(name):
    e = get_entry(name)
    for claim in e.claims:
        if claim.order < 1.0:
            v = membership(e.expr, claim.family, claim.order)
            assert v.holds_on_samples, (
                f"{name}: {claim.family.value}({claim.order}) margin {v.margin}"
            )
        else:
            # order-1 claims sit on the parameter boundary; check the
            # sampled order instead of a membership verdict
            est = order_estimate(e.expr, claim.family)
            assert est >= 1.0 - 1e-6, f"{name}: sampled order {est}"


@pytest.mark.parametrize("name", names())
def test_declared_pole_form_matches_probe(name):
    e = get_entry(name)
    assert laurent_b_check(e.expr).is_b_form == e.is_b_form


def test_cot_scale_factory():
    e = cot_scaled(0.3)
    b = e.params["b"]
    assert abs(b * b - (1.0 - 0.3) / np.pi) <= 1e-15
    # Laurent head is the normalized pole
    probe = laurent_b_check(e.expr)
    assert probe.is_b_form and abs(probe.a0_estimate) <= 1e-8
    with pytest.raises(ValueError):
        cot_scaled(1.0)


def test_power_ratio_factory():
    e = power_ratio(0.25)
    assert e.params["eta"] == -0.5
    assert laurent_b_check(e.expr).is_b_form
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            power_ratio(bad)


def test_quarter_pole_frozen_values():
    f = get_entry("quarter_pole").expr
    # f(0.5) = 2.125, f'(0.5) = 1/4 - 4 = -3.75
    assert f.jet(0.5) == (2.125, -3.75, 16.0, -96.0)  # f'', f''': pure pole contribution
