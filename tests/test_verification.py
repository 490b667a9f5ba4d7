"""Tests for the property bookkeeping of the ``verify`` suites."""

import math

import pytest

from bailab.verification import _Check


@pytest.mark.parametrize("rule", ["<=", "<", ">=", ">"])
def test_all_nan_property_fails_with_its_witness(rule):
    check = _Check("x", rule, 1e-6)
    check.update(math.nan, i=0)
    check.update(math.nan, i=1)
    result = check.result(2)
    assert not result.passed
    assert math.isnan(result.worst)
    assert result.witness == {"i": 0}


@pytest.mark.parametrize("rule, values", [
    ("<=", [1e-9, 2e-9]),
    (">=", [2.0, 3.0]),
])
def test_nan_among_finite_values_is_the_sticky_worst(rule, values):
    check = _Check("x", rule, 1e-6 if rule == "<=" else 1.0)
    check.update(values[0], i=0)
    check.update(math.nan, i=1)
    check.update(values[1], i=2)
    result = check.result(3)
    assert not result.passed
    assert math.isnan(result.worst)
    assert result.witness == {"i": 1}


def test_finite_values_keep_the_worst():
    check = _Check("x", "<=", 1.0)
    for i, value in enumerate([0.2, 0.7, 0.5]):
        check.update(value, i=i)
    result = check.result(3)
    assert result.passed and result.worst == 0.7 and result.witness == {"i": 1}
