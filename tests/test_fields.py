"""Catalog sources, potentials, and the field expression grammar."""

import numpy as np
import pytest

from fracfem.errors import ArgumentError
from fracfem.fields import (
    POTENTIALS,
    SOURCES,
    parse_field,
    source_bump,
    source_inverse_quartic,
    source_step,
    zero_field,
)


def test_catalog_keys():
    assert set(SOURCES) == {"a", "b", "c"}
    assert set(POTENTIALS) == {"zero", "x_times_1mx"}


def test_bump_values_and_structure():
    f = source_bump()
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    np.testing.assert_allclose(f(xs), xs * (1.0 - xs), rtol=1e-15)
    assert not f.is_zero
    assert all(t.anchor == 0.0 for t in f.terms)


def test_step_values_and_structure():
    # the indicator of [0, 1/2): right-continuous at the jump
    f = source_step()
    assert f(0.25) == 1.0
    assert f(0.5) == 0.0
    assert f(0.75) == 0.0
    xs = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(f(xs), np.where(xs < 0.5, 1.0, 0.0))


def test_inverse_quartic_blowup_and_hint():
    f = source_inverse_quartic()
    assert f.min_exponent_at_zero() == -0.25  # the hint, read from the power sum
    xs = np.array([1e-8, 0.5, 1.0])
    np.testing.assert_allclose(f(xs), xs**-0.25, rtol=1e-14)


def test_zero_field():
    q = zero_field()
    assert q.is_zero
    np.testing.assert_array_equal(q(np.linspace(0, 1, 5)), np.zeros(5))


# --- expression grammar --------------------------------------------------------


@pytest.mark.parametrize(
    "expr,probe",
    [
        ("x*(1-x)", lambda x: x * (1 - x)),
        ("1 - 2*x + x^2", lambda x: (1 - x) ** 2),
        ("x^-0.25", lambda x: x**-0.25),
        ("x^0.5 * x^2", lambda x: x**2.5),
        ("chi(0,0.5)", lambda x: 1.0 * (x < 0.5)),
        ("3*chi(0.25,0.75) - 1", lambda x: 3.0 * ((0.25 <= x) & (x < 0.75)) - 1.0),
        ("(1+x)*(1-x)", lambda x: 1.0 - x**2),
        ("-x + 2", lambda x: 2.0 - x),
        ("x*x*x", lambda x: x**3),
        ("(x-0.5)*chi(0.5,1)", lambda x: np.maximum(x - 0.5, 0.0)),
        # integer powers at the smaller anchor expand about the larger one
        ("chi(0.5,1)^2", lambda x: 1.0 * (x >= 0.5)),
        ("chi(0.25,1)*chi(0.5,1)", lambda x: 1.0 * (x >= 0.5)),
        ("chi(0.25,0.75)*(x-0.5)^2", lambda x: ((0.25 <= x) & (x < 0.75)) * (x - 0.5) ** 2),
        ("chi(0.25,0.75)*chi(0.5,1)*(x-0.5)", lambda x: ((0.5 <= x) & (x < 0.75)) * (x - 0.5)),
    ],
)
def test_grammar_matches_reference(expr, probe):
    field = parse_field(expr)
    xs = np.linspace(0.01, 0.99, 37)
    xs = xs[np.abs(xs - 0.5) > 0.02]  # jump conventions differ exactly at breaks
    np.testing.assert_allclose(field(xs), probe(xs), rtol=1e-12, atol=1e-12)


def test_grammar_rejects_malformed_input():
    for expr in ("x +", "x ^ y", "chi(0.5,0.25)", "x * * x", "(x", "q"):
        with pytest.raises(ArgumentError):
            parse_field(expr)


def test_deep_nesting_is_a_typed_error():
    # the recursive descent runs out of stack; the error must stay typed
    with pytest.raises(ArgumentError, match="nests too deeply"):
        parse_field("(" * 400 + "x" + ")" * 400)
    # long flat sums loop rather than recurse
    assert parse_field(" + ".join(["x"] * 3000))(0.5) == pytest.approx(1500.0)


def test_grammar_rejects_unrepresentable_products():
    # chi(0.25,1)*chi(0.5,1) is chi(0.5,1), but x^0.5 at the smaller anchor
    # has no expansion about 0.5
    with pytest.raises(ArgumentError):
        parse_field("chi(0.25,1)*chi(0.5,1)*x^0.5")


@pytest.mark.parametrize("expr", ["0", "0*x", "2*(x-x)", "x-x"])
def test_cancelling_terms_give_the_zero_field(expr):
    assert parse_field(expr).is_zero
