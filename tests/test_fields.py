"""Catalog sources, potentials, and the field expression grammar."""

import numpy as np
import pytest

from fracfem.errors import ArgumentError, DomainError
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
    np.testing.assert_allclose(f.fn(xs), xs * (1.0 - xs), rtol=1e-15)
    np.testing.assert_allclose(f.powersum(xs), xs * (1.0 - xs), rtol=1e-15)
    assert not f.is_zero
    assert f.powersum.is_zero_anchored


def test_step_values_and_structure():
    f = source_step()
    assert f.fn(0.25) == 1.0
    assert f.fn(0.5) == 1.0
    assert f.fn(0.75) == 0.0
    xs = np.linspace(0.0, 1.0, 9)
    # the power-sum form uses the right-continuous convention at the jump
    expect = np.where(xs < 0.5, 1.0, 0.0)
    expect[xs == 0.5] = 0.0
    got = f.powersum(xs)
    assert np.all((got == 0.0) | (got == 1.0))
    # both representations agree away from the jump point
    away = xs != 0.5
    np.testing.assert_array_equal(got[away], np.where(xs <= 0.5, 1.0, 0.0)[away])


def test_inverse_quartic_blowup_and_hint():
    f = source_inverse_quartic()
    assert f.hint == pytest.approx(-0.25)
    xs = np.array([1e-8, 0.5, 1.0])
    np.testing.assert_allclose(f.fn(xs), xs**-0.25, rtol=1e-14)


def test_zero_field():
    q = zero_field()
    assert q.is_zero
    np.testing.assert_array_equal(q.fn(np.linspace(0, 1, 5)), np.zeros(5))


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
    ],
)
def test_grammar_matches_reference(expr, probe):
    hint = -0.25 if "-0.25" in expr else 0.0
    field = parse_field(expr, hint)
    xs = np.linspace(0.01, 0.99, 37)
    xs = xs[np.abs(xs - 0.5) > 0.02]  # jump conventions differ exactly at breaks
    np.testing.assert_allclose(field.fn(xs), probe(xs), rtol=1e-12, atol=1e-12)


def test_grammar_rejects_malformed_input():
    for expr in ("x +", "x ^ y", "chi(0.5,0.25)", "x * * x", "(x", "q"):
        with pytest.raises(ArgumentError):
            parse_field(expr, 0.0)


def test_deep_nesting_is_a_typed_error():
    # the recursive descent runs out of stack; the error must stay typed
    with pytest.raises(ArgumentError, match="nests too deeply"):
        parse_field("(" * 400 + "x" + ")" * 400, 0.0)
    # long flat sums loop rather than recurse
    assert parse_field(" + ".join(["x"] * 3000), 0.0)(0.5) == pytest.approx(1500.0)


def test_grammar_rejects_unrepresentable_products():
    # two shifted factors have no shifted-power product form
    with pytest.raises(ArgumentError):
        parse_field("chi(0.25,1)*chi(0.5,1)*x^0.5", 0.0)


def test_hint_is_mandatory_and_checked():
    with pytest.raises(ArgumentError):
        parse_field("x", None)
    # claiming smoothness while the expression blows up at zero is an error
    with pytest.raises(DomainError):
        parse_field("x^-0.5", 0.0)


def test_parsed_field_keeps_label():
    f = parse_field("x*(1-x)", 0.0)
    assert f.label == "x*(1-x)"
