"""Fractional calculus primitives against quadrature oracles and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfem.errors import ArgumentError, DomainError, UnsupportedFormError
from fracfem.fraccalc import (
    FracOrder,
    PowerSum,
    PowerTerm,
    beta_fn,
    gamma_fn,
    gauss_jacobi,
    jacobi_panel,
    legendre_panel,
    rl_integral_powersum,
    rl_integral_powersum_at,
    weighted_endpoint_integral,
)

from .oracles import (
    eval_terms_masked,
    frac_integral_quad,
    legendre_endpoint_integral,
    rl_derivative_power,
    rl_integral_power,
)


# --- orders and special functions -------------------------------------------


def test_frac_order_accepts_open_interval():
    assert float(FracOrder(1.5)) == 1.5
    for bad in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(DomainError):
            FracOrder(bad)


def test_mixed_range_guard():
    FracOrder(1.75).require_mixed_range()
    with pytest.raises(DomainError):
        FracOrder(1.25).require_mixed_range()


def test_gamma_spot_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-15)
    assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence(z):
    assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-12)


@given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_beta_gamma_identity(a, b):
    assert beta_fn(a, b) == pytest.approx(
        gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b), rel=1e-11
    )


# --- power rule --------------------------------------------------------------


def test_power_rule_frozen_value():
    # adaptive quadrature of int_0^0.6 (0.6-t)^(0.7-1) t^1.3 dt / Gamma(0.7),
    # accurate to about ten digits
    assert rl_integral_power(0.7, 1.3, 0.6) == pytest.approx(
        0.2100081429306238, rel=1e-9
    )
    # by hand: int_0^1 (1-t)^0.5 dt / Gamma(1.5) = (2/3) / Gamma(1.5) = 1/Gamma(2.5)
    assert rl_integral_power(1.5, 0.0, 1.0) == pytest.approx(
        1.0 / gamma_fn(2.5), rel=1e-14
    )


@pytest.mark.parametrize("gamma_ord", [0.25, 0.7, 1.5, 1.9])
@pytest.mark.parametrize("beta_exp", [-0.25, 0.0, 0.75, 2.0])
@pytest.mark.parametrize("x", [0.3, 1.0])
def test_power_rule_matches_quadrature(gamma_ord, beta_exp, x):
    oracle = frac_integral_quad(
        lambda t: t**beta_exp, gamma_ord, x, left_exponent=beta_exp if beta_exp < 0 else 0.0
    )
    assert rl_integral_power(gamma_ord, beta_exp, x) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("g1,g2", [(0.3, 0.9), (0.75, 0.75), (1.2, 0.6)])
@pytest.mark.parametrize("beta_exp", [0.0, 0.5, 1.0, 1.75])
def test_semigroup_on_monomials(g1, g2, beta_exp):
    x = 0.8
    inner = rl_integral_powersum(g1, PowerSum.monomial(1.0, beta_exp))
    twice = rl_integral_powersum_at(g2, inner, x)
    once = rl_integral_power(g1 + g2, beta_exp, x)
    assert twice == pytest.approx(once, rel=1e-12)


def test_power_rule_rejects_bad_arguments():
    with pytest.raises(DomainError):
        rl_integral_power(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        rl_integral_power(0.5, -1.0, 0.5)
    with pytest.raises(DomainError):
        rl_integral_power(0.5, 1.0, 1.5)


# --- derivative annihilation --------------------------------------------------


@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75, 1.9])
def test_derivative_kills_homogeneous_profile(alpha):
    # D^alpha x^(alpha-1) and D^(alpha-1) x^(alpha-2) vanish identically
    for x in (0.2, 0.7, 1.0):
        assert rl_derivative_power(alpha, alpha - 1.0, x) == 0.0
        assert rl_derivative_power(alpha - 1.0, alpha - 2.0, x) == 0.0


def test_derivative_power_generic_value():
    # D^0.6 t^0.6 = Gamma(1.6), constant in x
    for x in (0.3, 1.0):
        assert rl_derivative_power(0.6, 0.6, x) == pytest.approx(
            gamma_fn(1.6), rel=1e-13
        )


def test_derivative_inverts_integral_on_powers():
    # D^beta I^beta t^p = t^p for a few (beta, p) pairs
    for beta, p in ((0.5, 1.0), (1.3, 0.25), (0.8, 1.6)):
        lifted = rl_integral_power(beta, p, 1.0)  # coefficient of x^(p+beta) at x=1
        back = rl_derivative_power(beta, p + beta, 1.0)
        assert lifted * back == pytest.approx(1.0, rel=1e-12)


# --- power-sum algebra ---------------------------------------------------------

coeffs_st = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
anchors_st = st.floats(min_value=0.0, max_value=0.9)
exponents_st = st.floats(min_value=0.0, max_value=3.0)


def _sample_points():
    return np.linspace(0.0, 1.0, 23)


@given(
    st.lists(st.tuples(coeffs_st, anchors_st, exponents_st), min_size=1, max_size=5)
)
@settings(max_examples=150, deadline=None)
def test_powersum_addition_is_pointwise(terms):
    a = PowerSum.from_terms(terms[: len(terms) // 2 + 1])
    b = PowerSum.from_terms(terms[len(terms) // 2 + 1 :] or [(0.0, 0.0, 0.0)])
    xs = _sample_points()
    np.testing.assert_allclose((a + b)(xs), a(xs) + b(xs), rtol=1e-12, atol=1e-12)


@given(
    st.lists(st.tuples(coeffs_st, anchors_st, exponents_st), min_size=1, max_size=5),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_powersum_scaling_and_merge(terms, c):
    ps = PowerSum.from_terms(terms)
    xs = _sample_points()
    np.testing.assert_allclose(ps.scaled(c)(xs), c * ps(xs), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ps.merged()(xs), ps(xs), rtol=1e-12, atol=1e-12)


@given(
    st.lists(coeffs_st, min_size=1, max_size=4),
    st.lists(st.tuples(coeffs_st, exponents_st), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_powersum_polynomial_product(poly, monos):
    ps = PowerSum.from_terms([(c, 0.0, e) for c, e in monos])
    prod = ps.multiply_polynomial(poly)
    xs = _sample_points()[1:]  # x = 0 can hit 0^0 conventions on both sides
    direct = ps(xs) * sum(c * xs**k for k, c in enumerate(poly))
    np.testing.assert_allclose(prod(xs), direct, rtol=1e-10, atol=1e-10)


@given(
    st.lists(
        st.tuples(
            coeffs_st,
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=-1.0, max_value=3.0, exclude_min=True),
            st.sampled_from(["left", "right"]),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_powersum_evaluation_matches_masked_form_bit_for_bit(terms, extra):
    # exponents in (-1, 3] on both sides, sampled exactly at every anchor,
    # at both ends of [0, 1] and in between; a zero coefficient or opposite
    # infinities at a shared anchor give NaN in both forms
    terms = terms + [(1.5, terms[0][1], 0.0, "right"), (-0.5, terms[0][1], 2.0, "left")]
    ps = PowerSum.from_terms(terms)
    xs = np.concatenate(([t[1] for t in terms], _sample_points(), extra))
    with np.errstate(invalid="ignore"):
        assert np.array_equal(ps(xs), eval_terms_masked(ps.terms, xs), equal_nan=True)
        for x in xs[:3]:
            assert np.array_equal(ps(float(x)), eval_terms_masked(ps.terms, [x])[0], equal_nan=True)


def test_zero_anchored_product_matches_pointwise():
    a = PowerSum.from_terms([(1.0, 0.0, 0.5), (-2.0, 0.0, 1.0)])
    b = PowerSum.from_terms([(3.0, 0.0, 0.25), (1.0, 0.0, 2.0)])
    xs = _sample_points()[1:]
    np.testing.assert_allclose(
        a.multiply_zero_anchored(b)(xs), a(xs) * b(xs), rtol=1e-12
    )
    shifted = PowerSum.from_terms([(1.0, 0.5, 1.0)])
    with pytest.raises(UnsupportedFormError):
        a.multiply_zero_anchored(shifted)


def test_powersum_anchored_integral_matches_quadrature():
    # hat-derivative shape: kink terms at interior anchors
    ps = PowerSum.from_terms([(2.0, 0.0, 0.4), (-3.0, 0.25, 0.4), (1.0, 0.5, 0.4)])
    for gamma_ord in (0.6, 1.25):
        for x in (0.4, 0.8, 1.0):
            oracle = frac_integral_quad(ps, gamma_ord, x, breaks=(0.25, 0.5))
            got = rl_integral_powersum_at(gamma_ord, ps, x)
            assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_right_anchored_terms_refuse_left_integral():
    ps = PowerSum.from_terms([(1.0, 0.5, 1.0, "right")])
    with pytest.raises(UnsupportedFormError):
        rl_integral_powersum(0.5, ps)


def test_power_term_validation():
    with pytest.raises(DomainError):
        PowerTerm(1.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        PowerTerm(1.0, 1.5, 0.5)
    with pytest.raises(ArgumentError):
        PowerTerm(1.0, 0.5, 0.5, "middle")


# --- endpoint-weighted quadrature ---------------------------------------------


def test_weighted_endpoint_integral_frozen_value():
    # quad of (1-t)^0.5 e^t over [0,1], divided by Gamma(1.5)
    got = weighted_endpoint_integral(np.exp, 1.5)
    assert got == pytest.approx(1.1623190852077259, rel=1e-12)


def test_weighted_integral_with_left_singular_factor():
    # g(t) = t^(-1/4) (1 + t), alpha = 1.25
    alpha = 1.25
    got = weighted_endpoint_integral(
        lambda t: t**-0.25 * (1.0 + t), alpha, left_exponent=-0.25
    )
    oracle = frac_integral_quad(
        lambda t: t**-0.25 * (1.0 + t), alpha, 1.0, left_exponent=-0.25
    )
    assert got == pytest.approx(oracle, rel=1e-10)


def test_gauss_legendre_rule_converges_slowly_but_runs():
    alpha = 1.5
    exact = rl_integral_power(alpha, 1.0, 1.0)
    got = legendre_endpoint_integral(lambda t: t, alpha, 64)
    # the unabsorbed endpoint weight limits plain Gauss to a few digits
    assert got == pytest.approx(exact, rel=1e-3)


def test_panel_helpers_integrate_polynomials_exactly():
    t, w = legendre_panel(6, 0.2, 0.7)
    assert float(w @ t**3) == pytest.approx((0.7**4 - 0.2**4) / 4.0, rel=1e-14)
    t, w = jacobi_panel(8, 0.5, 0.0, 0.0, 1.0)
    # int_0^1 (1-t)^0.5 t dt = B(2, 1.5)
    assert float(w @ t) == pytest.approx(beta_fn(2.0, 1.5), rel=1e-13)
    t, w = jacobi_panel(8, 0.0, -0.25, 0.0, 1.0)
    # int_0^1 t^(-1/4) (1-t) dt = B(0.75, 2)
    assert float(w @ (1.0 - t)) == pytest.approx(beta_fn(0.75, 2.0), rel=1e-13)
    t, w = jacobi_panel(8, 0.5, -0.25, 0.0, 1.0)
    assert float(w @ np.ones_like(t)) == pytest.approx(beta_fn(0.75, 1.5), rel=1e-13)


@pytest.mark.parametrize("n", [8, 16, 20, 24, 32, 48])
@pytest.mark.parametrize("a", [0.0, 0.02, 0.5, 0.98])
def test_gauss_jacobi_moments_are_exact(n, a):
    # sum w ((1+x)/2)^k = int (1-x)^a (1+x)^b ((1+x)/2)^k dx
    #                   = 2^(a+b+1) B(a+1, b+k+1) for every k < 2n
    for b in (-0.98, -0.5, -0.25, 0.0, 0.5, 0.98):
        x, w = gauss_jacobi(n, a, b)
        half = (1.0 + x) / 2.0
        for k in range(2 * n):
            exact = math.exp(
                (a + b + 1.0) * math.log(2.0)
                + math.lgamma(a + 1.0)
                + math.lgamma(b + k + 1.0)
                - math.lgamma(a + b + k + 2.0)
            )
            assert float(np.sum(w * half**k)) == pytest.approx(exact, rel=1e-12), (b, k)


@pytest.mark.filterwarnings("error")
def test_gauss_jacobi_chebyshev_closed_form():
    # a + b = -1, where the general first off-diagonal entry is 0/0
    for n in (1, 2, 7, 16):
        x, w = gauss_jacobi(n, -0.5, -0.5)
        nodes = np.sort(np.cos((2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2 * n)))
        np.testing.assert_allclose(x, nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w, np.full(n, np.pi / n), rtol=1e-13)


def test_quadrature_rule_validation():
    with pytest.raises(ArgumentError):
        gauss_jacobi(0, 0.5, 0.0)
    with pytest.raises(DomainError):
        weighted_endpoint_integral(np.exp, 1.5, left_exponent=-1.0)


@given(
    alpha=st.floats(min_value=1.001, max_value=1.999),
    left_exp=st.one_of(st.just(0.0), st.floats(min_value=-0.95, max_value=1.0, exclude_max=True)),
    lead=st.floats(min_value=0.5, max_value=2.0),
    # (coeff, anchor, integer exponent): steps, kinks and parabolas past the anchor
    shifted=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=1.0),
            st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(min_value=0.01, max_value=0.99)),
            st.sampled_from([0.0, 1.0, 2.0]),
        ),
        max_size=4,
    ),
)
@settings(max_examples=80, deadline=None)
def test_weighted_integral_matches_power_rule_with_breaks(alpha, left_exp, lead, shifted):
    # g = lead t^b + t^(b+1) + sum c (t - a)_+^e behaves like t^b near 0 and
    # is smooth between the anchors; with no anchors the root panel absorbs
    # both end weights, otherwise the pieces cover the other three panel kinds
    ps = PowerSum.from_terms([(lead, 0.0, left_exp), (1.0, 0.0, left_exp + 1.0), *shifted])
    got = weighted_endpoint_integral(ps, alpha, left_exp, breaks=[a for _, a, _ in shifted])
    assert got == pytest.approx(rl_integral_powersum_at(alpha, ps, 1.0), rel=1e-10)
