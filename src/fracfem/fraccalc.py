"""Scalar fractional-calculus kernel.

Gamma/Beta helpers, Riemann-Liouville power rules, sums of shifted power
functions, and quadrature for integrals with an endpoint weight
(1 - t)^(alpha - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import gammaln, rgamma, roots_jacobi
from scipy.special import gamma as _gamma

from .errors import (
    ArgumentError,
    DomainError,
    QuadratureFailure,
    UnsupportedFormError,
)

LEFT = "left"
RIGHT = "right"

_ADAPTIVE_MAX_DEPTH = 26


@dataclass(frozen=True)
class FracOrder:
    """Order of the leading Riemann-Liouville derivative, in (1, 2)."""

    alpha: float

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise DomainError(f"fractional order must lie in (1, 2), got {self.alpha}")

    def __float__(self) -> float:
        return self.alpha

    @property
    def half(self) -> float:
        return 0.5 * self.alpha

    def require_mixed_range(self) -> None:
        """The mixed (Neumann-left) problem needs alpha in (3/2, 2)."""
        if self.alpha <= 1.5:
            raise DomainError(
                f"mixed boundary conditions need alpha in (3/2, 2), got {self.alpha}"
            )


def gamma_fn(x: float) -> float:
    """Gamma function restricted to positive arguments."""
    if x <= 0.0:
        raise DomainError(f"gamma_fn needs a positive argument, got {x}")
    return float(_gamma(x))


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) for positive arguments, via log-gamma."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn needs positive arguments, got ({a}, {b})")
    return float(np.exp(gammaln(a) + gammaln(b) - gammaln(a + b)))


@dataclass(frozen=True)
class PowerTerm:
    """One term coeff * ((x - anchor)_+)^exponent, one-sided.

    ``side == "left"`` means the factor is (x - anchor)_+ and the term lives
    on [anchor, 1]; ``side == "right"`` means (anchor - x)_+ on [0, anchor].
    """

    coeff: float
    anchor: float
    exponent: float
    side: str = LEFT

    def __post_init__(self):
        if self.exponent <= -1.0:
            raise DomainError(
                f"power term exponent must exceed -1, got {self.exponent}"
            )
        if not 0.0 <= self.anchor <= 1.0:
            raise DomainError(f"anchor must lie in [0, 1], got {self.anchor}")
        if self.side not in (LEFT, RIGHT):
            raise ArgumentError(f"side must be 'left' or 'right', got {self.side!r}")


def _eval_terms(terms, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in terms:
        dx = x - t.anchor if t.side == LEFT else t.anchor - x
        inside = dx > 0.0
        out[inside] += t.coeff * dx[inside] ** t.exponent
        if t.exponent <= 0.0:
            edge = dx == 0.0
            out[edge] += t.coeff if t.exponent == 0.0 else np.sign(t.coeff) * np.inf
    return out


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of one-sided shifted power functions."""

    terms: tuple[PowerTerm, ...]

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = _eval_terms(self.terms, np.atleast_1d(np.asarray(x, dtype=float)))
        return float(out[0]) if scalar else out

    @classmethod
    def from_terms(cls, terms: Iterable[tuple]) -> "PowerSum":
        """Build from (coeff, anchor, exponent[, side]) tuples."""
        return cls(tuple(PowerTerm(*t) for t in terms))

    @classmethod
    def monomial(cls, coeff: float, exponent: float) -> "PowerSum":
        return cls((PowerTerm(coeff, 0.0, exponent),))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "PowerSum":
        """Polynomial sum(coeffs[k] * x^k), coefficients low to high."""
        return cls(
            tuple(
                PowerTerm(float(c), 0.0, float(k))
                for k, c in enumerate(coeffs)
                if c != 0.0
            )
        )

    @property
    def is_left(self) -> bool:
        return all(t.side == LEFT for t in self.terms)

    @property
    def is_zero_anchored(self) -> bool:
        return all(t.side == LEFT and t.anchor == 0.0 for t in self.terms)

    def scaled(self, c: float) -> "PowerSum":
        return PowerSum(
            tuple(PowerTerm(c * t.coeff, t.anchor, t.exponent, t.side) for t in self.terms)
        )

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum(self.terms + other.terms).merged()

    def merged(self) -> "PowerSum":
        """Combine terms sharing (anchor, exponent, side); drop zero coefficients."""
        acc: dict[tuple, float] = {}
        for t in self.terms:
            key = (t.anchor, t.exponent, t.side)
            acc[key] = acc.get(key, 0.0) + t.coeff
        kept = tuple(
            PowerTerm(c, a, p, s) for (a, p, s), c in sorted(acc.items()) if c != 0.0
        )
        return PowerSum(kept)

    def multiply_zero_anchored(self, other: "PowerSum") -> "PowerSum":
        """Product of two sums whose terms are all anchored at x = 0."""
        if not (self.is_zero_anchored and other.is_zero_anchored):
            raise UnsupportedFormError(
                "product of shifted power sums needs both factors anchored at 0"
            )
        terms = []
        for s in self.terms:
            for o in other.terms:
                terms.append(PowerTerm(s.coeff * o.coeff, 0.0, s.exponent + o.exponent))
        return PowerSum(tuple(terms)).merged()

    def multiply_polynomial(self, coeffs: Sequence[float]) -> "PowerSum":
        """Multiply by a polynomial given low-to-high; anchors are preserved
        by expanding x^k around each term's own anchor."""
        terms = []
        for t in self.terms:
            if t.side != LEFT:
                raise UnsupportedFormError("polynomial multiply supports left terms only")
            for k, c in enumerate(coeffs):
                if c == 0.0:
                    continue
                # x^k = ((x - a) + a)^k expanded binomially about the anchor.
                for j in range(k + 1):
                    coeff = t.coeff * c * math.comb(k, j) * t.anchor ** (k - j)
                    terms.append(PowerTerm(coeff, t.anchor, t.exponent + j))
        return PowerSum(tuple(terms)).merged()

    def min_exponent_at_zero(self) -> float | None:
        """Smallest exponent among terms anchored at 0; None if there are none."""
        exps = [t.exponent for t in self.terms if t.side == LEFT and t.anchor == 0.0]
        return min(exps) if exps else None


def rl_integral_power(gamma_ord: float, beta_exp: float, x: float) -> float:
    """Left Riemann-Liouville integral of t^beta_exp at x.

    (I_0^gamma t^beta)(x) = Gamma(beta + 1) / Gamma(beta + 1 + gamma) * x^(beta + gamma).
    """
    if gamma_ord <= 0.0:
        raise DomainError(f"integral order must be positive, got {gamma_ord}")
    if beta_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {beta_exp}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"evaluation point must lie in [0, 1], got {x}")
    g = gammaln(beta_exp + 1.0) - gammaln(beta_exp + 1.0 + gamma_ord)
    return float(np.exp(g)) * x ** (beta_exp + gamma_ord)


def rl_derivative_power(beta_order: float, p_exp: float, x: float) -> float:
    """Left Riemann-Liouville derivative of t^p_exp at x, order in (0, 2).

    (D_0^beta t^p)(x) = Gamma(p + 1) / Gamma(p + 1 - beta) * x^(p - beta);
    the reciprocal gamma kills the expression when p - beta is a negative
    integer, which covers D^alpha x^(alpha-1) = 0 and D^(alpha-1) x^(alpha-2) = 0.
    """
    if not 0.0 < beta_order < 2.0:
        raise DomainError(f"derivative order must lie in (0, 2), got {beta_order}")
    if p_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {p_exp}")
    if not 0.0 < x <= 1.0:
        raise DomainError(f"evaluation point must lie in (0, 1], got {x}")
    z = p_exp + 1.0 - beta_order
    if z < 0.5 and abs(z - round(z)) < 1e-12 and round(z) <= 0:
        return 0.0
    return float(_gamma(p_exp + 1.0) * rgamma(z)) * x ** (p_exp - beta_order)


def rl_integral_powersum(gamma_ord: float, ps: PowerSum) -> PowerSum:
    """Apply the left integral term by term; anchors shift the power rule."""
    if gamma_ord <= 0.0:
        raise DomainError(f"integral order must be positive, got {gamma_ord}")
    if not ps.is_left:
        raise UnsupportedFormError(
            "left integral of a right-anchored power sum has no power-rule form"
        )
    terms = []
    for t in ps.terms:
        g = np.exp(gammaln(t.exponent + 1.0) - gammaln(t.exponent + 1.0 + gamma_ord))
        terms.append(PowerTerm(t.coeff * float(g), t.anchor, t.exponent + gamma_ord))
    return PowerSum(tuple(terms))


def rl_integral_powersum_at(gamma_ord: float, ps: PowerSum, x: float):
    """Value of the left integral of a power sum at x."""
    if not 0.0 <= np.min(np.atleast_1d(x)) or not np.max(np.atleast_1d(x)) <= 1.0:
        raise DomainError("evaluation point must lie in [0, 1]")
    return rl_integral_powersum(gamma_ord, ps)(x)


@dataclass(frozen=True)
class QuadratureRule:
    """Recipe for the endpoint-weighted integral.

    kind is one of "gauss_jacobi" (absorb the (1-t)^(alpha-1) weight, and
    optionally a t^left_exponent factor of the integrand, into the rule),
    "gauss_legendre" (evaluate the weight explicitly), or
    "adaptive_composite" (bisection with Jacobi panels at the endpoints).
    """

    kind: str = "gauss_jacobi"
    points: int = 32
    tol: float = 1e-12
    left_exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gauss_jacobi", "gauss_legendre", "adaptive_composite"):
            raise ArgumentError(f"unknown quadrature kind {self.kind!r}")
        if self.points < 1:
            raise ArgumentError(f"quadrature needs at least one point, got {self.points}")
        if self.tol <= 0.0:
            raise ArgumentError(f"tolerance must be positive, got {self.tol}")
        if self.left_exponent <= -1.0:
            raise DomainError(
                f"left weight exponent must exceed -1, got {self.left_exponent}"
            )


DEFAULT_RULE = QuadratureRule()


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def gauss_jacobi(n: int, a_exp: float, b_exp: float):
    """Nodes/weights on [-1, 1] for the weight (1-x)^a_exp (1+x)^b_exp."""
    nodes, weights = roots_jacobi(n, a_exp, b_exp)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def legendre_panel(n: int, a: float, b: float):
    """Plain Gauss nodes/weights on [a, b]."""
    xi, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), half * w


def jacobi_right_panel(n: int, exponent: float, a: float, b: float):
    """Nodes/weights t, w with sum w*g(t) = int_a^b (b-t)^exponent g(t) dt."""
    xi, w = gauss_jacobi(n, exponent, 0.0)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), w * half ** (exponent + 1.0)


def jacobi_left_panel(n: int, exponent: float, a: float, b: float):
    """Nodes/weights t, w with sum w*g(t) = int_a^b (t-a)^exponent g(t) dt."""
    xi, w = gauss_jacobi(n, 0.0, exponent)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), w * half ** (exponent + 1.0)


def jacobi_both_panel(n: int, right_exp: float, left_exp: float, a: float, b: float):
    """Nodes/weights for int_a^b (b-t)^right_exp (t-a)^left_exp g(t) dt."""
    xi, w = gauss_jacobi(n, right_exp, left_exp)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), w * half ** (right_exp + left_exp + 1.0)


def _panel_value(g, a_exp, b_exp, lo, hi, n):
    """One-panel estimate of int_lo^hi (1-t)^a_exp t^b_exp_part g_smooth dt.

    The caller passes g already divided by t^b_exp; weights at panels touching
    an endpoint absorb the corresponding singular factor.
    """
    touches_right = hi == 1.0
    touches_left = lo == 0.0 and b_exp != 0.0
    if touches_right and touches_left:
        t, w = jacobi_both_panel(n, a_exp, b_exp, lo, hi)
        return float(np.dot(w, g(t)))
    if touches_right:
        t, w = jacobi_right_panel(n, a_exp, lo, hi)
        vals = g(t)
        if b_exp != 0.0:
            vals = vals * t ** b_exp
        return float(np.dot(w, vals))
    if touches_left:
        t, w = jacobi_left_panel(n, b_exp, lo, hi)
        return float(np.dot(w, (1.0 - t) ** a_exp * g(t)))
    t, w = legendre_panel(n, lo, hi)
    vals = (1.0 - t) ** a_exp * g(t)
    if b_exp != 0.0:
        vals = vals * t ** b_exp
    return float(np.dot(w, vals))


def _adaptive(g, a_exp, b_exp, lo, hi, tol, n, depth, whole=None):
    """Bisect [lo, hi] until two half panels agree with the whole panel.

    ``whole`` is the panel's own estimate, which the parent already computed
    as one of its halves; only the root call evaluates it here.
    """
    if whole is None:
        whole = _panel_value(g, a_exp, b_exp, lo, hi, n)
    mid = 0.5 * (lo + hi)
    left = _panel_value(g, a_exp, b_exp, lo, mid, n)
    right = _panel_value(g, a_exp, b_exp, mid, hi, n)
    split = left + right
    err = abs(split - whole)
    if err <= tol * max(abs(split), 1e-30):
        return split
    if depth >= _ADAPTIVE_MAX_DEPTH:
        raise QuadratureFailure(
            "adaptive endpoint-weighted quadrature hit the depth cap", err
        )
    return _adaptive(g, a_exp, b_exp, lo, mid, tol, n, depth + 1, left) + _adaptive(
        g, a_exp, b_exp, mid, hi, tol, n, depth + 1, right
    )


def weighted_endpoint_integral(
    g: Callable, alpha, rule: QuadratureRule | None = None
) -> float:
    """Evaluate (I_0^alpha g)(1) = (1/Gamma(alpha)) int_0^1 (1-t)^(alpha-1) g(t) dt.

    Parameters
    ----------
    g:
        Vectorized integrand on (0, 1). When the rule carries a nonzero
        ``left_exponent`` b, g is assumed to behave like t^b near 0 and the
        smooth part g(t) / t^b is what the Jacobi weights see.
    alpha:
        Fractional order in (1, 2), plain float or FracOrder.
    rule:
        Quadrature recipe; defaults to a 32-point Gauss-Jacobi rule.
    """
    a = FracOrder(float(alpha)).alpha
    rule = rule or DEFAULT_RULE
    a_exp = a - 1.0
    b_exp = rule.left_exponent

    if rule.kind == "gauss_jacobi":
        t, w = jacobi_both_panel(rule.points, a_exp, b_exp, 0.0, 1.0)
        smooth = (lambda t: g(t) / t ** b_exp) if b_exp != 0.0 else g
        value = float(np.dot(w, smooth(t)))
    elif rule.kind == "gauss_legendre":
        t, w = legendre_panel(rule.points, 0.0, 1.0)
        value = float(np.dot(w, (1.0 - t) ** a_exp * g(t)))
    else:
        smooth = (lambda t: g(t) / t ** b_exp) if b_exp != 0.0 else g
        value = _adaptive(smooth, a_exp, b_exp, 0.0, 1.0, rule.tol, max(rule.points, 8), 0)
    return value / gamma_fn(a)
