"""Scalar fractional-calculus kernel.

Gamma/Beta helpers, sums of shifted power functions and their
Riemann-Liouville integrals, Gauss rules, and the adaptive quadrature for
integrals with an endpoint weight (1 - t)^(alpha - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ArgumentError,
    DomainError,
    QuadratureFailure,
    UnsupportedFormError,
)

LEFT = "left"
RIGHT = "right"

# bisection of the endpoint-weighted integral: Gauss points per panel, the
# relative agreement that ends it, and the depth at which it gives up
_ADAPTIVE_POINTS = 16
_ADAPTIVE_TOL = 1e-12
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
    return math.gamma(x)


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) for positive arguments, via log-gamma."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn needs positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


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
    """Sum of the terms at x; a term is coeff at its anchor for exponent 0,
    0 for a positive exponent and an infinity of the coefficient's sign for
    a negative one. Only negative exponents need a mask."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in terms:
        dx = x - t.anchor if t.side == LEFT else t.anchor - x
        if t.exponent > 0.0:
            np.maximum(dx, 0.0, out=dx)
            dx **= t.exponent
            dx *= t.coeff
            out += dx
        elif t.exponent == 0.0:
            out += np.where(dx >= 0.0, t.coeff, 0.0)
        else:
            inside = dx > 0.0
            out[inside] += t.coeff * dx[inside] ** t.exponent
            out[dx == 0.0] += np.sign(t.coeff) * np.inf
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
        g = math.exp(math.lgamma(t.exponent + 1.0) - math.lgamma(t.exponent + 1.0 + gamma_ord))
        terms.append(PowerTerm(t.coeff * g, t.anchor, t.exponent + gamma_ord))
    return PowerSum(tuple(terms))


def rl_integral_powersum_at(gamma_ord: float, ps: PowerSum, x: float):
    """Value of the left integral of a power sum at x."""
    if not 0.0 <= np.min(np.atleast_1d(x)) or not np.max(np.atleast_1d(x)) <= 1.0:
        raise DomainError("evaluation point must lie in [0, 1]")
    return rl_integral_powersum(gamma_ord, ps)(x)


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def gauss_jacobi(n: int, a: float, b: float):
    """Nodes/weights on [-1, 1] for the weight (1-x)^a (1+x)^b, by Golub-Welsch:
    the eigenvalues of the Jacobi matrix, and mu0 times the squared first
    components of its eigenvectors, with mu0 = 2^(a+b+1) B(a+1, b+1)."""
    if n < 1:
        raise ArgumentError(f"a Gauss rule needs at least one point, got {n}")
    k = np.arange(1.0, n)
    s = 2.0 * k + a + b
    # first entries in closed form: the general ones are 0/0 at a + b = 0 (diag) and -1 (off)
    diag = np.append((b - a) / (a + b + 2.0), (b * b - a * a) / (s * (s + 2.0)))
    with np.errstate(invalid="ignore"):
        off = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off[:1] = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    nodes, vectors = eigh_tridiagonal(diag, np.sqrt(off))
    weights = 2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0) * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def legendre_panel(n: int, a: float, b: float):
    """Plain Gauss nodes/weights on [a, b]."""
    xi, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), half * w


def jacobi_panel(n: int, right_exp: float, left_exp: float, a: float, b: float):
    """Nodes/weights t, w with sum w*g(t) = int_a^b (b-t)^right_exp (t-a)^left_exp g(t) dt."""
    xi, w = gauss_jacobi(n, right_exp, left_exp)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), w * half ** (right_exp + left_exp + 1.0)


def _panel_value(g, a_exp, b_exp, lo, hi):
    """One-panel estimate of int_lo^hi (1-t)^a_exp t^b_exp g(t) dt.

    A panel touching 1 absorbs (1-t)^a_exp into its weights, one touching 0
    absorbs t^b_exp; the factors not absorbed multiply g.
    """
    right = a_exp if hi == 1.0 else 0.0
    left = b_exp if lo == 0.0 else 0.0
    if right or left:
        t, w = jacobi_panel(_ADAPTIVE_POINTS, right, left, lo, hi)
    else:
        t, w = legendre_panel(_ADAPTIVE_POINTS, lo, hi)
    vals = g(t)
    if a_exp != right:
        vals = (1.0 - t) ** a_exp * vals
    if b_exp != left:
        vals = vals * t ** b_exp
    return float(np.dot(w, vals))


def _adaptive(g, a_exp, b_exp, lo, hi, depth=0, whole=None):
    """Bisect [lo, hi] until two half panels agree with the whole panel.

    ``whole`` is the panel's own estimate, which the parent already computed
    as one of its halves; only the root call evaluates it here.
    """
    if whole is None:
        whole = _panel_value(g, a_exp, b_exp, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _panel_value(g, a_exp, b_exp, lo, mid)
    right = _panel_value(g, a_exp, b_exp, mid, hi)
    split = left + right
    err = abs(split - whole)
    if err <= _ADAPTIVE_TOL * max(abs(split), 1e-30):
        return split
    if depth >= _ADAPTIVE_MAX_DEPTH:
        raise QuadratureFailure(
            "adaptive endpoint-weighted quadrature hit the depth cap", err
        )
    return _adaptive(g, a_exp, b_exp, lo, mid, depth + 1, left) + _adaptive(
        g, a_exp, b_exp, mid, hi, depth + 1, right
    )


def weighted_endpoint_integral(
    g: Callable, alpha, left_exponent: float = 0.0, breaks: Iterable[float] = ()
) -> float:
    """Evaluate (I_0^alpha g)(1) = (1/Gamma(alpha)) int_0^1 (1-t)^(alpha-1) g(t) dt.

    Adaptive bisection with Jacobi panels at the ends, run separately between
    the ``breaks`` in (0, 1): points where g jumps or kinks, since bisection
    from [0, 1] reaches a non-dyadic one only past its depth cap. With a
    nonzero ``left_exponent`` b, g is taken to behave like t^b near 0, and
    the Jacobi weights see its smooth part g(t) / t^b. ``alpha`` is a plain
    float or a FracOrder in (1, 2).
    """
    a = FracOrder(float(alpha)).alpha
    if left_exponent <= -1.0:
        raise DomainError(f"left weight exponent must exceed -1, got {left_exponent}")
    smooth = (lambda t: g(t) / t**left_exponent) if left_exponent != 0.0 else g
    edges = [0.0, *sorted({float(x) for x in breaks if 0.0 < x < 1.0}), 1.0]
    pieces = zip(edges, edges[1:])
    value = sum(_adaptive(smooth, a - 1.0, left_exponent, lo, hi) for lo, hi in pieces)
    return value / gamma_fn(a)
