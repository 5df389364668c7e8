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

from .errors import (
    ArgumentError,
    DomainError,
    QuadratureFailure,
    UnsupportedFormError,
)

# bisection of the endpoint-weighted integral: Gauss points per panel, the
# relative agreement that ends it, and the depth at which it gives up
_ADAPTIVE_POINTS = 16
_ADAPTIVE_TOL = 1e-12
_ADAPTIVE_MAX_DEPTH = 26


def frac_order(alpha) -> float:
    """The order of the leading Riemann-Liouville derivative as a float,
    checked to lie in (1, 2)."""
    a = float(alpha)
    if not 1.0 < a < 2.0:
        raise DomainError(f"fractional order must lie in (1, 2), got {a}")
    return a


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
    """One term coeff * ((x - anchor)_+)^exponent, living on [anchor, 1]."""

    coeff: float
    anchor: float
    exponent: float

    def __post_init__(self):
        if self.exponent <= -1.0:
            raise DomainError(
                f"power term exponent must exceed -1, got {self.exponent}"
            )
        if not 0.0 <= self.anchor <= 1.0:
            raise DomainError(f"anchor must lie in [0, 1], got {self.anchor}")


def _eval_terms(terms, x):
    """Sum of the terms at x; a term is coeff at its anchor for exponent 0,
    0 for a positive exponent and an infinity of the coefficient's sign for
    a negative one. Only negative exponents need a mask."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in terms:
        dx = x - t.anchor
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
    """Finite sum of left-anchored shifted power functions."""

    terms: tuple[PowerTerm, ...]

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = _eval_terms(self.terms, np.atleast_1d(np.asarray(x, dtype=float)))
        return float(out[0]) if scalar else out

    @classmethod
    def from_terms(cls, terms: Iterable[tuple]) -> "PowerSum":
        """Build from (coeff, anchor, exponent) tuples."""
        return cls(tuple(PowerTerm(*t) for t in terms))

    @classmethod
    def monomial(cls, coeff: float, exponent: float) -> "PowerSum":
        return cls((PowerTerm(coeff, 0.0, exponent),))

    @property
    def is_zero_anchored(self) -> bool:
        return all(t.anchor == 0.0 for t in self.terms)

    def scaled(self, c: float) -> "PowerSum":
        return PowerSum(
            tuple(PowerTerm(c * t.coeff, t.anchor, t.exponent) for t in self.terms)
        )

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum(self.terms + other.terms).merged()

    def merged(self) -> "PowerSum":
        """Combine terms sharing (anchor, exponent); drop zero coefficients."""
        acc: dict[tuple, float] = {}
        for t in self.terms:
            key = (t.anchor, t.exponent)
            acc[key] = acc.get(key, 0.0) + t.coeff
        return PowerSum(tuple(PowerTerm(c, a, p) for (a, p), c in sorted(acc.items()) if c != 0.0))

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
        exps = [t.exponent for t in self.terms if t.anchor == 0.0]
        return min(exps) if exps else None


def rl_integral_powersum(gamma_ord: float, ps: PowerSum) -> PowerSum:
    """Apply the left integral term by term; anchors shift the power rule."""
    if gamma_ord <= 0.0:
        raise DomainError(f"integral order must be positive, got {gamma_ord}")
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


# about four rules per alpha in a reconstruction study: a sweep of 36 alphas
# keeps about 150 and evicts none; a longer sweep stays bounded
@lru_cache(maxsize=256)
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
    # eigh reads only the lower triangle; no rule here has more than 24 points
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off), -1))
    weights = 2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0) * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def legendre_panel(n: int, a: float, b: float):
    """Plain Gauss nodes/weights on [a, b]; column arrays a, b give one row per panel."""
    xi, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (xi + 1.0), half * w


def weighted_rule(n: int, lo, hi, right_exp=0.0, left_exp=0.0, breaks=(), ends=None):
    """Nodes t and weights w, sum w g(t) ~ int_lo^hi (b-t)^right_exp (t-a)^left_exp g(t) dt
    with (a, b) = ``ends``, by default (lo, hi).

    Without a break strictly inside (lo, hi) this is one panel of n points;
    otherwise the breaks cut it into panels of n // 2 each. A panel that
    ends at a or b absorbs the factor singular there into Gauss-Jacobi
    weights, and any other factor with a nonzero exponent multiplies its
    weights. An uncut panel builds no list and concatenates nothing.
    """
    a, b = (lo, hi) if ends is None else ends
    cuts = breaks and [x for x in breaks if lo < x < hi]
    if cuts:
        edges = [lo, *cuts, hi]
        panels = [weighted_rule(n // 2, *e, right_exp, left_exp, ends=(a, b)) for e in zip(edges, edges[1:])]
        return tuple(np.concatenate(part) for part in zip(*panels))
    right = right_exp if hi == b else 0.0
    left = left_exp if lo == a else 0.0
    xi, w = gauss_jacobi(n, right, left) if right or left else gauss_legendre(n)
    half = 0.5 * (hi - lo)
    t = lo + half * (xi + 1.0)
    w = w * half ** (right + left + 1.0)
    if right != right_exp:
        w = w * (b - t) ** right_exp
    if left != left_exp:
        w = w * (t - a if a else t) ** left_exp  # t - 0 would only copy t
    return t, w


def _panel_value(g, a_exp, b_exp, lo, hi):
    """One-panel estimate of int_lo^hi (1-t)^a_exp t^b_exp g(t) dt."""
    t, w = weighted_rule(_ADAPTIVE_POINTS, lo, hi, a_exp, b_exp, ends=(0.0, 1.0))
    return float(np.dot(w, g(t)))


def _adaptive(g, a_exp, b_exp, lo, hi, depth=0, whole=None, root=None):
    """Bisect [lo, hi] until two half panels agree with the whole panel, to
    _ADAPTIVE_TOL of their sum or of ``root``, the estimate of the piece the
    bisection started from: toward a power of t at 0 that no exponent
    absorbs, a panel's relative error does not shrink with its width.

    ``whole`` is the panel's own estimate, which the parent already computed
    as one of its halves; only the root call evaluates it here.
    """
    if whole is None:
        whole = root = _panel_value(g, a_exp, b_exp, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _panel_value(g, a_exp, b_exp, lo, mid)
    right = _panel_value(g, a_exp, b_exp, mid, hi)
    split = left + right
    err = abs(split - whole)
    if err <= _ADAPTIVE_TOL * max(abs(split), abs(root), 1e-30):
        return split
    if depth >= _ADAPTIVE_MAX_DEPTH:
        raise QuadratureFailure(
            "adaptive endpoint-weighted quadrature hit the depth cap", err
        )
    return _adaptive(g, a_exp, b_exp, lo, mid, depth + 1, left, root) + _adaptive(
        g, a_exp, b_exp, mid, hi, depth + 1, right, root
    )


def weighted_endpoint_integral(
    g: Callable,
    alpha,
    left_exponent: float = 0.0,
    breaks: Iterable[float] = (),
    *,
    factored: bool = False,
) -> float:
    """Evaluate (I_0^alpha g)(1) = (1/Gamma(alpha)) int_0^1 (1-t)^(alpha-1) g(t) dt.

    Adaptive bisection with Jacobi panels at the ends, run separately between
    the ``breaks`` in (0, 1): points where g jumps or kinks, since bisection
    from [0, 1] reaches a non-dyadic one only past its depth cap. With a
    nonzero ``left_exponent`` b, g is taken to behave like t^b near 0, and
    the Jacobi weights see its smooth part g(t) / t^b; with ``factored``, g
    is that smooth part itself and the integrand is t^b g(t), so no panel
    divides by t^b to multiply it back. ``alpha`` lies in (1, 2).
    """
    a = frac_order(alpha)
    if left_exponent <= -1.0:
        raise DomainError(f"left weight exponent must exceed -1, got {left_exponent}")
    smooth = g if factored or left_exponent == 0.0 else (lambda t: g(t) / t**left_exponent)
    edges = [0.0, *sorted({float(x) for x in breaks if 0.0 < x < 1.0}), 1.0]
    pieces = zip(edges, edges[1:])
    value = sum(_adaptive(smooth, a - 1.0, left_exponent, lo, hi) for lo, hi in pieces)
    return value / gamma_fn(a)
