"""Scalar fractional-calculus kernel.

Gamma/Beta helpers, sums of shifted power functions and their
Riemann-Liouville integrals, and Gauss rules with endpoint weights, which
also integrate a term anchored inside (0, 1) against the weight
(1 - t)^(alpha - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ArgumentError, DomainError, UnsupportedFormError

# Gauss points per panel of anchored_moment
_MOMENT_POINTS = 16


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
    0 for a positive exponent and, for a negative one, an infinity of the
    coefficient's sign, or 0 for a zero coefficient. Only negative exponents
    need a mask."""
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
            if t.coeff:
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
    def is_zero(self) -> bool:
        return not self.terms

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

    def __mul__(self, other: "PowerSum") -> "PowerSum":
        """Product term by term. Two terms at one anchor multiply; otherwise
        the term at the smaller anchor a needs an integer exponent k >= 0 and
        expands about the other's anchor b as ((x - b) + (b - a))^k, which
        holds wherever the other term is nonzero."""
        terms = []
        for s in self.terms:
            for o in other.terms:
                if s.anchor == o.anchor:
                    terms.append(PowerTerm(s.coeff * o.coeff, s.anchor, s.exponent + o.exponent))
                    continue
                lo, hi = (s, o) if s.anchor < o.anchor else (o, s)
                if not (lo.exponent >= 0.0 and float(lo.exponent).is_integer()):
                    raise UnsupportedFormError(
                        f"product is not a sum of shifted powers: (x - {lo.anchor:g})^{lo.exponent:g} "
                        f"times a term anchored at {hi.anchor:g} needs an integer exponent >= 0"
                    )
                k = int(lo.exponent)
                terms.extend(
                    PowerTerm(hi.coeff * lo.coeff * math.comb(k, j) * (hi.anchor - lo.anchor) ** (k - j),
                              hi.anchor, hi.exponent + j)
                    for j in range(k + 1)
                )
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


# one rule per alpha in a reconstruction study with q = chi(0,0.5), the panel
# of anchored_moment on [1/2, 1]: a sweep's alphas evict none; a longer sweep
# stays bounded
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


def weighted_rule(n: int, lo, hi, right_exp=0.0, left_exp=0.0, ends=None):
    """Nodes t and weights w, sum w g(t) ~ int_lo^hi (b-t)^right_exp (t-a)^left_exp g(t) dt
    with (a, b) = ``ends``, by default (lo, hi): one panel of n points. If
    it ends at a or b, it absorbs the factor singular there into
    Gauss-Jacobi weights; any other factor with a nonzero exponent
    multiplies its weights.
    """
    a, b = (lo, hi) if ends is None else ends
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


def anchored_moment(g, alpha: float, anchor: float, k: float) -> float:
    """int_anchor^1 (1-t)^(alpha-1) (t-anchor)^k g(t) dt, anchor in (0, 1),
    for g smooth on (0, 1] but for a power of t at 0.

    Panels of _MOMENT_POINTS points double from the anchor while their left
    edge is below 1/4; the rest, [e, 1], is halved unless e >= 1/2. So no
    panel is wider than its distance from 0, and each panel's distance from
    a weight it does not absorb is at least a third of its width: the first
    panel absorbs (t-anchor)^k, the last (1-t)^(alpha-1).
    """
    if not 0.0 < anchor < 1.0:
        raise DomainError(f"anchor must lie in (0, 1), got {anchor}")
    edges = [anchor]
    while edges[-1] < 0.25:
        edges.append(2.0 * edges[-1])
    if edges[-1] < 0.5:
        edges.append(0.5 * (1.0 + edges[-1]))
    total = 0.0
    for lo, hi in zip(edges, [*edges[1:], 1.0]):
        t, w = weighted_rule(_MOMENT_POINTS, lo, hi, alpha - 1.0, k, ends=(anchor, 1.0))
        total += float(w @ g(t))
    return total
