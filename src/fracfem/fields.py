"""Scalar coefficient fields: the built-in source/potential catalog and a
small expression grammar for user-supplied ones.

A field carries a vectorized evaluator, an optional left-endpoint
singularity exponent (its "hint"), and, when available, an exact shifted
power sum representation that unlocks closed-form assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, DomainError
from .fraccalc import PowerSum, PowerTerm

__all__ = [
    "ScalarField",
    "zero_field",
    "source_bump",
    "source_step",
    "source_inverse_quartic",
    "SOURCES",
    "POTENTIALS",
    "parse_field",
]


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on [0, 1] with optional structure for exact assembly."""

    fn: Callable
    hint: float | None = None
    powersum: PowerSum | None = None
    label: str = ""

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @property
    def is_zero(self) -> bool:
        return self.powersum is not None and len(self.powersum.terms) == 0


def zero_field() -> ScalarField:
    return ScalarField(
        fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hint=None,
        powersum=PowerSum(()),
        label="zero",
    )


def source_bump() -> ScalarField:
    """f(x) = x (1 - x)."""
    return ScalarField(
        fn=lambda x: x * (1.0 - x),
        hint=None,
        powersum=PowerSum.from_terms([(1.0, 0.0, 1.0), (-1.0, 0.0, 2.0)]),
        label="x(1-x)",
    )


def source_step() -> ScalarField:
    """Indicator of [0, 1/2]."""
    return ScalarField(
        fn=lambda x: np.where(np.asarray(x, dtype=float) <= 0.5, 1.0, 0.0),
        hint=None,
        powersum=PowerSum.from_terms([(1.0, 0.0, 0.0), (-1.0, 0.5, 0.0)]),
        label="chi(0,1/2)",
    )


def source_inverse_quartic() -> ScalarField:
    """f(x) = x^(-1/4), integrable endpoint blow-up at x = 0."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 0.0, x, 1.0) ** -0.25 * np.where(x > 0.0, 1.0, np.inf)

    return ScalarField(
        fn=fn,
        hint=-0.25,
        powersum=PowerSum.from_terms([(1.0, 0.0, -0.25)]),
        label="x^(-1/4)",
    )


SOURCES = {
    "a": source_bump,
    "b": source_step,
    "c": source_inverse_quartic,
}

POTENTIALS = {
    "zero": zero_field,
    "x_times_1mx": source_bump,
}


# --- expression grammar -----------------------------------------------------
#
#   expr   := ['-'] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := base ['^' number]
#   base   := number | 'x' | 'chi' '(' number ',' number ')' | '(' expr ')'
#
# Exponents are literal constants so every parsed field is a combination of
# shifted powers whenever the products allow it.


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take_char(self, ch: str) -> None:
        if self.peek() != ch:
            raise ArgumentError(
                f"expected {ch!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += 1

    def try_char(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def number(self) -> float:
        self.peek()
        start = self.pos
        if self.text[self.pos : self.pos + 1] in ("+", "-"):
            self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"
            or (self.text[self.pos] in "+-" and self.text[self.pos - 1] in "eE")
        ):
            self.pos += 1
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise ArgumentError(
                f"expected a number at position {start} in {self.text!r}"
            ) from None


def _parse_expr(tk: _Tokens) -> PowerSum:
    negate = tk.try_char("-")
    total = _parse_term(tk)
    if negate:
        total = total.scaled(-1.0)
    while True:
        if tk.try_char("+"):
            total = total + _parse_term(tk)
        elif tk.try_char("-"):
            total = total + _parse_term(tk).scaled(-1.0)
        else:
            return total


def _parse_term(tk: _Tokens) -> PowerSum:
    product = _parse_factor(tk)
    while tk.try_char("*"):
        product = _multiply(product, _parse_factor(tk))
    return product


def _multiply(a: PowerSum, b: PowerSum) -> PowerSum:
    if _constant_of(b) is not None:
        return a.scaled(_constant_of(b))
    if _constant_of(a) is not None:
        return b.scaled(_constant_of(a))
    if a.is_zero_anchored and b.is_zero_anchored:
        return a.multiply_zero_anchored(b)
    for poly, other in ((a, b), (b, a)):
        coeffs = _poly_coeffs(poly)
        if coeffs is not None:
            return other.multiply_polynomial(coeffs)
    raise ArgumentError(
        "product is not representable as a sum of shifted powers; "
        "only polynomial factors may multiply shifted terms"
    )


def _constant_of(ps: PowerSum) -> float | None:
    if len(ps.terms) == 0:
        return 0.0
    if len(ps.terms) == 1 and ps.terms[0].anchor == 0.0 and ps.terms[0].exponent == 0.0:
        return ps.terms[0].coeff
    return None


def _poly_coeffs(ps: PowerSum) -> list[float] | None:
    """Low-to-high coefficients when every term is c * x^k with integer k >= 0."""
    coeffs: dict[int, float] = {}
    for t in ps.terms:
        if t.anchor != 0.0:
            return None
        if t.exponent < 0.0 or t.exponent != round(t.exponent):
            return None
        k = int(round(t.exponent))
        coeffs[k] = coeffs.get(k, 0.0) + t.coeff
    if not coeffs:
        return [0.0]
    out = [0.0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def _parse_factor(tk: _Tokens) -> PowerSum:
    base = _parse_base(tk)
    if tk.try_char("^"):
        exponent = tk.number()
        single = len(base.terms) == 1 and base.terms[0].coeff == 1.0
        if single and base.terms[0].exponent == 1.0:
            t = base.terms[0]
            if t.anchor != 0.0 and exponent != round(exponent):
                raise ArgumentError("fractional powers must be anchored at x = 0")
            return PowerSum((PowerTerm(1.0, t.anchor, exponent),))
        if exponent == round(exponent) and exponent >= 0:
            out = PowerSum.from_terms([(1.0, 0.0, 0.0)])
            for _ in range(int(round(exponent))):
                out = _multiply(out, base)
            return out
        raise ArgumentError("fractional powers apply to 'x' only")
    return base


def _parse_base(tk: _Tokens) -> PowerSum:
    ch = tk.peek()
    if ch is None:
        raise ArgumentError("unexpected end of expression")
    if ch == "(":
        tk.take_char("(")
        inner = _parse_expr(tk)
        tk.take_char(")")
        return inner
    if ch == "x":
        tk.pos += 1
        return PowerSum.from_terms([(1.0, 0.0, 1.0)])
    if ch == "c":
        for want in "chi":
            tk.take_char(want)
        tk.take_char("(")
        a = tk.number()
        tk.take_char(",")
        b = tk.number()
        tk.take_char(")")
        if not 0.0 <= a < b <= 1.0:
            raise ArgumentError(f"chi(a, b) needs 0 <= a < b <= 1, got ({a}, {b})")
        terms = [(1.0, a, 0.0)]
        if b < 1.0:
            terms.append((-1.0, b, 0.0))
        return PowerSum.from_terms(terms)
    return PowerSum.from_terms([(tk.number(), 0.0, 0.0)])


def parse_field(expr: str, hint: float | None) -> ScalarField:
    """Parse an expression over {x, +, -, *, ^, const, chi(a,b)} into a field.

    The singularity hint is required alongside custom expressions; pass 0.0
    (or the known leading exponent at x = 0) explicitly.
    """
    if hint is None:
        raise ArgumentError(
            "custom fields need an explicit singularity hint (0 when smooth at x = 0)"
        )
    if not np.isfinite(hint):
        raise ArgumentError(f"singularity hint must be a finite number, got {hint}")
    tk = _Tokens(expr)
    try:
        ps = _parse_expr(tk)
    except RecursionError:
        raise ArgumentError(f"expression nests too deeply, {expr.count('(')} parentheses") from None
    if tk.peek() is not None:
        raise ArgumentError(f"trailing input at position {tk.pos} in {expr!r}")
    worst = ps.min_exponent_at_zero()
    if worst is not None and worst < 0.0 and hint > worst:
        raise DomainError(
            f"hint {hint} is weaker than the parsed leading exponent {worst}"
        )
    return ScalarField(
        fn=ps.__call__,
        hint=hint if hint != 0.0 else None,
        powersum=ps,
        label=expr,
    )
