"""Scalar coefficient fields: the built-in source/potential catalog and a
small expression grammar for user-supplied ones. Every field is a shifted
power sum, which the loads, the splitting constant and the exact solution
read exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .fraccalc import PowerSum, PowerTerm

__all__ = [
    "zero_field",
    "source_bump",
    "source_step",
    "source_inverse_quartic",
    "SOURCES",
    "POTENTIALS",
    "parse_field",
]


def zero_field() -> PowerSum:
    return PowerSum(())


def source_bump() -> PowerSum:
    """f(x) = x (1 - x)."""
    return PowerSum.from_terms([(1.0, 0.0, 1.0), (-1.0, 0.0, 2.0)])


def source_step() -> PowerSum:
    """Indicator of [0, 1/2)."""
    return PowerSum.from_terms([(1.0, 0.0, 0.0), (-1.0, 0.5, 0.0)])


def source_inverse_quartic() -> PowerSum:
    """f(x) = x^(-1/4), integrable endpoint blow-up at x = 0."""
    return PowerSum.from_terms([(1.0, 0.0, -0.25)])


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
        literal = self.text[start : self.pos]
        try:
            value = float(literal)
        except ValueError:
            raise ArgumentError(
                f"expected a number at position {start} in {self.text!r}"
            ) from None
        if not np.isfinite(value):
            raise ArgumentError(
                f"number {literal!r} at position {start} in {self.text!r} overflows a float"
            )
        return value


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
        product = product * _parse_factor(tk)
    return product


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
                out = out * base
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


def parse_field(expr: str) -> PowerSum:
    """Parse an expression over {x, +, -, *, ^, const, chi(a,b)} into its
    power sum."""
    tk = _Tokens(expr)
    try:
        ps = _parse_expr(tk).merged()  # terms that cancel leave the zero field
    except RecursionError:
        raise ArgumentError(f"expression nests too deeply, {expr.count('(')} parentheses") from None
    if tk.peek() is not None:
        raise ArgumentError(f"trailing input at position {tk.pos} in {expr!r}")
    return ps
