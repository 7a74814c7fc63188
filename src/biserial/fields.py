"""Exact coefficient fields: the rationals and prime fields.

This module is the one place that knows field types.  Elements are plain
Python values (over Q an ``int`` when integral, else a ``fractions.Fraction``;
``int`` residues over GF(p)), falsy exactly when zero, and printed by
``str``.  The field object is the whole interface the other layers use:
``zero``, ``one``, ``inv``, ``neg``, construction, ``parse`` and ``reduce``,
the normal form of raw sums and products; for the elimination kernel, the
pivot preference (``pivot_key``, least first) and one call per row
operation (``scale_row``, ``sub_row``); for the isomorphism search, its
defaults (``iso_trials`` and the coefficient ``draw``).  All arithmetic is
exact, so results are proof-grade: ``a / b * b == a`` whenever ``b != 0``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import InputError


class FieldError(InputError):
    """Raised for invalid field specifications or elements."""


def _normal(x):
    return x.numerator if x.denominator == 1 else x


# The one literal form of an entry: an integer or a quotient of integers in
# ASCII digits.  ``Fraction`` alone also reads exponents, decimals,
# underscores and other scripts' digits, and it expands ``1e5000`` without
# the 4,300-digit bound that ``int`` puts on a string of digits.
_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _literal(token: str) -> Fraction:
    if not _LITERAL.fullmatch(token):
        raise ValueError(f"not a literal: {token!r}")
    return Fraction(token)


class Rationals:
    """Q: an element is an ``int`` when integral, else a ``Fraction``."""

    name = "q"
    zero = 0
    one = 1
    iso_trials = 20

    def __call__(self, value):
        return _normal(Fraction(value))

    @staticmethod
    def pivot_key(x) -> tuple:
        """Integral entries of small height first, which keeps intermediate
        fractions from growing."""
        return (x.denominator != 1, abs(x.numerator) + abs(x.denominator))

    def scale_row(self, row: list, support: list, c) -> None:
        for j in support:
            x = row[j] * c
            row[j] = x if type(x) is int else _normal(x)

    def sub_row(self, row: list, pivot_row: list, support: list, f) -> None:
        """``row -= f * pivot_row`` at the columns in ``support``."""
        for j in support:
            x = row[j] - f * pivot_row[j]
            row[j] = x if type(x) is int else _normal(x)

    def draw(self, rng) -> int:
        """A random coefficient for the isomorphism search, from -9..9."""
        return rng.randrange(-9, 10)

    def inv(self, x):
        """The inverse of a nonzero element."""
        return _normal(Fraction(x.denominator, x.numerator))

    def neg(self, x):
        return -x

    def reduce(self, rows: list) -> list:
        """Rows of raw sums and products in normal form.  A row's sum, run
        in C, is a ``Fraction`` exactly when one of its entries is."""
        if Fraction not in map(type, map(sum, rows)):
            return rows
        return [[_normal(x) for x in row] for row in rows]

    def parse(self, token: str):
        try:
            return _normal(_literal(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {token!r}") from exc

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("q")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """The field with p elements, p prime, elements stored as 0 <= x < p."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, min(p, 46341)) if q * q <= p):
            raise FieldError(f"modulus {p} is not prime")
        if p > 2**31:
            raise FieldError(f"modulus {p} exceeds the supported bound 2^31")
        self.p = p
        self.name = f"fp:{p}"

    def __call__(self, value) -> int:
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator divisible by {self.p}")
            return value.numerator * self.inv(den) % self.p
        return int(value) % self.p

    zero = 0
    one = 1
    iso_trials = 40

    @staticmethod
    def pivot_key(x: int) -> int:
        """Every nonzero residue is as good a pivot as any: the first wins."""
        return 0

    def scale_row(self, row: list, support: list, c: int) -> None:
        p = self.p
        for j in support:
            row[j] = row[j] * c % p

    def sub_row(self, row: list, pivot_row: list, support: list, f: int) -> None:
        """``row -= f * pivot_row`` at the columns in ``support``, mod p."""
        p = self.p
        for j in support:
            row[j] = (row[j] - f * pivot_row[j]) % p

    def draw(self, rng) -> int:
        """A random coefficient for the isomorphism search, from all of GF(p)."""
        return rng.randrange(0, self.p)

    def inv(self, x: int) -> int:
        """The inverse of a nonzero residue, by Fermat's little theorem."""
        return pow(x, self.p - 2, self.p)

    def neg(self, x: int) -> int:
        return -x % self.p

    def reduce(self, rows: list) -> list:
        """Rows of raw integer sums and products, reduced to 0 <= x < p."""
        p = self.p
        return [[x % p for x in row] for row in rows]

    def parse(self, token: str) -> int:
        try:
            return self(_literal(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad residue literal {token!r}") from exc

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = Rationals()


def field_from_spec(spec: str):
    """Parse a field flag: ``q`` for the rationals, ``fp:<p>`` for GF(p)."""
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rationals"):
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise FieldError(f"bad field spec {spec!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field spec {spec!r} (expected 'q' or 'fp:<p>')")
