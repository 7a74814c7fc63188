"""Exact coefficient fields: the rationals and prime fields.

Every computation in this package runs over one of these two field
contexts.  Elements are plain Python values (``fractions.Fraction`` for
the rationals, ``int`` residues for a prime field); the field object
supplies construction, parsing, formatting, ``inv``, ``neg`` and the
normal form ``reduce`` of raw sums and products.  All arithmetic is exact,
so results are proof-grade: ``a / b * b == a`` whenever ``b != 0``.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Raised for invalid field specifications or elements."""


class Rationals:
    """The field of rational numbers with arbitrary-precision integers."""

    char = 0
    name = "q"
    # Fractions are immutable, so every caller can share one zero and one.
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        return Fraction(value)

    def inv(self, x: Fraction) -> Fraction:
        """The inverse of a nonzero element."""
        return self.one / x

    def neg(self, x: Fraction) -> Fraction:
        return -x

    def reduce(self, rows: list) -> list:
        """Rows of raw sums and products in normal form: rationals need
        none, so the rows themselves."""
        return rows

    def parse(self, token: str) -> Fraction:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {token!r}") from exc

    def format(self, value: Fraction) -> str:
        return str(value)

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
        self.char = p
        self.name = f"fp:{p}"

    def __call__(self, value) -> int:
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(value) % self.p

    zero = 0
    one = 1

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
            return self(Fraction(token))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad residue literal {token!r}") from exc

    def format(self, value: int) -> str:
        return str(value)

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
