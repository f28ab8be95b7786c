"""Exact scalar arithmetic over the rationals and over prime fields.

Every structure in this package carries a field descriptor; all scalars
inside one computation belong to that single field.  Rational scalars are
``fractions.Fraction`` (always reduced, arbitrary precision), prime-field
scalars are :class:`Fp` residues.  Mixing elements of different fields
raises :class:`FieldMismatchError` instead of silently coercing.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# "n" or "p/q" in ASCII digits, then " mod p" over F_p: Fraction(s) also
# reads "1e999999999" and never ends, and int(s) reads "1_0" and digits
# of other scripts
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?: mod ([0-9]+))?")


class FieldMismatchError(TypeError):
    """Raised when scalars from different fields meet in one operation."""


class Fp:
    """A residue in the prime field with ``p`` elements.

    Supports +, -, *, / with other residues mod the same p and with plain
    ints (reduced mod p).  Anything else is rejected so that a rational
    can never leak into a mod-p computation.
    """

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix F_{self.p} and F_{other.p} elements")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if other is NotImplemented or isinstance(other, (Fraction, float)):
            raise FieldMismatchError(
                f"cannot mix F_{self.p} element with {type(other).__name__}")
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.value * pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __pos__(self):
        return self

    def __eq__(self, other):
        # an int is equal only to the residue it names canonically, in
        # 0..p-1, so that equal values always have equal hashes
        if isinstance(other, Fp):
            return self.value == self._lift(other).value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly for every n below this bound (Sorenson and Webster, Math. Comp.
# 2017); above it the test would only be probabilistic, so it refuses.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for n below _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is only decided below {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_int(x):
    """Whether x is an int other than a bool (JSON's true and false)."""
    return isinstance(x, int) and not isinstance(x, bool)


class Field:
    """Field descriptor: the rationals or F_p for a prime p.

    Instances compare by value; ``Field.rationals()`` and ``Field.prime(p)``
    are the two constructors.  The descriptor owns parsing, formatting and
    coercion of scalars; arithmetic lives on the elements themselves.
    """

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    @classmethod
    def rationals(cls):
        return cls(None)

    @classmethod
    def prime(cls, p):
        return cls(p)

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    # -- element construction -------------------------------------------

    def zero(self):
        return Fraction(0) if self.p is None else Fp(0, self.p)

    def one(self):
        return Fraction(1) if self.p is None else Fp(1, self.p)

    def coerce(self, x):
        """Turn ints (not bools) / strings / same-field elements into a
        field element."""
        return self._element(*self.ratio(x))

    def ratio(self, x):
        """(n, d) with x = n / d for an int (not a bool), a scalar string
        or an element of this field: over QQ d > 0, over F_p n is the
        residue and d is 1."""
        if isinstance(x, str) or _is_int(x):
            return self._parse_ratio(x)
        if self.p is None:
            if isinstance(x, Fraction):
                return x.numerator, x.denominator
            raise FieldMismatchError(f"cannot coerce {x!r} into QQ")
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatchError(f"cannot coerce F_{x.p} into F_{self.p}")
            return x.value, 1
        raise FieldMismatchError(f"cannot coerce {x!r} into GF({self.p})")

    def _element(self, n, d):
        return Fraction(n, d) if self.p is None else Fp(n, self.p)

    # -- serialization ---------------------------------------------------

    def parse(self, s):
        """Parse a scalar string: "n" or "p/q" in ASCII digits, over F_p
        optionally followed by " mod p"; an int (not a bool) stands for
        itself."""
        return self._element(*self._parse_ratio(s))

    def _parse_ratio(self, s):
        """(n, d) as :meth:`ratio` gives it of what :meth:`parse` reads."""
        if _is_int(s):
            return (s, 1) if self.p is None else (s % self.p, 1)
        if not isinstance(s, str):
            raise ValueError(f"scalar must be a string or int, got {type(s).__name__}")
        s = s.strip()
        if self.p is None and "mod" in s:
            raise ValueError(f"prime-field scalar {s!r} in a rational context")
        m = _SCALAR.fullmatch(s)
        if m is None and self.p is None:
            raise ValueError(f"bad rational scalar {s!r}: expected n or p/q")
        if m is None:
            raise ValueError(f"bad prime-field scalar {s!r}: expected n or "
                             f"p/q, optionally followed by ' mod {self.p}'")
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError as exc:       # more digits than int() reads
            raise ValueError(f"bad scalar {s!r}: {exc}") from None
        if self.p is None:
            if den == 0:
                raise ValueError(f"bad rational scalar {s!r}: zero denominator")
            return num, den
        if m[3] and int(m[3]) != self.p:
            raise ValueError(f"scalar {s!r} has modulus {int(m[3])}, field is F_{self.p}")
        if den % self.p == 0:
            raise ValueError(f"scalar {s!r} has non-invertible denominator in F_{self.p}")
        return num * pow(den, -1, self.p) % self.p, 1

    def format(self, x):
        """Canonical string form, the inverse of :meth:`parse`."""
        return self.format_ratio(*self.ratio(x))

    def format_ratio(self, n, d):
        """The canonical string of n / d (over F_p, d is 1)."""
        if self.p is not None:
            return f"{n % self.p} mod {self.p}"
        g = math.gcd(n, d)
        return str(n // g) if d == g else f"{n // g}/{d // g}"

    @classmethod
    def from_name(cls, name):
        """Build a descriptor from its wire name: "rational" or "prime:<p>"."""
        if name == "rational":
            return cls.rationals()
        if isinstance(name, str) and name.startswith("prime:"):
            try:
                p = int(name.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad field name {name!r}") from None
            return cls.prime(p)
        raise ValueError(f"unknown field {name!r} (expected 'rational' or 'prime:<p>')")

    @property
    def name(self):
        return "rational" if self.p is None else f"prime:{self.p}"


QQ = Field.rationals()
