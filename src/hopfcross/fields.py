"""The two kinds of field, the rationals and prime fields, and their
scalar grammar.

Every tensor in this package carries a field descriptor; all scalars
inside one computation belong to that single field.  A scalar is held
as integers: n / d over QQ, a residue over F_p.  :meth:`Field.parse`
reads a scalar string into such a pair and :meth:`Field.format` writes
one back; no other scalar form exists.  Tensors over different fields
meeting raise :class:`FieldMismatchError` instead of silently coercing.
"""

from __future__ import annotations

import math
import re

# "n" or "p/q" in ASCII digits, then " mod p" over F_p: the standard
# library's rational parser also reads "1e999999999" and never ends, and
# int(s) reads "1_0" and digits of other scripts
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?: mod ([0-9]+))?")


class FieldMismatchError(TypeError):
    """Raised when scalars from different fields meet in one operation."""


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
    are the two constructors.  The descriptor owns parsing and formatting
    of scalars; arithmetic runs on the integers of ``linalg.Exact``.
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

    # -- serialization ---------------------------------------------------

    def parse(self, s):
        """(n, d) with n / d the scalar ``s``: "n" or "p/q" in ASCII
        digits, over F_p optionally followed by " mod p"; an int (not a
        bool) stands for itself.  Over QQ d > 0, over F_p n is the
        residue and d is 1."""
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

    def format(self, n, d):
        """The canonical string of n / d, which :meth:`parse` reads back
        (over F_p, d is 1)."""
        if self.p is not None:
            return f"{n % self.p} mod {self.p}"
        g = math.gcd(n, d)
        return str(n // g) if d == g else f"{n // g}/{d // g}"

    @classmethod
    def from_name(cls, name):
        """Build a descriptor from its wire name: "rational" or
        "prime:<p>", spelled as :attr:`name` writes it back."""
        if name == "rational":
            return cls.rationals()
        if isinstance(name, str) and name.startswith("prime:"):
            digits = name[len("prime:"):]
            try:
                p = int(digits)
            except ValueError:
                p = None
            if p is None or str(p) != digits:
                raise ValueError(f"bad field name {name!r}")
            return cls.prime(p)
        raise ValueError(f"unknown field {name!r} (expected 'rational' or 'prime:<p>')")

    @property
    def name(self):
        return "rational" if self.p is None else f"prime:{self.p}"


QQ = Field.rationals()
