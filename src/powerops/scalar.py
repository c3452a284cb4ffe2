"""Fixed-precision p-adic scalars and the nilpotent coefficient ring Z_p[v3]/(v3^2).

A nonzero scalar is stored as (valuation, unit, prec) meaning

    value = p^valuation * unit,   unit coprime to p,  unit known mod p^prec.

Multiplication and division are exact at the tracked relative precision;
addition may lose significance on cancellation, and the loss is recorded.
Values divided by p (negative valuation) are first-class, which is what the
logarithm x + (v3/p) x^(p^3) and the binomial quotients C(ip,i)/p require.
A Teichmuller lift, the (p-1)st root of unity that acts on the formal group
law, is a plain unit `PAdicScalar`.
"""

from __future__ import annotations

from .arith import Immutable, prime_factors

__all__ = [
    "PAdicScalar",
    "CoeffV3",
    "PrecisionLossError",
    "teichmuller",
    "primitive_teichmuller_root",
]

DEFAULT_PRECISION = 8


class PrecisionLossError(ArithmeticError):
    """A nonzero result kept no significant digit."""


def _precision_loss(prec: int) -> PrecisionLossError:
    # one digit is enough for the mod-p assertions downstream
    return PrecisionLossError(f"precision dropped to {prec} digits (floor 1)")


def _valuation_of_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


class PAdicScalar(Immutable):
    """Element of Q_p with explicit valuation and unit part mod p^prec.

    Immutable; `zero(p)` is one shared instance per p.
    """

    __slots__ = ("p", "valuation", "unit", "prec", "is_zero_flag")

    def __init__(self, p: int, valuation: int, unit: int, prec: int, is_zero_flag: bool = False):
        _set_p(self, p)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_prec(self, prec)
        _set_is_zero_flag(self, is_zero_flag)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PAdicScalar":
        z = _ZEROS.get(p)
        if z is None:
            z = _ZEROS[p] = cls(p, 0, 0, 0, is_zero_flag=True)
        return z

    @classmethod
    def from_int(cls, p: int, n: int, prec: int = DEFAULT_PRECISION) -> "PAdicScalar":
        if n == 0:
            return cls.zero(p)
        v = _valuation_of_int(abs(n), p)
        unit = (n // p**v) % p**prec
        return cls(p, v, unit, prec)

    @classmethod
    def from_ratio(cls, p: int, num: int, den: int, prec: int = DEFAULT_PRECISION) -> "PAdicScalar":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return cls.from_int(p, num, prec) / cls.from_int(p, den, prec)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.is_zero_flag

    def is_integral(self) -> bool:
        return self.is_zero_flag or self.valuation >= 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PAdicScalar") -> "PAdicScalar":
        if self.is_zero_flag:
            return other
        if other.is_zero_flag:
            return self
        p, a, b = self.p, self.valuation, other.valuation
        v = a if a < b else b
        # absolute precision of each operand, relative to p^v
        m, n = a + self.prec - v, b + other.prec - v
        if n < m:
            m = n
        s = (self.unit * p ** (a - v) + other.unit * p ** (b - v)) % p**m
        if s == 0:
            # cancellation to below the known precision; the uses in this
            # package only cancel structurally exact values
            return PAdicScalar.zero(p)
        # 0 < s < p^m, so t < m: a sum always keeps the one-digit floor
        t = _valuation_of_int(s, p)
        return PAdicScalar(p, v + t, (s // p**t) % p ** (m - t), m - t)

    def __neg__(self) -> "PAdicScalar":
        if self.is_zero_flag:
            return self
        return PAdicScalar(self.p, self.valuation, (-self.unit) % self.p**self.prec, self.prec)

    def __sub__(self, other: "PAdicScalar") -> "PAdicScalar":
        return self + (-other)

    def __mul__(self, other: "PAdicScalar") -> "PAdicScalar":
        if self.is_zero_flag:
            return self
        if other.is_zero_flag:
            return other
        prec = self.prec if self.prec < other.prec else other.prec
        if prec < 1:
            raise _precision_loss(prec)
        return PAdicScalar(
            self.p, self.valuation + other.valuation, (self.unit * other.unit) % self.p**prec, prec
        )

    def __truediv__(self, other: "PAdicScalar") -> "PAdicScalar":
        p = self.p
        if other.is_zero_flag:
            raise ZeroDivisionError("division by p-adic zero")
        if self.is_zero_flag:
            return self
        prec = min(self.prec, other.prec)
        inv = pow(other.unit, -1, p**prec)
        if prec < 1:
            raise _precision_loss(prec)
        return PAdicScalar(p, self.valuation - other.valuation, (self.unit * inv) % p**prec, prec)

    def mul_int(self, n: int) -> "PAdicScalar":
        """self * n, at the precision of self."""
        if self.is_zero_flag or n == 0:
            return PAdicScalar.zero(self.p)
        p, prec = self.p, self.prec
        if prec < 1:
            raise _precision_loss(prec)
        v = _valuation_of_int(n, p)
        return PAdicScalar(p, self.valuation + v, (self.unit * (n // p**v)) % p**prec, prec)

    def __pow__(self, n: int) -> "PAdicScalar":
        """self^n in closed form: valuation n*v, unit^n mod p^prec, exact at
        the precision of self.  0^0 is one at the default precision."""
        if n < 0:
            raise ValueError("negative power")
        p = self.p
        if self.is_zero_flag:
            return self if n else PAdicScalar.from_int(p, 1)
        prec = self.prec
        if n and prec < 1:
            raise _precision_loss(prec)
        return PAdicScalar(p, n * self.valuation, pow(self.unit, n, p**prec), prec)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PAdicScalar):
            if isinstance(other, int):
                other = PAdicScalar.from_int(self.p, other, max(self.prec, 1))
            else:
                return NotImplemented
        if self.is_zero_flag or other.is_zero_flag:
            return self.is_zero_flag and other.is_zero_flag
        if self.valuation != other.valuation:
            return False
        m = self.p ** min(self.prec, other.prec)
        return (self.unit - other.unit) % m == 0

    # -- reductions --------------------------------------------------------

    def residue(self) -> int:
        """Image in F_p; requires a p-adic integer."""
        if self.is_zero_flag:
            return 0
        if self.valuation < 0:
            raise ValueError("negative valuation: not a p-adic integer")
        if self.valuation > 0:
            return 0
        return self.unit % self.p

    def __repr__(self) -> str:
        if self.is_zero_flag:
            return "0"
        return f"{self.p}^{self.valuation}*{self.unit}(+O({self.p}^{self.valuation + self.prec}))"


_set_p = PAdicScalar.p.__set__
_set_valuation = PAdicScalar.valuation.__set__
_set_unit = PAdicScalar.unit.__set__
_set_prec = PAdicScalar.prec.__set__
_set_is_zero_flag = PAdicScalar.is_zero_flag.__set__
_ZEROS: dict[int, PAdicScalar] = {}


# ---------------------------------------------------------------------------
# Teichmuller lifts
# ---------------------------------------------------------------------------


def teichmuller(residue: int, p: int, prec: int = DEFAULT_PRECISION) -> PAdicScalar:
    """Lift of a unit residue to the root of unity fixed by x -> x^p mod p^prec.

    The lift is a plain `PAdicScalar` w of valuation 0 with w^(p-1) = 1 to
    the stored precision; its powers are `w ** i`.  It is residue^(p^(prec-1))
    mod p^prec: the units mod p^prec are mu_(p-1) x (1 + pZ_p), and the
    p^(prec-1)-th power kills the second factor while keeping the root of
    unity with the same residue.  A precision below one digit raises
    ValueError.
    """
    if residue % p == 0:
        raise ValueError("residue must be a unit mod p")
    if prec < 1:
        raise ValueError(f"a Teichmuller lift needs at least one digit, got {prec}")
    return PAdicScalar(p, 0, pow(residue, p ** (prec - 1), p**prec), prec)


def _is_primitive_root(g: int, p: int) -> bool:
    n = p - 1
    return all(pow(g, n // q, p) != 1 for q in prime_factors(n))


def primitive_teichmuller_root(p: int, prec: int = DEFAULT_PRECISION) -> PAdicScalar:
    """Teichmuller lift of the smallest primitive root mod p."""
    for g in range(2, p):
        if _is_primitive_root(g, p):
            return teichmuller(g, p, prec)
    raise ValueError(f"{p} is not an odd prime")


# ---------------------------------------------------------------------------
# The ring Z_p[v3]/(v3^2)
# ---------------------------------------------------------------------------


class CoeffV3(Immutable):
    """Element a + b*v3 with v3^2 = 0.

    (a + b v3)(c + d v3) = ac + (ad + bc) v3; the v3 part never feeds back
    into the plain part.  Immutable; `zero(p)` is one shared instance per p.
    """

    __slots__ = ("plain", "v3part")

    def __init__(self, plain: PAdicScalar, v3part: PAdicScalar):
        _set_plain(self, plain)
        _set_v3part(self, v3part)

    @classmethod
    def zero(cls, p: int) -> "CoeffV3":
        z = _COEFF_ZEROS.get(p)
        if z is None:
            pz = PAdicScalar.zero(p)
            z = _COEFF_ZEROS[p] = cls(pz, pz)
        return z

    @classmethod
    def one(cls, p: int, prec: int = DEFAULT_PRECISION) -> "CoeffV3":
        return cls(PAdicScalar.from_int(p, 1, prec), PAdicScalar.zero(p))

    @classmethod
    def from_plain(cls, a: PAdicScalar) -> "CoeffV3":
        """a + 0*v3; a zero scalar gives the shared `zero(p)`."""
        if a.is_zero_flag:
            return cls.zero(a.p)
        return cls(a, PAdicScalar.zero(a.p))

    @classmethod
    def from_v3(cls, b: PAdicScalar) -> "CoeffV3":
        """0 + b*v3; a zero scalar gives the shared `zero(p)`."""
        if b.is_zero_flag:
            return cls.zero(b.p)
        return cls(PAdicScalar.zero(b.p), b)

    @classmethod
    def from_int(cls, p: int, n: int, prec: int = DEFAULT_PRECISION) -> "CoeffV3":
        return cls.from_plain(PAdicScalar.from_int(p, n, prec))

    @property
    def p(self) -> int:
        return self.plain.p

    def is_zero(self) -> bool:
        return self.plain.is_zero_flag and self.v3part.is_zero_flag

    def __add__(self, other: "CoeffV3") -> "CoeffV3":
        return CoeffV3(self.plain + other.plain, self.v3part + other.v3part)

    def __neg__(self) -> "CoeffV3":
        return CoeffV3(-self.plain, -self.v3part)

    def __sub__(self, other: "CoeffV3") -> "CoeffV3":
        return self + (-other)

    def __mul__(self, other: "CoeffV3") -> "CoeffV3":
        a, b, c, d = self.plain, self.v3part, other.plain, other.v3part
        # a zero product adds nothing: 0 + x is x itself
        if a.is_zero_flag or d.is_zero_flag:
            return CoeffV3(a * c, b * c)
        if b.is_zero_flag or c.is_zero_flag:
            return CoeffV3(a * c, a * d)
        return CoeffV3(a * c, a * d + b * c)

    def mul_int(self, n: int) -> "CoeffV3":
        return CoeffV3(self.plain.mul_int(n), self.v3part.mul_int(n))

    def times_v3(self) -> "CoeffV3":
        """Multiplication by v3 (kills the existing v3 part)."""
        return CoeffV3(PAdicScalar.zero(self.p), self.plain)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        if self.v3part.is_zero():
            return repr(self.plain)
        if self.plain.is_zero():
            return f"({self.v3part!r})*v3"
        return f"{self.plain!r} + ({self.v3part!r})*v3"


_set_plain = CoeffV3.plain.__set__
_set_v3part = CoeffV3.v3part.__set__
_COEFF_ZEROS: dict[int, CoeffV3] = {}
