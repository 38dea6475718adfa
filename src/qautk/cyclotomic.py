"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a vector of integer numerators in the power basis
1, zeta, ..., zeta^(phi(m)-1) over one positive common denominator, kept in
lowest terms, so equality and hashing are exact.  All arithmetic runs on
Python integers through two helpers: `_product` (convolution reduced modulo
the m-th cyclotomic polynomial) and `_substitute` (zeta^j -> zeta_n^(a j),
which gives conjugates, the other Galois conjugates, lifts and reduction).
``Fraction`` appears only where rationals enter or leave.  A float embedding
serves the occasions where only a sign is needed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first.

    x^m - 1 divided exactly by the monic Phi_d of every proper divisor d.
    """
    if m < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_polynomial(d)
            quot = [0] * (len(num) - len(div) + 1)
            for shift in reversed(range(len(quot))):
                q = quot[shift] = num[shift + len(div) - 1]
                for i, c in enumerate(div):
                    num[shift + i] -= q * c
            if any(num):
                raise RuntimeError("cyclotomic division left a remainder")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta_m^k reduced modulo the cyclotomic polynomial, for 0 <= k < m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    # x^deg = -(phi[0] + ... + phi[deg-1] x^(deg-1)) since phi is monic
    powers = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(m):
        powers.append(tuple(cur))
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [a - carry * c for a, c in zip(cur, phi)]
    return tuple(powers)


@lru_cache(maxsize=None)
def _root_exponents(m: int) -> dict[tuple[int, ...], int]:
    """The inverse of `_power_table`: numerators of zeta_m^k mapped to k."""
    return {p: k for k, p in enumerate(_power_table(m))}


def _substitute(coeffs: Sequence[int], a: int, order: int) -> list[int]:
    """Power-basis numerators of sum_j coeffs[j] * zeta_order^(a*j)."""
    table = _power_table(order)
    deg = len(table[0])
    acc = [0] * deg
    for j, c in enumerate(coeffs):
        if c:
            e = a * j % order
            if e < deg:
                acc[e] += c
            else:
                for t, p in enumerate(table[e]):
                    acc[t] += c * p
    return acc


def _product(order: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Power-basis numerators of the product of two elements' numerators."""
    conv = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                conv[i + j] += x * y
    return _substitute(conv, 1, order)


@dataclass(frozen=True)
class Cyclotomic:
    """sum_j coeffs[j] * zeta_order^j / den in Q(zeta_order).

    Construction brings (coeffs, den) to lowest terms with den > 0.
    """

    order: int
    coeffs: tuple[int, ...]
    den: int

    def __post_init__(self):
        deg = len(cyclotomic_polynomial(self.order)) - 1
        if len(self.coeffs) != deg:
            raise ValueError(f"expected {deg} coefficients for order {self.order}")
        if not self.den:
            raise ZeroDivisionError("cyclotomic denominator is zero")
        g = gcd(self.den, *self.coeffs)
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "coeffs", tuple(c // g for c in self.coeffs))
            object.__setattr__(self, "den", self.den // g)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls.rational(order, 0)

    @classmethod
    def rational(cls, order: int, value) -> "Cyclotomic":
        q = Fraction(value)
        deg = len(cyclotomic_polynomial(order)) - 1
        return cls(order, (q.numerator,) + (0,) * (deg - 1), q.denominator)

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls.rational(order, 1)

    @classmethod
    def root(cls, order: int, exponent: int) -> "Cyclotomic":
        """zeta_order ** exponent."""
        return cls(order, _power_table(order)[exponent % order], 1)

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Sequence) -> "Cyclotomic":
        """Reduce an arbitrary polynomial in zeta_order with rational coefficients."""
        qs = [Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        nums = [q.numerator * (den // q.denominator) for q in qs]
        return cls(order, tuple(_substitute(nums, 1, order)), den)

    # -- ring operations ----------------------------------------------------

    def _match(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}; lift first"
            )

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        d, e = self.den, other.den
        nums = tuple(a * e + b * d for a, b in zip(self.coeffs, other.coeffs))
        return Cyclotomic(self.order, nums, d * e)

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        d, e = self.den, other.den
        nums = tuple(a * e - b * d for a, b in zip(self.coeffs, other.coeffs))
        return Cyclotomic(self.order, nums, d * e)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs), self.den)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        return Cyclotomic(
            self.order, tuple(_product(self.order, self.coeffs, other.coeffs)), self.den * other.den
        )

    def scale(self, factor) -> "Cyclotomic":
        f = Fraction(factor)
        return Cyclotomic(
            self.order, tuple(f.numerator * a for a in self.coeffs), f.denominator * self.den
        )

    def inverse(self) -> "Cyclotomic":
        """x^-1 = prod_{a != 1} sigma_a(x) / N(x), the norm N(x) being rational.

        sigma_a (zeta -> zeta^a, gcd(a, m) = 1) runs over the Galois group.
        """
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        m = self.order
        others = [1] + [0] * (len(self.coeffs) - 1)
        for a in range(2, m):
            if gcd(a, m) == 1:
                others = _product(m, others, _substitute(self.coeffs, a, m))
        norm = _product(m, self.coeffs, others)
        if any(norm[1:]):
            raise RuntimeError("cyclotomic norm is not rational")
        return Cyclotomic(m, tuple(self.den * c for c in others), norm[0])

    def __truediv__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        """A rational divided by self, e.g. ``1 / x``."""
        return self.inverse().scale(other)

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(_substitute(self.coeffs, -1, self.order)), self.den)

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        if any(self.coeffs[1:]):
            return None
        return Fraction(self.coeffs[0], self.den)

    def root_exponent(self) -> int | None:
        """The k in 0..order-1 with self == zeta_order^k, or None if there is none."""
        return _root_exponents(self.order).get(self.coeffs) if self.den == 1 else None

    def lift(self, order: int) -> "Cyclotomic":
        """Embed into Q(zeta_order) for a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        nums = _substitute(self.coeffs, order // self.order, order)
        return Cyclotomic(order, tuple(nums), self.den)

    def __complex__(self) -> complex:
        z = 0j
        for j, a in enumerate(self.coeffs):
            if a:
                z += a / self.den * cmath.exp(2j * cmath.pi * j / self.order)
        return z

    def __str__(self) -> str:
        parts = []
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            q = Fraction(a, self.den)
            if j == 0:
                parts.append(str(q))
            else:
                parts.append(f"{q}*z^{j}" if q != 1 else f"z^{j}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# JSON forms: rationals as "p/q", pure roots as {"exp": a}, general elements
# as {"coeffs": [...]}
# ---------------------------------------------------------------------------

def _fraction_to_json(q: Fraction):
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def cyclotomic_to_json(x: Cyclotomic):
    r = x.as_rational()
    if r is not None:
        return _fraction_to_json(r)
    a = x.root_exponent()
    if a is not None:
        return {"exp": a}
    return {"coeffs": [_fraction_to_json(Fraction(c, x.den)) for c in x.coeffs]}


def _rational_from_json(data) -> Fraction:
    if isinstance(data, float):
        raise ValueError("coefficients must be exact: use \"p/q\" strings, not floats")
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValueError(f"cannot read a rational from {data!r}")
    try:
        return Fraction(data)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {data!r}") from None


def cyclotomic_from_json(order: int, data) -> Cyclotomic:
    if not isinstance(data, dict):
        return Cyclotomic.rational(order, _rational_from_json(data))
    if "exp" in data:
        exp = data["exp"]
        if isinstance(exp, bool) or not isinstance(exp, int):
            raise ValueError(f"root exponent must be an integer, got {exp!r}")
        return Cyclotomic.root(order, exp)
    if isinstance(data.get("coeffs"), list):
        return Cyclotomic.from_coeffs(order, [_rational_from_json(c) for c in data["coeffs"]])
    raise ValueError(f"cannot read a cyclotomic number from {data!r}")
