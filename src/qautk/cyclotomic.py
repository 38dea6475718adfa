"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are kept reduced modulo the m-th cyclotomic polynomial, so equality
is coefficient equality.  This is enough field arithmetic for root-of-unity
structure constants: products, conjugates, inverses, and exact comparisons,
with a float embedding for the occasions where only a sign is needed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("order must be positive")
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            den = [Fraction(c) for c in cyclotomic_polynomial(d)]
            num, rem = _poly_divmod(num, den)
            if rem:
                raise RuntimeError("cyclotomic division left a remainder")
    out = []
    for c in num:
        if c.denominator != 1:
            raise RuntimeError("cyclotomic polynomial not integral")
        out.append(int(c))
    return tuple(out)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_m^k reduced modulo the cyclotomic polynomial, for 0 <= k < 2m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    # x^deg = -(phi[0] + ... + phi[deg-1] x^(deg-1)) since phi is monic
    top = [Fraction(-c) for c in phi[:-1]]
    powers: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(2 * m):
        powers.append(tuple(cur))
        carry = cur[deg - 1]
        nxt = [Fraction(0)] + cur[: deg - 1]
        if carry:
            nxt = [a + carry * b for a, b in zip(nxt, top)]
        cur = nxt
    return tuple(powers)


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_order), reduced to the power basis."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        deg = len(cyclotomic_polynomial(self.order)) - 1
        if len(self.coeffs) != deg:
            raise ValueError(f"expected {deg} coefficients for order {self.order}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        deg = len(cyclotomic_polynomial(order)) - 1
        return cls(order, (Fraction(0),) * deg)

    @classmethod
    def rational(cls, order: int, value) -> "Cyclotomic":
        deg = len(cyclotomic_polynomial(order)) - 1
        coeffs = [Fraction(0)] * deg
        coeffs[0] = Fraction(value)
        return cls(order, tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls.rational(order, 1)

    @classmethod
    def root(cls, order: int, exponent: int) -> "Cyclotomic":
        """zeta_order ** exponent."""
        table = _power_table(order)
        return cls(order, table[exponent % order])

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Sequence) -> "Cyclotomic":
        """Reduce an arbitrary polynomial in zeta_order."""
        table = _power_table(order)
        deg = len(table[0])
        acc = [Fraction(0)] * deg
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            if not c:
                continue
            base = table[k % order]
            for i in range(deg):
                acc[i] += c * base[i]
        return cls(order, tuple(acc))

    # -- ring operations ----------------------------------------------------

    def _match(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}; lift first"
            )

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        deg = len(self.coeffs)
        table = _power_table(self.order)
        acc = [Fraction(0)] * deg
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                c = a * b
                k = i + j
                if k < deg:
                    acc[k] += c
                else:
                    base = table[k]
                    for t in range(deg):
                        acc[t] += c * base[t]
        return Cyclotomic(self.order, tuple(acc))

    def scale(self, factor) -> "Cyclotomic":
        f = Fraction(factor)
        return Cyclotomic(self.order, tuple(f * a for a in self.coeffs))

    def inverse(self) -> "Cyclotomic":
        """Field inverse via the extended Euclidean algorithm mod Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        while r1 and r1[-1] == 0:
            r1.pop()
        s0: list[Fraction] = [Fraction(0)]
        s1: list[Fraction] = [Fraction(1)]
        while True:
            quot, rem = _poly_divmod(r0, r1)
            if not rem:
                break
            # s_next = s0 - quot * s1
            prod = [Fraction(0)] * (len(quot) + len(s1) - 1)
            for i, qc_ in enumerate(quot):
                if qc_:
                    for j, sc in enumerate(s1):
                        prod[i + j] += qc_ * sc
            length = max(len(s0), len(prod))
            s_next = [
                (s0[i] if i < len(s0) else Fraction(0))
                - (prod[i] if i < len(prod) else Fraction(0))
                for i in range(length)
            ]
            r0, r1 = r1, rem
            s0, s1 = s1, s_next
        # r1 is a nonzero constant gcd (Phi_m is irreducible over Q)
        if len(r1) != 1:
            raise RuntimeError("cyclotomic gcd is not a unit")
        inv_const = 1 / r1[0]
        return Cyclotomic.from_coeffs(self.order, [c * inv_const for c in s1])

    def __truediv__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        """A rational divided by self, e.g. ``1 / x``."""
        return self.inverse().scale(other)

    def conjugate(self) -> "Cyclotomic":
        table = _power_table(self.order)
        deg = len(self.coeffs)
        acc = [Fraction(0)] * deg
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            base = table[(self.order - j) % self.order]
            for t in range(deg):
                acc[t] += a * base[t]
        return Cyclotomic(self.order, tuple(acc))

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def lift(self, order: int) -> "Cyclotomic":
        """Embed into Q(zeta_order) for a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        step = order // self.order
        return Cyclotomic.from_coeffs(order, _sparse_to_list(self.coeffs, step))

    def __complex__(self) -> complex:
        z = 0j
        for j, a in enumerate(self.coeffs):
            if a:
                z += float(a) * cmath.exp(2j * cmath.pi * j / self.order)
        return z

    def __str__(self) -> str:
        parts = []
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            if j == 0:
                parts.append(str(a))
            else:
                parts.append(f"{a}*z^{j}" if a != 1 else f"z^{j}")
        return " + ".join(parts) if parts else "0"


def _sparse_to_list(coeffs: Sequence[Fraction], step: int) -> list[Fraction]:
    out = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for j, c in enumerate(coeffs):
        out[j * step] = c
    return out


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
    for a in range(x.order):
        if x == Cyclotomic.root(x.order, a):
            return {"exp": a}
    return {"coeffs": [_fraction_to_json(c) for c in x.coeffs]}


def _rational_from_json(data) -> Fraction:
    if isinstance(data, float):
        raise ValueError("coefficients must be exact: use \"p/q\" strings, not floats")
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValueError(f"cannot read a rational from {data!r}")
    return Fraction(data)


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
