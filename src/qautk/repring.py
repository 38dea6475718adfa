"""Fusion combinatorics of half-integer spins and the polynomial picture.

Irreducible classes are indexed by spins in (1/2)N_0 and fuse along the
Clebsch-Gordan ladder V(m) (x) V(n) = V(|m-n|) + ... + V(m+n).  The integral
spins span a polynomial ring Z[t] with t the class V(0) + V(1); the
half-integral spins form the module t^(1/2) Z[t] over it.  Conversions between
the two bases go through the recursion [V(n+1/2)] = s [V(n)] - [V(n-1/2)]
with s = [V(1/2)] and s^2 = t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

INTEGRAL = "integral"
HALF_INTEGRAL = "half-integral"


class ParityMismatchError(ValueError):
    """Sum or comparison of elements with different parity."""


class NonEffectiveError(ValueError):
    """A polynomial whose irreducible decomposition has negative multiplicity."""


@dataclass(frozen=True)
class Spin:
    """A spin n in (1/2)N_0, stored as the integer 2n."""

    twice_spin: int

    def __post_init__(self):
        if not isinstance(self.twice_spin, int) or self.twice_spin < 0:
            raise ValueError(f"twice_spin must be a nonnegative integer, got {self.twice_spin!r}")

    @property
    def is_integral(self) -> bool:
        return self.twice_spin % 2 == 0

    @property
    def dim(self) -> int:
        """Classical dimension 2n + 1."""
        return self.twice_spin + 1

    def __str__(self) -> str:
        if self.is_integral:
            return str(self.twice_spin // 2)
        return f"{self.twice_spin}/2"


def _merge(items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for k, c in items:
        if c:
            acc[k] = acc.get(k, 0) + c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


@dataclass(frozen=True)
class IrrepSum:
    """Formal nonnegative combination of irreducible spin classes.

    Stored as sorted (twice_spin, multiplicity) pairs with multiplicities > 0.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = -1
        for m, c in self.terms:
            if m <= prev:
                raise ValueError("terms must be sorted by twice_spin without repeats")
            if m < 0 or c <= 0:
                raise NonEffectiveError(f"multiplicity of V({Spin(max(m, 0))}) is {c}")
            prev = m

    @classmethod
    def zero(cls) -> "IrrepSum":
        return cls(())

    @classmethod
    def of(cls, *spins: Spin) -> "IrrepSum":
        return cls(_merge((s.twice_spin, 1) for s in spins))

    @classmethod
    def from_dict(cls, mults: Mapping[int, int]) -> "IrrepSum":
        return cls(_merge(mults.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def multiplicity(self, s: Spin) -> int:
        return dict(self.terms).get(s.twice_spin, 0)

    @property
    def dim(self) -> int:
        return sum(c * (m + 1) for m, c in self.terms)

    def parity(self) -> str | None:
        """Common parity of the support, or None when empty."""
        if not self.terms:
            return None
        parities = {m % 2 for m, _ in self.terms}
        if len(parities) > 1:
            raise ParityMismatchError("mixed integral and half-integral spins")
        return INTEGRAL if parities == {0} else HALF_INTEGRAL

    def add(self, other: "IrrepSum") -> "IrrepSum":
        return IrrepSum(_merge(self.terms + other.terms))

    def scale(self, c: int) -> "IrrepSum":
        if c < 0:
            raise NonEffectiveError("negative scalar")
        if c == 0:
            return IrrepSum.zero()
        return IrrepSum(tuple((m, c * k) for m, k in self.terms))

    def tensor(self, other: "IrrepSum") -> "IrrepSum":
        """Bilinear extension of the fusion product."""
        acc: dict[int, int] = {}
        for m, cm in self.terms:
            for n, cn in other.terms:
                c = cm * cn
                for k in range(abs(m - n), m + n + 1, 2):
                    acc[k] = acc.get(k, 0) + c
        return IrrepSum.from_dict(acc)


def fusion_tensor(m: Spin, n: Spin) -> IrrepSum:
    """V(m) (x) V(n) along the Clebsch-Gordan ladder, all multiplicities one."""
    lo, hi = abs(m.twice_spin - n.twice_spin), m.twice_spin + n.twice_spin
    return IrrepSum(tuple((k, 1) for k in range(lo, hi + 1, 2)))


@dataclass(frozen=True)
class RepRingElement:
    """Element of Z[t] (integral) or of the module t^(1/2) Z[t] (half-integral).

    ``coefficients`` are sorted (degree, coefficient) pairs; a half-integral
    element with coefficient c at degree k stands for c * t^(1/2) * t^k.
    """

    parity: str
    coefficients: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.parity not in (INTEGRAL, HALF_INTEGRAL):
            raise ValueError(f"unknown parity {self.parity!r}")
        prev = -1
        for k, c in self.coefficients:
            if k <= prev or k < 0:
                raise ValueError("coefficients must be sorted by degree without repeats")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")
            prev = k

    @classmethod
    def from_dict(cls, parity: str, coeffs: Mapping[int, int]) -> "RepRingElement":
        return cls(parity, _merge(coeffs.items()))

    @classmethod
    def zero(cls, parity: str = INTEGRAL) -> "RepRingElement":
        return cls(parity, ())

    @classmethod
    def one(cls) -> "RepRingElement":
        return cls(INTEGRAL, ((0, 1),))

    @classmethod
    def t_power(cls, k: int, parity: str = INTEGRAL) -> "RepRingElement":
        """t^k, or t^(1/2) t^k when half-integral."""
        return cls(parity, ((k, 1),))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coefficients)

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree in t; -1 for zero."""
        return self.coefficients[-1][0] if self.coefficients else -1

    def add(self, other: "RepRingElement") -> "RepRingElement":
        if not other.coefficients:
            return self
        if not self.coefficients:
            return other
        if self.parity != other.parity:
            raise ParityMismatchError("cannot add elements of different parity")
        return RepRingElement(self.parity, _merge(self.coefficients + other.coefficients))

    def multiply(self, other: "RepRingElement") -> "RepRingElement":
        """Product; two half-integral factors contract by t^(1/2) t^(1/2) = t."""
        acc: dict[int, int] = {}
        for k, a in self.coefficients:
            for l, b in other.coefficients:
                acc[k + l] = acc.get(k + l, 0) + a * b
        both_half = self.parity == HALF_INTEGRAL and other.parity == HALF_INTEGRAL
        if both_half:
            acc = {k + 1: c for k, c in acc.items()}
            parity = INTEGRAL
        elif HALF_INTEGRAL in (self.parity, other.parity):
            parity = HALF_INTEGRAL
        else:
            parity = INTEGRAL
        return RepRingElement.from_dict(parity, acc)


def module_action(p: RepRingElement, x: RepRingElement) -> RepRingElement:
    """Act by an integral element on either module component."""
    if p.parity != INTEGRAL:
        raise ParityMismatchError("module action requires an integral element")
    return p.multiply(x)


# ---------------------------------------------------------------------------
# Basis conversions via the spin-1/2 recursion
# ---------------------------------------------------------------------------

_CHAR_CACHE: list[dict[int, int]] = [{0: 1}, {1: 1}]  # [V(m)] as polynomial in s


def _char_in_s(twice_spin: int) -> dict[int, int]:
    """[V(m/2)] written in powers of s = [V(1/2)]."""
    while len(_CHAR_CACHE) <= twice_spin:
        prev, last = _CHAR_CACHE[-2], _CHAR_CACHE[-1]
        nxt: dict[int, int] = {}
        for j, c in last.items():
            nxt[j + 1] = nxt.get(j + 1, 0) + c
        for j, c in prev.items():
            nxt[j] = nxt.get(j, 0) - c
        _CHAR_CACHE.append({j: c for j, c in nxt.items() if c})
    return _CHAR_CACHE[twice_spin]


_S_POWER_CACHE: list[dict[int, int]] = [{0: 1}]  # s^j in the irrep basis


def _s_power_in_irreps(j: int) -> dict[int, int]:
    """s^j as a combination of irreducible classes (twice_spin -> coeff)."""
    while len(_S_POWER_CACHE) <= j:
        cur = _S_POWER_CACHE[-1]
        nxt: dict[int, int] = {}
        for m, c in cur.items():
            nxt[m + 1] = nxt.get(m + 1, 0) + c
            if m >= 1:
                nxt[m - 1] = nxt.get(m - 1, 0) + c
        _S_POWER_CACHE.append({m: c for m, c in nxt.items() if c})
    return _S_POWER_CACHE[j]


def irreps_to_polynomial(x: IrrepSum) -> RepRingElement:
    """Expand a pure-parity sum of irreducibles in the polynomial basis."""
    parity = x.parity()
    if parity is None:
        return RepRingElement.zero()
    s_poly: dict[int, int] = {}
    for m, mult in x.terms:
        for j, c in _char_in_s(m).items():
            s_poly[j] = s_poly.get(j, 0) + mult * c
    coeffs: dict[int, int] = {}
    for j, c in s_poly.items():
        if not c:
            continue
        if parity == INTEGRAL:
            assert j % 2 == 0
            coeffs[j // 2] = c
        else:
            assert j % 2 == 1
            coeffs[(j - 1) // 2] = c
    return RepRingElement.from_dict(parity, coeffs)


def polynomial_to_irreps(p: RepRingElement) -> IrrepSum:
    """Decompose a polynomial into irreducibles.

    Raises NonEffectiveError when the decomposition has a negative
    multiplicity, i.e. the element is not a class of an actual object.
    """
    acc: dict[int, int] = {}
    for k, c in p.coefficients:
        j = 2 * k if p.parity == INTEGRAL else 2 * k + 1
        for m, w in _s_power_in_irreps(j).items():
            acc[m] = acc.get(m, 0) + c * w
    bad = {m: c for m, c in acc.items() if c < 0}
    if bad:
        worst = min(bad)
        raise NonEffectiveError(
            f"multiplicity of V({Spin(worst)}) is {bad[worst]}: element is not effective"
        )
    return IrrepSum.from_dict(acc)
