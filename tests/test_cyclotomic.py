import cmath
import json
import math
import random
from fractions import Fraction

import pytest

from qautk.cyclotomic import (
    Cyclotomic,
    cyclotomic_from_json,
    cyclotomic_polynomial,
    cyclotomic_to_json,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 16])
def test_root_arithmetic(m):
    one = Cyclotomic.one(m)
    for a in range(m):
        za = Cyclotomic.root(m, a)
        assert (za * za.conjugate()).as_rational() == 1
        assert za * Cyclotomic.root(m, (m - a) % m) == one
        assert za.inverse() == Cyclotomic.root(m, (m - a) % m)
        assert abs(complex(za) - cmath.exp(2j * cmath.pi * a / m)) < 1e-12
    for a in range(m):
        for b in range(m):
            assert Cyclotomic.root(m, a) * Cyclotomic.root(m, b) == Cyclotomic.root(m, (a + b) % m)


@pytest.mark.parametrize("m", range(1, 25))
def test_root_exponent_against_linear_search(m):
    def search(x):
        return next((a for a in range(m) if x == Cyclotomic.root(m, a)), None)

    one = Cyclotomic.one(m)
    for k in range(m):
        zk = Cyclotomic.root(m, k)
        assert zk.root_exponent() == search(zk) == k
        # den > 1, den 1 off the unit circle, and sums of several terms
        for x in (zk.scale(Fraction(1, 2)), zk.scale(2), zk + one, zk - Cyclotomic.root(m, 1)):
            assert x.root_exponent() == search(x)


def test_root_sums_vanish():
    for m in (2, 3, 4, 6, 8, 12):
        total = Cyclotomic.zero(m)
        for a in range(m):
            total = total + Cyclotomic.root(m, a)
        assert total.is_zero()


def test_minus_one_identification():
    assert (Cyclotomic.one(2) + Cyclotomic.root(2, 1)).is_zero()
    assert Cyclotomic.root(4, 2) == Cyclotomic.rational(4, -1)


def test_lift():
    assert Cyclotomic.root(4, 1).lift(8) == Cyclotomic.root(8, 2)
    assert Cyclotomic.rational(2, Fraction(3, 5)).lift(8).as_rational() == Fraction(3, 5)
    with pytest.raises(ValueError):
        Cyclotomic.root(3, 1).lift(8)


def test_general_inverse():
    x = Cyclotomic.from_coeffs(12, [Fraction(3, 2), Fraction(1), Fraction(0), Fraction(2)])
    assert (x * x.inverse()).as_rational() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inverse()


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.one(3) + Cyclotomic.one(4)


def test_json_roundtrip():
    for x in (
        Cyclotomic.rational(8, Fraction(2, 3)),
        Cyclotomic.root(8, 3),
        Cyclotomic.from_coeffs(8, [1, 2, 0, Fraction(1, 2)]),
    ):
        data = cyclotomic_to_json(x)
        assert cyclotomic_from_json(8, data) == x
    with pytest.raises(ValueError):
        cyclotomic_from_json(8, 0.5)


# -- Fraction reference: polynomials in x modulo Phi_m, low degree first ------

def _ref_reduce(m, poly):
    """Remainder of a rational polynomial modulo Phi_m, as phi(m) Fractions."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    r = [Fraction(c) for c in poly] + [Fraction(0)] * deg
    for k in range(len(r) - 1, deg - 1, -1):
        c = r[k]
        if c:
            for i, p in enumerate(phi):
                r[k - deg + i] -= c * p
    return r[:deg]


def _ref_mul(m, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(m, conv)


def _ref(x: Cyclotomic):
    return [Fraction(c, x.den) for c in x.coeffs]


def _random_poly(rng, m):
    return [
        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
        for _ in range(rng.randint(1, 2 * m))
    ]


@pytest.mark.parametrize("m", range(1, 25))
def test_field_against_fraction_reference(m):
    rng = random.Random(m)
    one = [Fraction(1)] + [Fraction(0)] * (len(cyclotomic_polynomial(m)) - 2)
    for _ in range(6):
        p, q = _random_poly(rng, m), _random_poly(rng, m)
        x, y = Cyclotomic.from_coeffs(m, p), Cyclotomic.from_coeffs(m, q)
        rx, ry = _ref_reduce(m, p), _ref_reduce(m, q)
        assert _ref(x) == rx
        assert x.den > 0 and math.gcd(x.den, *x.coeffs) == 1
        assert _ref(x + y) == [a + b for a, b in zip(rx, ry)]
        assert _ref(x - y) == [a - b for a, b in zip(rx, ry)]
        assert _ref(x * y) == _ref_mul(m, rx, ry)
        # zeta^-j = zeta^(m-j)
        conj = [Fraction(0)] * m
        for j, c in enumerate(rx):
            conj[(m - j) % m] += c
        assert _ref(x.conjugate()) == _ref_reduce(m, conj)
        # zeta_m = zeta_km^k
        for k in (2, 3):
            spread = [Fraction(0)] * (k * len(rx))
            spread[::k] = rx
            assert _ref(x.lift(k * m)) == _ref_reduce(k * m, spread)
        assert cyclotomic_from_json(m, json.loads(json.dumps(cyclotomic_to_json(x)))) == x
        if any(rx):
            assert _ref_mul(m, rx, _ref(x.inverse())) == one
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(m).inverse()


def test_canonical_form():
    x = Cyclotomic.from_coeffs(6, [1, 2])
    same = [
        Cyclotomic.from_coeffs(6, [2, 4]).scale(Fraction(1, 2)),
        Cyclotomic.from_coeffs(6, [Fraction(3, 3), Fraction(4, 2)]),
        Cyclotomic.from_coeffs(6, [0, 2, 0, 0, 0, 0, 1]),  # zeta^6 = 1
        Cyclotomic.one(6) + Cyclotomic.root(6, 1) * Cyclotomic.rational(6, 2),
        Cyclotomic(6, (-2, -4), -2),
        (x * Cyclotomic.rational(6, Fraction(2, 3))) / Cyclotomic.rational(6, Fraction(2, 3)),
    ]
    for y in same:
        assert y == x and hash(y) == hash(x)
        assert (y.coeffs, y.den) == ((1, 2), 1)
    z = Cyclotomic.from_coeffs(12, [Fraction(1, 2), 3, 0, Fraction(-5, 3)])
    assert z - z == Cyclotomic.zero(12) and hash(z - z) == hash(Cyclotomic.zero(12))
    assert (z - z).den == 1
    assert Cyclotomic.rational(4, Fraction(-6, 4)) == Cyclotomic(4, (3, 0), -2)


def test_cyclotomic_polynomial_identities():
    for m in range(1, 61):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                conv = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        conv[i + j] += a * b
                prod = conv
        assert prod == [-1] + [0] * (m - 1) + [1]
        totient = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert len(cyclotomic_polynomial(m)) - 1 == totient
