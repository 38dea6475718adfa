import math
import random
from itertools import combinations

import pytest

from qautk.exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    LatticeBasis,
    MatrixFormatError,
    cokernel,
    fg_direct_sum,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
)
from qautk.dims import DimVector
from qautk.ktheory import boundary_matrix


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix(r, c, tuple(rng.randint(lo, hi) for _ in range(r * c)))


def minor_gcds(a: IntMatrix) -> list[int]:
    """gcd of all k x k minors for k = 1..min(rows, cols), with early exits."""
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows([[a.at(i, j) for j in cols] for i in rows])
                g = math.gcd(g, sub.determinant())
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
        if g == 0:
            break
    return out


def assert_valid_decomposition(a: IntMatrix):
    dec = smith_normal_form(a)
    assert (dec.U @ a @ dec.V).entries == dec.S.entries
    assert abs(dec.U.determinant()) == 1
    assert abs(dec.V.determinant()) == 1
    factors = dec.invariant_factors
    assert len(factors) == min(a.rows, a.cols)
    nonzero = [d for d in factors if d]
    assert all(d > 0 for d in nonzero)
    assert list(factors[: len(nonzero)]) == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # off-diagonal of S vanishes
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert dec.S.at(i, j) == 0
    return dec


def test_identity_smith():
    dec = smith_normal_form(IntMatrix.identity(2))
    assert dec.invariant_factors == (1, 1)
    assert dec.S.entries == IntMatrix.identity(2).entries


def test_small_example_gcd_oracle():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 8
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = assert_valid_decomposition(a)
    assert dec.invariant_factors == (2, 4)
    assert minor_gcds(a) == [2, 8]


def test_boundary_matrix_smith_for_unit_blocks():
    a = boundary_matrix(DimVector.of(1, 1, 1, 1))
    assert (a.rows, a.cols) == (17, 8)
    dec = assert_valid_decomposition(a)
    assert dec.invariant_factors == (1,) * 7 + (0,)
    assert len(kernel_basis(a)) == 1
    coker = cokernel(a)
    assert coker == FgAbelianGroup(10, ())


def test_kernel_zero_matrix():
    basis = kernel_basis(IntMatrix.zero(2, 2))
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_kernel_boundary_two_four():
    a = boundary_matrix(DimVector.of(2, 4))
    assert kernel_basis(a) == [(1, 2, 1, 2)]


def test_kernel_rank_one_all_ones():
    # exhaustive oracle: primitive kernel vectors of [[1,1],[1,1]] in a small
    # box are exactly +-(1, -1)
    a = IntMatrix.from_rows([[1, 1], [1, 1]])
    box = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
        if all(v == 0 for v in a.apply((x, y)))
    ]
    assert set(box) == {(1, -1), (-1, 1)}
    assert kernel_basis(a) == [(1, -1)]


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[2]])) == FgAbelianGroup(0, (2,))
    assert cokernel(boundary_matrix(DimVector.of(2, 2))) == FgAbelianGroup(2, (2, 2, 2))
    # SNF oracle: diag(2, 3) ~ diag(1, 6)
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])) == FgAbelianGroup(0, (6,))


def test_empty_and_zero_matrices():
    assert cokernel(IntMatrix.zero(3, 2)) == FgAbelianGroup(3, ())
    assert cokernel(IntMatrix(0, 2, ())) == FgAbelianGroup(0, ())
    assert cokernel(IntMatrix(3, 0, ())) == FgAbelianGroup(3, ())
    dec = smith_normal_form(IntMatrix(0, 0, ()))
    assert dec.invariant_factors == ()


def test_fg_group_arithmetic():
    z2_plus_z3 = FgAbelianGroup.from_parts(0, (2, 3))
    assert z2_plus_z3 == FgAbelianGroup(0, (6,))
    g = FgAbelianGroup(2, (2, 4))
    assert fg_direct_sum(g, FgAbelianGroup.trivial()) == g
    assert FgAbelianGroup(2, (2, 2, 2)) != FgAbelianGroup(2, (2, 2))
    assert fg_direct_sum(FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (3,))) == FgAbelianGroup(0, (6,))
    # CRT merge with shared primes
    assert fg_direct_sum(FgAbelianGroup(1, (4,)), FgAbelianGroup(0, (6,))) == FgAbelianGroup(1, (2, 12))


def test_fg_group_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 6))  # not a chain
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(-1, ())


def test_describe():
    assert FgAbelianGroup(2, (2, 2, 2)).describe() == "Z^2 + Z_2^3"
    assert FgAbelianGroup(1, ()).describe() == "Z"
    assert FgAbelianGroup(0, ()).describe() == "0"
    assert FgAbelianGroup(0, (2, 6)).describe() == "Z_2 + Z_6"


def test_random_smith_properties_and_minor_oracle():
    rng = random.Random(123)
    for _ in range(120):
        a = random_matrix(rng)
        dec = assert_valid_decomposition(a)
        gcds = minor_gcds(a)
        prev = 1
        for k, g in enumerate(gcds):
            if g == 0:
                assert all(d == 0 for d in dec.invariant_factors[k:])
                break
            assert dec.invariant_factors[k] == g // prev
            prev = g


def test_random_kernels():
    rng = random.Random(5)
    for _ in range(150):
        a = random_matrix(rng)
        basis = kernel_basis(a)
        r = sum(1 for d in invariant_factors(a) if d)
        assert len(basis) == a.cols - r
        for vec in basis:
            assert all(x == 0 for x in a.apply(vec))
            leading = next((x for x in vec if x), None)
            assert leading is None or leading > 0


def random_unimodular(rng, n, steps=12):
    m = IntMatrix.identity(n).to_lists()
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for t in range(n):
            m[i][t] += c * m[j][t]
    return IntMatrix.from_rows(m)


def test_cokernel_invariant_under_unimodular_action():
    rng = random.Random(11)
    for _ in range(60):
        a = random_matrix(rng, max_dim=5)
        if a.rows == 0 or a.cols == 0:
            continue
        u = random_unimodular(rng, a.rows)
        v = random_unimodular(rng, a.cols)
        assert cokernel(u @ a @ v) == cokernel(a)


def test_hermite_normal_form():
    rng = random.Random(77)
    for _ in range(80):
        a = random_matrix(rng, max_dim=5)
        dec = hermite_normal_form(a)
        # echelon with positive pivots, reduced above
        prev = -1
        for r, c in enumerate(dec.pivot_cols):
            assert c > prev
            prev = c
            piv = dec.H.at(r, c)
            assert piv > 0
            for i in range(r):
                assert 0 <= dec.H.at(i, c) < piv
        for i in range(len(dec.pivot_cols), a.rows):
            assert all(x == 0 for x in dec.H.row(i))
        # every row of A reduces to zero against the pivot rows of H, so the
        # rows of H span a lattice containing the rows of A ...
        for i in range(a.rows):
            w = list(a.row(i))
            for r, c in enumerate(dec.pivot_cols):
                q, rem = divmod(w[c], dec.H.at(r, c))
                assert rem == 0
                w = [x - q * h for x, h in zip(w, dec.H.row(r))]
            assert not any(w)
        # ... and the gcds of their r x r minors agree, so the index of the
        # row lattice of A in that of H is 1
        rank = len(dec.pivot_cols)
        if rank:
            h = IntMatrix.from_rows([list(dec.H.row(r)) for r in range(rank)])
            assert minor_gcds(a)[rank - 1] == minor_gcds(h)[rank - 1]


def dense_hnf(a: IntMatrix):
    """Reference row Hermite normal form on dense rows: Euclid down each
    column with the first row of least absolute value as pivot, then the
    entries above the pivot reduced into [0, pivot)."""
    m, rows, cols = a.to_lists(), a.rows, a.cols
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        while True:
            nonzero = [i for i in range(r, rows) if m[i][c]]
            if not nonzero:
                break
            pi = min(nonzero, key=lambda i: abs(m[i][c]))
            m[r], m[pi] = m[pi], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            piv = m[r][c]
            for i in range(r + 1, rows):
                q = m[i][c] // piv
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            if not any(m[i][c] for i in range(r + 1, rows)):
                break
        if not any(m[i][c] for i in range(r, rows)):
            continue
        for i in range(r):
            q = m[i][c] // m[r][c]
            m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def dense_contains(h, pivots, vector):
    """Reference membership test: reduce by each Hermite row in turn."""
    w = list(vector)
    for row, c in zip(h, pivots):
        q, rem = divmod(w[c], row[c])
        if rem:
            return False
        w = [x - q * y for x, y in zip(w, row)]
    return not any(w)


def test_hermite_normal_form_matches_dense_reference():
    rng = random.Random(2024)
    for trial in range(120):
        if trial % 2:
            a = random_matrix(rng, max_dim=7)
        else:
            # larger and mostly zero, like the truncated resolution maps
            rows, cols = rng.randint(1, 24), rng.randint(1, 24)
            a = IntMatrix(rows, cols, tuple(
                rng.randint(-30, 30) if rng.random() < 0.15 else 0 for _ in range(rows * cols)
            ))
        m, pivots = dense_hnf(a)
        dec = hermite_normal_form(a)
        assert dec.H.to_lists() == m
        assert dec.pivot_cols == tuple(pivots)
        lat = LatticeBasis(a)
        assert lat.pivot_cols == dec.pivot_cols
        assert [[row.get(j, 0) for j in range(a.cols)] for row in lat.basis] == m[: len(pivots)]
        assert all(x for row in lat.basis for x in row.values())  # stored sparse
        assert LatticeBasis.from_rows(a.to_lists(), a.cols).basis == lat.basis
        # membership: integer combinations of the rows, some perturbed in one entry
        for _ in range(10):
            v = [sum(rng.randint(-2, 2) * x for x in col) for col in zip(*a.to_lists())] or [0] * a.cols
            if a.cols and rng.random() < 0.5:
                v[rng.randrange(a.cols)] += rng.randint(1, 3)
            assert lat.contains(v) == dense_contains(m, pivots, v)


def test_transpose_matches_entrywise_definition():
    rng = random.Random(5)
    for _ in range(30):
        a = random_matrix(rng, max_dim=7)
        t = a.transpose()
        assert (t.rows, t.cols) == (a.cols, a.rows)
        assert t.entries == tuple(a.at(i, j) for j in range(a.cols) for i in range(a.rows))
        assert t.transpose() == a


def test_lattice_membership():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    lat = LatticeBasis(a.transpose())
    assert lat.contains((2, 3))
    assert lat.contains((4, 0))
    assert not lat.contains((1, 0))
    assert not lat.contains((0, 1))
    # a leading entry in a column without a pivot
    line = LatticeBasis(IntMatrix.from_rows([[1, 1, 0], [2, 2, 0]]))
    assert line.pivot_cols == (0,)
    assert line.contains((3, 3, 0))
    assert not line.contains((0, 1, 0))
    assert not line.contains((1, 1, 1))
    # membership agrees with brute force on random small lattices
    rng = random.Random(3)
    for _ in range(40):
        gens = IntMatrix(3, 2, tuple(rng.randint(-4, 4) for _ in range(6)))
        lat = LatticeBasis(gens.transpose())
        for _ in range(10):
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            v = gens.apply((x, y))
            assert lat.contains(v)


def test_matrix_text_roundtrip():
    a = IntMatrix.from_rows([[1, -2, 3], [0, 5, -6]])
    assert IntMatrix.from_text(a.to_text()) == a
    with pytest.raises(MatrixFormatError):
        IntMatrix.from_text("2 2\n1 2 3")
    with pytest.raises(MatrixFormatError):
        IntMatrix.from_text("nope")
    with pytest.raises(MatrixFormatError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_huge_entries_are_exact():
    big = 10 ** 40
    a = IntMatrix.from_rows([[big, big + 1], [big - 1, big]])
    dec = assert_valid_decomposition(a)
    # det = big^2 - (big^2 - 1) = 1, so the matrix is unimodular
    assert dec.invariant_factors == (1, 1)
