import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from qautk import exact_linalg
from qautk.exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    LatticeBasis,
    MatrixFormatError,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    _row_reduce,
)
from qautk.cyclotomic import Cyclotomic, cyclotomic_polynomial
from qautk.dims import DimVector
from qautk.findim import QC_ZERO, qc
from qautk.ktheory import boundary_matrix

from ktheory_oracle import cokernel


def fg_direct_sum(G: FgAbelianGroup, H: FgAbelianGroup) -> FgAbelianGroup:
    """G (+) H, canonicalized by ``from_parts``."""
    return FgAbelianGroup.from_parts(G.free_rank + H.free_rank, G.torsion + H.torsion)


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix(r, c, tuple(rng.randint(lo, hi) for _ in range(r * c)))


def bareiss_determinant(a: IntMatrix) -> int:
    """Reference determinant by fraction-free (Bareiss) elimination."""
    n = a.rows
    assert a.cols == n
    if n == 0:
        return 1
    m = a.to_lists()
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcds(a: IntMatrix) -> list[int]:
    """gcd of all k x k minors for k = 1..min(rows, cols), with early exits."""
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows([[a.at(i, j) for j in cols] for i in rows])
                g = math.gcd(g, bareiss_determinant(sub))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
        if g == 0:
            break
    return out


def min_pivot_smith(a: IntMatrix):
    """Reference Smith normal form with transforms on dense rows: min-pivot
    elimination, whose entries can explode, so only for small inputs.

    Pivots are chosen with minimal absolute value in the working submatrix.
    Each accepted pivot is made to divide every entry of the remaining
    submatrix, so the diagonal is already a divisibility chain when the loop
    ends.  Returns (S, U, V, factors) as lists with U A V = S.
    """
    rows, cols = a.rows, a.cols
    m = a.to_lists()
    u = IntMatrix.identity(rows).to_lists()
    v = IntMatrix.identity(cols).to_lists()

    def swap_cols(x, j, k):
        for row in x:
            row[j], row[k] = row[k], row[j]

    limit = min(rows, cols)
    for t in range(limit):
        nonzero = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
        if not nonzero:
            break  # working submatrix is zero
        _, pi, pj = min(nonzero)
        m[t], m[pi] = m[pi], m[t]
        u[t], u[pi] = u[pi], u[t]
        swap_cols(m, t, pj)
        swap_cols(v, t, pj)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        while True:
            piv = m[t][t]
            # clear column t with row operations; a remainder becomes the pivot
            i = next((i for i in range(rows) if i != t and m[i][t]), None)
            if i is not None:
                q = m[i][t] // piv
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]
                    u[t], u[i] = u[i], u[t]
                continue
            # column t is clear, so a column operation only touches row t
            j = next((j for j in range(t + 1, cols) if m[t][j]), None)
            if j is not None:
                q = m[t][j] // piv
                m[t][j] -= q * piv
                for row in v:
                    row[j] -= q * row[t]
                if m[t][j]:
                    swap_cols(m, t, j)
                    swap_cols(v, t, j)
                continue
            # make the pivot divide the remaining submatrix
            i = next((i for i in range(t + 1, rows) if any(x % piv for x in m[i][t + 1:])), None)
            if i is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
    return m, u, v, tuple(m[i][i] for i in range(limit))


def test_min_pivot_oracle_is_a_smith_form():
    rng = random.Random(8)
    for _ in range(60):
        a = random_matrix(rng)
        s, u, v, factors = min_pivot_smith(a)
        u, v = IntMatrix.from_rows(u), IntMatrix.from_rows(v)
        assert (u @ a @ v).to_lists() == s
        assert abs(bareiss_determinant(u)) == abs(bareiss_determinant(v)) == 1
        assert all(s[i][j] == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
        gcds, prev = minor_gcds(a), 1
        for k, g in enumerate(gcds):
            assert factors[k] == (g // prev if g else 0)
            if not g:
                break
            prev = g


def assert_valid_decomposition(a: IntMatrix):
    dec = smith_normal_form(a)
    assert (dec.U @ a @ dec.V).entries == dec.S.entries
    assert abs(bareiss_determinant(dec.U)) == 1
    assert abs(bareiss_determinant(dec.V)) == 1
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


def factoring_chain(orders):
    """Reference torsion canonicalization by primary decomposition: factor
    each order by trial division, then, prime by prime, give the largest
    powers to the largest invariant factors."""
    primary: dict[int, list[int]] = {}
    for v in orders:
        exponents: dict[int, int] = {}
        d = 2
        while d * d <= v:
            while v % d == 0:
                exponents[d] = exponents.get(d, 0) + 1
                v //= d
            d += 1
        if v > 1:
            exponents[v] = exponents.get(v, 0) + 1
        for p, e in exponents.items():
            primary.setdefault(p, []).append(e)
    depth = max((len(es) for es in primary.values()), default=0)
    chain = [1] * depth
    for p, es in primary.items():
        for offset, e in enumerate(sorted(es)):
            chain[depth - len(es) + offset] *= p ** e
    return tuple(chain)


def test_torsion_chain_matches_factoring_oracle():
    rng = random.Random(61)
    for _ in range(300):
        orders = [rng.randint(1, 200) for _ in range(rng.randint(0, 6))]
        expected = factoring_chain(orders)
        assert FgAbelianGroup.from_parts(0, orders).torsion == expected, orders
        half = len(orders) // 2
        left, right = FgAbelianGroup.from_parts(1, orders[:half]), FgAbelianGroup.from_parts(2, orders[half:])
        assert fg_direct_sum(left, right) == FgAbelianGroup(3, expected), orders


def test_torsion_chain_of_large_primes_needs_no_factoring():
    # trial division took time linear in p: 6.8 s for p = 10^8 + 7
    p = 2 ** 61 - 1
    start = time.process_time()
    assert FgAbelianGroup.from_parts(0, [p * p]).torsion == (p * p,)
    assert FgAbelianGroup.from_parts(0, [3 * p]).torsion == (3 * p,)
    assert FgAbelianGroup.from_parts(0, [3 * p, p * p, 3]).torsion == (3 * p, 3 * p * p)
    assert fg_direct_sum(FgAbelianGroup(0, (p,)), FgAbelianGroup(0, (p * p,))).torsion == (p, p * p)
    assert time.process_time() - start < 0.1


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


def oracle_inputs(rng):
    """Tall, wide and rank-deficient matrices up to 8 x 8, all-zero and
    empty matrices, and boundary matrices with n <= 6 and k <= 50."""
    out = [IntMatrix.zero(r, c) for r, c in ((1, 1), (3, 5), (6, 2), (8, 8))]
    out += [IntMatrix(0, c, ()) for c in (0, 3)] + [IntMatrix(r, 0, ()) for r in (1, 4)]
    for _ in range(40):
        r = rng.randint(1, 8)
        c = rng.randint(1, r) if rng.random() < 0.5 else rng.randint(r, 8)
        out.append(IntMatrix(r, c, tuple(rng.randint(-30, 30) for _ in range(r * c))))
    for _ in range(40):
        # a product through k < min(r, c) columns has rank at most k
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        k = rng.randint(1, min(r, c) - 1)
        left = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(k)]
        out.append(IntMatrix.from_rows(left) @ IntMatrix.from_rows(right))
    for _ in range(30):
        n = rng.randint(1, 6)
        out.append(boundary_matrix(DimVector(tuple(rng.randint(1, 50) for _ in range(n)))))
    return out


def span_hermite(vectors, cols):
    """The Hermite rows of the lattice spanned by the vectors."""
    if not vectors:
        return ()
    dec = hermite_normal_form(IntMatrix.from_rows(vectors))
    return dec.H.entries[: dec.rank * cols]


def test_hermite_modular_routes_match_smith_oracle():
    assert invariant_factors(IntMatrix.zero(3, 5)) == (0, 0, 0)
    assert invariant_factors(IntMatrix(0, 4, ())) == ()
    assert kernel_basis(IntMatrix(2, 0, ())) == []
    rng = random.Random(10)
    for a in oracle_inputs(rng):
        _, _, v, factors = min_pivot_smith(a)
        assert invariant_factors(a) == factors, a
        assert assert_valid_decomposition(a).invariant_factors == factors, a
        rank = sum(1 for d in factors if d)
        torsion = tuple(d for d in factors if d > 1)
        assert cokernel(a) == FgAbelianGroup(a.rows - rank, torsion), a
        # the V columns beyond the rank span the kernel lattice
        oracle = [[v[i][j] for i in range(a.cols)] for j in range(rank, a.cols)]
        basis = kernel_basis(a)
        assert len(basis) == len(oracle)
        assert span_hermite(basis, a.cols) == span_hermite(oracle, a.cols), a


def test_every_normal_form_runs_through_the_hermite_engine(monkeypatch):
    passes = []
    engine = exact_linalg._hnf_engine

    def spy(rows):
        rows = list(rows)
        passes.append(len(rows))
        return engine(rows)

    def other_engine(*args):
        raise AssertionError("an integer normal form left the Hermite engine")

    monkeypatch.setattr(exact_linalg, "_hnf_engine", spy)
    monkeypatch.setattr(exact_linalg, "_row_reduce", other_engine)
    assert not hasattr(exact_linalg, "_smith_engine")
    a = boundary_matrix(DimVector.of(6, 10, 15))
    assert (a.rows, a.cols) == (10, 6)
    factors = invariant_factors(a)
    # the first pass is on the rows of A, then on transposes
    assert passes[0] == 10 and len(passes) >= 2
    passes.clear()
    basis = kernel_basis(a)
    assert passes == [6]  # one pass of [A^T | I]
    passes.clear()
    dec = smith_normal_form(a)
    # rows augmented with I keep every row: 10 on A's side, 6 on the other
    assert passes[:2] == [10, 6] and set(passes) == {10, 6}
    assert factors == dec.invariant_factors == (1, 1, 1, 1, 1, 0)
    assert basis == [(6, 10, 15, 6, 10, 15)]


def test_chain_fix_cases():
    cases = [
        (IntMatrix.from_rows([[2, 0], [0, 3]]), (1, 6)),
        (IntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]]), (2, 2, 60)),
        (IntMatrix.from_rows([[0, 0, 0, 0], [0, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 4]]), (2, 12, 0, 0)),
        (IntMatrix.from_rows([[0, 0, 0], [0, 9, 0], [0, 0, 0], [0, 0, 6], [0, 0, 0]]), (3, 18, 0)),
        (IntMatrix(0, 4, ()), ()),
        (IntMatrix(3, 0, ()), ()),
    ]
    for a, expected in cases:
        assert invariant_factors(a) == expected, a
        assert min_pivot_smith(a)[3] == expected, a
        dec = assert_valid_decomposition(a)
        assert dec.invariant_factors == expected, a
        assert (dec.U.rows, dec.V.rows) == (a.rows, a.cols)


def test_snf_entries_stay_small_on_random_30_by_30():
    # min-pivot Smith took over 100 s here, with V entries of thousands of bits
    rng = random.Random(30)
    a = IntMatrix(30, 30, tuple(rng.randint(-50, 50) for _ in range(900)))
    start = time.process_time()
    dec = smith_normal_form(a)
    assert time.process_time() - start < 1.0
    assert (dec.U @ a @ dec.V).entries == dec.S.entries
    for x in (dec.U, dec.V):
        assert hermite_normal_form(x).H == IntMatrix.identity(30)
        assert max(abs(e).bit_length() for e in x.entries) < 1000
    assert dec.invariant_factors == invariant_factors(a)


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


def test_hermite_pass_stays_small_on_large_blocks():
    # Euclid down whole columns grew these entries past 1,000 bits
    rng = random.Random(41)
    k = DimVector(tuple(rng.randint(1, 10_000) for _ in range(40)))
    a = boundary_matrix(k)
    start = time.process_time()
    factors = invariant_factors(a)
    basis = kernel_basis(a)
    assert time.process_time() - start < 1.0
    d = k.gcd
    assert factors == (d,) * 79 + (0,)
    assert basis == [tuple(x // d for x in k) * 2]


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix(a.cols, a.rows, tuple(a.at(i, j) for j in range(a.cols) for i in range(a.rows)))


def test_lattice_membership():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    lat = LatticeBasis(transpose(a))
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
        lat = LatticeBasis(transpose(gens))
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


# -- elimination over exact fields ---------------------------------------------


def gauss_jordan(rows):
    """Dense reduced row echelon form by Gauss-Jordan: the oracle for the
    sparse ``_row_reduce``.  Returns all rows (zero rows last) and the pivot
    column of each nonzero row."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _field_samplers():
    """(name, zero, random element) for each exact field the library uses."""

    def rational(rng):
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    out = [("Fraction", Fraction(0), rational)]
    out.append(("ComplexRational", QC_ZERO, lambda rng: qc(rational(rng), rational(rng))))
    for m in (3, 4, 5, 8, 12):
        deg = len(cyclotomic_polynomial(m)) - 1
        out.append((
            f"Cyclotomic({m})",
            Cyclotomic.zero(m),
            lambda rng, m=m, deg=deg: Cyclotomic.from_coeffs(m, [rational(rng) for _ in range(deg)]),
        ))
    return out


def _random_system(rng, zero, sample):
    """Dense rows with zero, duplicate and dependent rows mixed in."""
    ncols = rng.randint(1, 7)
    rows = [
        [sample(rng) if rng.random() < 0.5 else zero for _ in range(ncols)]
        for _ in range(rng.randint(0, 6))
    ]
    if rows:
        for _ in range(rng.randint(0, 3)):
            rows.append(list(rng.choice(rows)))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            fa, fb = sample(rng), sample(rng)
            rows.append([fa * x + fb * y for x, y in zip(a, b)])
    rows.extend([zero] * ncols for _ in range(rng.randint(0, 2)))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("field", _field_samplers(), ids=lambda f: f[0])
def test_sparse_row_reduce_matches_dense_gauss_jordan(field):
    # the reduced echelon form is unique, so both routes give the same rows
    _, zero, sample = field
    rng = random.Random(len(field[0]))
    for _ in range(40):
        dense = _random_system(rng, zero, sample)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
        copies = [dict(row) for row in sparse]
        reduced, pivots = _row_reduce(sparse)
        expected, expected_pivots = gauss_jordan(dense)
        assert pivots == expected_pivots
        assert reduced == [{j: x for j, x in enumerate(row) if x} for row in expected[: len(pivots)]]
        assert not any(any(row) for row in expected[len(pivots):])
        assert all(row[p] * row[p] == row[p] for row, p in zip(reduced, pivots))  # pivots are 1
        assert sparse == copies  # the input is not modified
        # explicit zero entries are allowed in the input
        assert _row_reduce(dict(enumerate(row)) for row in dense) == (reduced, pivots)


# -- sparse storage -----------------------------------------------------------

def both_builds(rng, rows, cols, lo=-9, hi=9, density=0.4):
    """The same random matrix built from dense entries and from sparse rows."""
    dense = [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        dense[rng.randrange(rows)] = [0] * cols  # a zero row
    sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
    return IntMatrix(rows, cols, tuple(x for row in dense for x in row)), IntMatrix.from_sparse(rows, cols, sparse)


def test_sparse_and_dense_builds_agree():
    rng = random.Random(15)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3)] + [
        (rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)
    ]
    for rows, cols in shapes:
        dense, sparse = both_builds(rng, rows, cols)
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.entries == sparse.entries
        assert len(sparse.entries) == rows * cols
        assert dense.to_lists() == sparse.to_lists()
        assert dense.to_text() == sparse.to_text()
        assert IntMatrix.from_text(sparse.to_text()) == sparse
        if rows:  # from_rows reads the width off the first row
            assert IntMatrix.from_rows(sparse.to_lists()) == sparse
        for i in range(rows):
            assert dense.row(i) == sparse.row(i) == sparse.entries[i * cols : (i + 1) * cols]
            for j in range(cols):
                assert dense.at(i, j) == sparse.at(i, j) == sparse.entries[i * cols + j]
        vector = [rng.randint(-5, 5) for _ in range(cols)]
        expect = tuple(sum(a * b for a, b in zip(row, vector)) for row in dense.to_lists())
        assert dense.apply(vector) == sparse.apply(vector) == expect
        other_dense, other_sparse = both_builds(rng, cols, rng.randint(0, 5))
        product = sparse @ other_sparse
        assert product == dense @ other_dense
        assert product.to_lists() == [
            [sum(a * other_dense.at(k, j) for k, a in enumerate(row)) for j in range(other_dense.cols)]
            for row in dense.to_lists()
        ]
    # equal matrices collide in a set whichever way they were built
    assert len({IntMatrix.identity(3), IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                IntMatrix.from_sparse(3, 3, [{0: 1}, {1: 1}, {2: 1}])}) == 1
    assert IntMatrix.zero(2, 3) != IntMatrix.zero(3, 2)
    assert IntMatrix.zero(0, 3) != IntMatrix.zero(0, 2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: IntMatrix(2, 2, (1, 2, 3, 1.5)), id="dense-float"),
    pytest.param(lambda: IntMatrix(1, 2, (0.0, 1)), id="dense-float-zero"),
    pytest.param(lambda: IntMatrix(1, 2, ("1", 1)), id="dense-str"),
    pytest.param(lambda: IntMatrix(2, 2, (1, 2, 3)), id="dense-length"),
    pytest.param(lambda: IntMatrix(-1, 2, ()), id="dense-negative-rows"),
    pytest.param(lambda: IntMatrix(2, -1, ()), id="dense-negative-cols"),
    pytest.param(lambda: IntMatrix.from_sparse(1, 2, [{0: 1.0}]), id="sparse-float"),
    pytest.param(lambda: IntMatrix.from_sparse(1, 2, [{0: 0}]), id="sparse-zero"),
    pytest.param(lambda: IntMatrix.from_sparse(1, 2, [{2: 1}]), id="sparse-column-high"),
    pytest.param(lambda: IntMatrix.from_sparse(1, 2, [{-1: 1}]), id="sparse-column-negative"),
    pytest.param(lambda: IntMatrix.from_sparse(1, 2, [{1.0: 1}]), id="sparse-column-float"),
    pytest.param(lambda: IntMatrix.from_sparse(2, 2, [{0: 1}]), id="sparse-row-count"),
    pytest.param(lambda: IntMatrix.from_sparse(-1, 2, []), id="sparse-negative-rows"),
    pytest.param(lambda: IntMatrix.from_text("-1 2\n"), id="text-negative"),
    pytest.param(lambda: IntMatrix.from_text("2 2\n1 2 3 x"), id="text-token"),
    pytest.param(lambda: IntMatrix.identity(-1), id="identity-negative"),
    pytest.param(lambda: IntMatrix.zero(2, -3), id="zero-negative"),
])
def test_constructors_refuse_malformed_input(build):
    with pytest.raises(MatrixFormatError):
        build()


def test_matrices_are_immutable():
    a = IntMatrix.from_sparse(2, 2, [{0: 1}, {}])
    with pytest.raises(AttributeError):
        a.rows = 3
    rows = [{0: 1}, {1: 2}]
    b = IntMatrix.from_sparse(2, 2, rows)
    rows[0][1] = 5  # the constructor copied the rows
    assert b.to_lists() == [[1, 0], [0, 2]]


def test_engines_never_mutate_a_matrix():
    rng = random.Random(16)
    for rows, cols in [(6, 4), (4, 6), (5, 5), (3, 0), (0, 3)] + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(12)]:
        dense, a = both_builds(rng, rows, cols, -20, 20, 0.6)
        runs = []
        for _ in range(2):
            lattice = LatticeBasis(a)
            dec = smith_normal_form(a)
            runs.append((
                hermite_normal_form(a), invariant_factors(a), kernel_basis(a), cokernel(a),
                (dec.S, dec.U, dec.V, dec.invariant_factors),
                (lattice.basis, lattice.pivot_cols),
            ))
            assert a == dense and a.entries == dense.entries
        assert runs[0] == runs[1]
