import itertools
import math

import pytest

from qautk import magic
from qautk.exact_linalg import invariant_factors
from qautk.magic import (
    MagicMatrix,
    PermutationError,
    evaluation_matrix,
    generator_rank,
    generator_rank_report,
    permutation_to_magic,
)


def test_identity_and_swap():
    assert permutation_to_magic((0, 1, 2)).entries == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    assert permutation_to_magic((1, 0)).entries == ((0, 1), (1, 0))


def test_non_bijection_rejected():
    with pytest.raises(PermutationError):
        permutation_to_magic((0, 0, 2))
    with pytest.raises(PermutationError):
        permutation_to_magic((0, 3))


def test_magic_relations_exhaustive():
    # constructor enforces idempotence and unit row/column sums exactly
    for n in range(1, 7):
        for sigma in itertools.permutations(range(n)):
            m = permutation_to_magic(sigma)
            for i in range(n):
                assert sum(m.entries[i]) == 1
                assert sum(m.entries[j][i] for j in range(n)) == 1
                for j in range(n):
                    assert m.at(i, j) in (0, 1)


def test_magic_matrix_validation():
    with pytest.raises(ValueError):
        MagicMatrix(2, ((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        MagicMatrix(2, ((2, 0), (0, 1)))


def test_evaluation_matrix_shapes():
    m1 = evaluation_matrix(1)
    assert (m1.rows, m1.cols) == (1, 2)
    assert m1.to_lists() == [[1, 1]]
    m2 = evaluation_matrix(2)
    assert (m2.rows, m2.cols) == (2, 5)
    assert m2.to_lists() == [[1, 1, 0, 0, 1], [1, 0, 1, 1, 0]]
    m4 = evaluation_matrix(4)
    assert (m4.rows, m4.cols) == (24, 17)


def test_evaluation_matrix_cap():
    with pytest.raises(ValueError):
        evaluation_matrix(8)
    assert evaluation_matrix(4, max_n=None).rows == 24


def test_generator_ranks_small():
    assert generator_rank(1) == (1, 1)
    for n in range(2, 6):
        full, restricted = generator_rank(n)
        assert full == restricted == (n - 1) ** 2 + 1


def test_rank_certified_over_integers():
    for n in range(2, 6):
        report = generator_rank_report(n)
        assert report.full_saturated and report.restricted_saturated
        assert report.ranks_agree


def test_row_sum_relation():
    # for each fixed i the columns u_i1, ..., u_in sum to the all-ones column
    n = 4
    m = evaluation_matrix(n)
    for i in range(n):
        sums = [
            sum(m.at(r, 1 + i * n + j) for j in range(n)) for r in range(m.rows)
        ]
        assert sums == [1] * m.rows
    # equivalently: (1, -sum of row i's columns) is in the kernel of the
    # transpose pairing, exactly
    ones = [1] * m.rows
    col0 = [m.at(r, 0) for r in range(m.rows)]
    assert col0 == ones


def dense_evaluation_matrix(n):
    """Rows of the evaluation matrix built densely: the oracle for the
    sparse builder."""
    rows = []
    for sigma in itertools.permutations(range(n)):
        rows.append([1] + [1 if sigma[i] == j else 0 for i in range(n) for j in range(n)])
    return rows


def restricted_slices(n):
    """Column runs for {1} and u_ij with i, j <= n - 2 (0-based i, j < n - 1)."""
    return [slice(0, 1)] + [slice(1 + i * n, i * n + n) for i in range(n - 1)]


def test_sparse_evaluation_and_restriction_match_dense_oracle(monkeypatch):
    seen = []

    def spy(a):
        seen.append(a)
        return invariant_factors(a)

    monkeypatch.setattr(magic, "invariant_factors", spy)
    for n in range(1, 7):
        rows = dense_evaluation_matrix(n)
        assert evaluation_matrix(n).to_lists() == rows
        generator_rank_report(n)
        full, restricted = seen[-2:]
        assert full.to_lists() == rows
        assert restricted.to_lists() == [[x for run in restricted_slices(n) for x in row[run]] for row in rows]
        assert (restricted.rows, restricted.cols) == (math.factorial(n), 1 + (n - 1) ** 2)
