import inspect
import itertools

import pytest

from qautk import magic
from qautk.cli import main
from qautk.exact_linalg import CertificateError, IntMatrix, invariant_factors
from qautk.magic import generator_rank, generator_rank_report

from magic_oracle import (
    MagicMatrix,
    PermutationError,
    evaluation_matrix,
    factorial_rank_report,
    permutation_to_magic,
    restricted,
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


def test_evaluation_matrix_cap(capsys):
    # the report no longer builds the n! rows, so it takes no cap and
    # answers n = 8 and beyond; the CLI keeps --max-n, default 7
    assert list(inspect.signature(generator_rank_report).parameters) == ["n"]
    assert generator_rank(8) == (50, 50)
    assert main(["magic-rank", "--n", "8", "--json"]) == 2
    assert "--max-n 7" in capsys.readouterr().err


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
    # the oracle's sparse builders against dense rows, and the one matrix the
    # report factors: distinct rows of the restricted n! matrix, square
    seen = []

    def spy(a):
        seen.append(a)
        return invariant_factors(a)

    monkeypatch.setattr(magic, "invariant_factors", spy)
    for n in range(1, 7):
        rows = dense_evaluation_matrix(n)
        assert evaluation_matrix(n).to_lists() == rows
        restricted_rows = [[x for run in restricted_slices(n) for x in row[run]] for row in rows]
        assert restricted(evaluation_matrix(n), n).to_lists() == restricted_rows
        generator_rank_report(n)
        (minor,) = seen
        seen.clear()
        r = 1 + (n - 1) ** 2
        assert (minor.rows, minor.cols) == (r, r)
        minor_rows = minor.to_lists()
        assert len(set(map(tuple, minor_rows))) == r
        assert all(row in restricted_rows for row in minor_rows)


def test_minor_report_matches_factorial_oracle():
    for n in range(1, 8):
        assert generator_rank_report(n) == factorial_rank_report(n), n
        assert factorial_rank_report(n).full_rank == (n - 1) ** 2 + 1


def test_report_factors_one_square_minor(monkeypatch):
    # a cost guard: one invariant_factors call on an r x r matrix,
    # r = (n - 1)^2 + 1, instead of two on n! rows
    shapes = []

    def spy(a):
        shapes.append((a.rows, a.cols))
        return invariant_factors(a)

    monkeypatch.setattr(magic, "invariant_factors", spy)
    for n in range(1, 21):
        report = generator_rank_report(n)
        r = (n - 1) ** 2 + 1
        assert shapes == [(r, r)], n
        shapes.clear()
        assert report.full_rank == report.restricted_rank == report.expected_rank == r
        assert report.full_saturated and report.restricted_saturated


def test_non_unimodular_minor_is_refused(monkeypatch):
    minor = magic._minor

    def doubled(n):  # determinant ±2
        rows = minor(n).to_lists()
        return IntMatrix.from_rows([[2 * x for x in rows[0]]] + rows[1:])

    monkeypatch.setattr(magic, "_minor", doubled)
    with pytest.raises(CertificateError, match="not unimodular: invariant factors .*2\\]"):
        generator_rank_report(4)
