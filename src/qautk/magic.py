"""Magic unitaries over characters and the abelianization rank count.

Every character of the quantum permutation algebra factors through an honest
permutation, so the generating projections evaluate to 0/1 matrices.  The
evaluation matrix collects the values of the constant 1 and all u_ij over all
permutations; its rank over the integers counts the independent degree-zero
generators, and computing it through the Smith normal form also certifies
that the span is a direct summand (torsion-free quotient).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .exact_linalg import IntMatrix, _sparse_rows, invariant_factors

DEFAULT_MAX_N = 7


class PermutationError(ValueError):
    """Input is not a bijection on {0, ..., n-1}."""


@dataclass(frozen=True)
class MagicMatrix:
    """0/1 matrix whose rows and columns each sum to one.

    Entries are idempotent values of projections under a character, so a
    magic matrix over characters is exactly a permutation matrix.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("magic matrix must be square of size n")
        for row in self.entries:
            for x in row:
                if x * x != x:  # idempotent: 0 or 1
                    raise ValueError(f"entry {x} is not a projection value")
        for i in range(self.n):
            if sum(self.entries[i]) != 1:
                raise ValueError(f"row {i} does not sum to 1")
            if sum(self.entries[j][i] for j in range(self.n)) != 1:
                raise ValueError(f"column {i} does not sum to 1")

    def at(self, i: int, j: int) -> int:
        return self.entries[i][j]


def permutation_to_magic(sigma: Sequence[int]) -> MagicMatrix:
    """The magic matrix of a permutation: u_ij = 1 iff sigma(i) = j."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise PermutationError(f"{tuple(sigma)} is not a permutation of 0..{n - 1}")
    rows = tuple(
        tuple(1 if sigma[i] == j else 0 for j in range(n)) for i in range(n)
    )
    return MagicMatrix(n, rows)


def evaluation_matrix(n: int, max_n: int | None = DEFAULT_MAX_N) -> IntMatrix:
    """The n! x (n^2 + 1) matrix of values of 1 and u_ij over all permutations.

    Rows are indexed by permutations in lexicographic order; columns by the
    constant 1 followed by u_ij in (i, j) lexicographic order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_n is not None and n > max_n:
        raise ValueError(
            f"n = {n} exceeds the cap {max_n} ({n}! rows); pass max_n=None to override"
        )
    rows = [{0: 1, **{1 + i * n + j: 1 for i, j in enumerate(sigma)}} for sigma in itertools.permutations(range(n))]
    return IntMatrix.from_sparse(len(rows), n * n + 1, rows)


@dataclass(frozen=True)
class GeneratorRankReport:
    n: int
    full_rank: int
    restricted_rank: int
    full_saturated: bool
    restricted_saturated: bool

    @property
    def ranks_agree(self) -> bool:
        return self.full_rank == self.restricted_rank

    @property
    def expected_rank(self) -> int:
        return (self.n - 1) ** 2 + 1


def generator_rank_report(n: int, max_n: int | None = DEFAULT_MAX_N) -> GeneratorRankReport:
    """Ranks over the integers of the full and restricted generator families.

    ``saturated`` means all invariant factors are 1, so the generated
    subgroup is a direct summand of the permutation lattice and the rank
    counts honest free generators.
    """
    full = evaluation_matrix(n, max_n=max_n)
    # column 1 + i n + j of u_ij, i, j < n - 1, goes to 1 + i (n - 1) + j
    keep = {0: 0, **{1 + i * n + j: 1 + i * (n - 1) + j for i in range(n - 1) for j in range(n - 1)}}
    restricted = IntMatrix.from_sparse(
        full.rows, 1 + (n - 1) ** 2, ({keep[c]: x for c, x in row.items() if c in keep} for row in _sparse_rows(full))
    )
    f_full = invariant_factors(full)
    f_res = invariant_factors(restricted)
    return GeneratorRankReport(
        n=n,
        full_rank=sum(1 for d in f_full if d),
        restricted_rank=sum(1 for d in f_res if d),
        full_saturated=all(d in (0, 1) for d in f_full),
        restricted_saturated=all(d in (0, 1) for d in f_res),
    )


def generator_rank(n: int, max_n: int | None = DEFAULT_MAX_N) -> tuple[int, int]:
    """(rank of all 1, u_ij; rank of 1 and u_ij with i, j < n - 1)."""
    report = generator_rank_report(n, max_n=max_n)
    return report.full_rank, report.restricted_rank
