"""The n! route of `qautk.magic.generator_rank_report`, used only by the tests.

`evaluation_matrix` evaluates 1 and every u_ij on all n! permutations, and
`factorial_rank_report` reads the ranks and saturations of the full and the
restricted family off two Smith passes on it: the report `magic` gave before
its (n-1)^2 + 1 minor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from qautk.exact_linalg import IntMatrix, invariant_factors
from qautk.magic import GeneratorRankReport


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


def evaluation_matrix(n: int) -> IntMatrix:
    """The n! x (n^2 + 1) matrix of values of 1 and u_ij over all permutations.

    Rows are indexed by permutations in lexicographic order; columns by the
    constant 1 followed by u_ij in (i, j) lexicographic order.
    """
    rows = [{0: 1, **{1 + i * n + j: 1 for i, j in enumerate(sigma)}} for sigma in itertools.permutations(range(n))]
    return IntMatrix.from_sparse(len(rows), n * n + 1, rows)


def restricted(full: IntMatrix, n: int) -> IntMatrix:
    """The columns of 1 and u_ij, i, j < n - 1, of an evaluation matrix;
    u_ij moves from column 1 + i n + j to 1 + i (n - 1) + j."""
    keep = {0: 0, **{1 + i * n + j: 1 + i * (n - 1) + j for i in range(n - 1) for j in range(n - 1)}}
    rows = [{keep[c]: full.at(r, c) for c in keep if full.at(r, c)} for r in range(full.rows)]
    return IntMatrix.from_sparse(full.rows, 1 + (n - 1) ** 2, rows)


def factorial_rank_report(n: int) -> GeneratorRankReport:
    """The report from the invariant factors of the n! evaluation matrix and
    of its restricted columns."""
    full = evaluation_matrix(n)
    f_full = invariant_factors(full)
    f_res = invariant_factors(restricted(full, n))
    return GeneratorRankReport(
        n=n,
        full_rank=sum(1 for d in f_full if d),
        restricted_rank=sum(1 for d in f_res if d),
        full_saturated=all(d in (0, 1) for d in f_full),
        restricted_saturated=all(d in (0, 1) for d in f_res),
    )
