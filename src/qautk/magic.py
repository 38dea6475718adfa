"""Magic unitaries over characters and the abelianization rank count.

Every character of the quantum permutation algebra factors through a
permutation σ, where u_ij(σ) = 1 if σ(i) = j and 0 otherwise.  On all n!
permutations the full family {1} ∪ {u_ij} and the restricted family
R = {1} ∪ {u_ij : i, j < n−1} give integer matrices E_F and E_R; their
ranks count the independent degree-zero generators, and "saturated" means
every nonzero invariant factor is 1 (the span is a direct summand).

One square minor of E_R proves all four, on the r = (n−1)² + 1 rows of the
identity, the 3-cycles i → j → n−1 → i (i ≠ j < n−1) and the
transpositions (i n−1).  Less the identity's row, a 3-cycle's row is
u_ij − u_ii − u_jj and a transposition's −u_ii: with the columns ordered 1,
u_ij (i ≠ j), u_ii the minor is block triangular with diagonal blocks (1),
I, −I, so unimodular, which one ``invariant_factors`` call checks at run
time.  Hence rank E_R = r with all invariant factors 1.  On permutation
matrices, the 0/1 magic matrices (Birkhoff–von Neumann; Brualdi,
*Combinatorial Matrix Classes*, 2006), u_{i,n−1} = 1 − Σ_{j<n−1} u_ij,
u_{n−1,j} = 1 − Σ_{i<n−1} u_ij and u_{n−1,n−1} = 2 − n + Σ_{i,j<n−1} u_ij,
so E_F = E_R·T for an integer T while E_R's columns are among E_F's:
rank E_F = r, and E_F holds the same minor ±1, so it is saturated too.
The n! evaluation matrix is the test-time oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import CertificateError, IntMatrix, invariant_factors


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


def _minor(n: int) -> IntMatrix:
    """The (n-1)^2 + 1 square minor of the module docstring.  Rows: the
    identity, the 3-cycles i -> j -> n-1 -> i and the transpositions
    (i n-1), each the map of the points it moves; columns: 1 and u_ij,
    i, j < n-1, at 1 + i (n - 1) + j."""
    last = n - 1
    perms = [{}] + [{i: j, j: last, last: i} for i in range(last) for j in range(last) if i != j]
    perms += [{i: last, last: i} for i in range(last)]
    rows = [{0: 1, **{1 + i * last + s: 1 for i in range(last) if (s := sigma.get(i, i)) < last}} for sigma in perms]
    return IntMatrix.from_sparse(len(rows), 1 + last * last, rows)


def generator_rank_report(n: int) -> GeneratorRankReport:
    """Ranks over the integers of the full and restricted generator families,
    proved by the unimodular minor of the module docstring; raises
    ``CertificateError`` if an invariant factor of the minor is not 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    factors = invariant_factors(_minor(n))
    if any(f != 1 for f in factors):
        raise CertificateError(f"the (n-1)^2+1 magic minor is not unimodular: invariant factors {list(factors)}")
    r = len(factors)
    return GeneratorRankReport(n=n, full_rank=r, restricted_rank=r, full_saturated=True, restricted_saturated=True)


def generator_rank(n: int) -> tuple[int, int]:
    """(rank of all 1, u_ij; rank of 1 and u_ij with i, j < n - 1)."""
    report = generator_rank_report(n)
    return report.full_rank, report.restricted_rank
