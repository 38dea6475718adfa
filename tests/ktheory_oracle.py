"""The Hermite route of `qautk.ktheory.k_theory`, used only by the tests.

K_1 is the `kernel_basis` of the boundary matrix (one Hermite pass of
[Aᵀ | I]) and K_0 its `cokernel` (invariant factors from alternating Hermite
passes): the route `k_theory` took before its O(n²) certificate.
"""

from __future__ import annotations

from qautk.exact_linalg import FgAbelianGroup, IntMatrix, invariant_factors, kernel_basis
from qautk.ktheory import boundary_matrix


def cokernel(A: IntMatrix) -> FgAbelianGroup:
    """ZZ^rows / (column span of A), in invariant-factor form."""
    factors = invariant_factors(A)
    r = sum(1 for d in factors if d != 0)
    return FgAbelianGroup(A.rows - r, tuple(d for d in factors if d > 1))


def hermite_k_theory(k) -> tuple[FgAbelianGroup, FgAbelianGroup, list[tuple[int, ...]]]:
    """(K_0, K_1, kernel basis) of the boundary matrix by Hermite passes."""
    boundary = boundary_matrix(k)
    kernel = kernel_basis(boundary)
    return cokernel(boundary), FgAbelianGroup(len(kernel), ()), kernel
