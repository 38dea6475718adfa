"""K-groups of the quantum automorphism group of a multi-matrix algebra.

The degree-zero boundary matrix induced by the resolution has an explicit
block shape in terms of the dimension vector; K_1 is its kernel and K_0 its
cokernel.  The closed form Z^((n-1)^2 + 1) (+) Z_d^(2n-1) with d the gcd of
the block sizes is implemented separately so the two routes can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dims import DimVector
from .exact_linalg import FgAbelianGroup, IntMatrix, kernel_basis, cokernel


@dataclass(frozen=True)
class KTheoryResult:
    k0: FgAbelianGroup
    k1: FgAbelianGroup
    boundary: IntMatrix
    kernel_generator: tuple[int, ...]
    warnings: tuple[str, ...]


def boundary_matrix(k: DimVector) -> IntMatrix:
    """The (n^2 + 1) x 2n boundary map at the level of K_0.

    Row block i carries the column k in column i and the block -k_i * identity
    in the last n columns; the final row is (-k_1, ..., -k_n | k_1, ..., k_n).
    """
    n = k.n
    sizes = list(k)
    rows = [{i: sizes[a], n + a: -sizes[i]} for i in range(n) for a in range(n)]
    rows.append({**{j: -x for j, x in enumerate(sizes)}, **{n + j: x for j, x in enumerate(sizes)}})
    return IntMatrix.from_sparse(n * n + 1, 2 * n, rows)


def k_theory(k: DimVector) -> KTheoryResult:
    """K_0 and K_1 via kernel and cokernel of the boundary matrix."""
    boundary = boundary_matrix(k)
    kernel = kernel_basis(boundary)
    if len(kernel) != 1:
        raise RuntimeError(
            f"boundary kernel has rank {len(kernel)}, expected 1; dims {k}"
        )
    k0 = cokernel(boundary)
    k1 = FgAbelianGroup(free_rank=len(kernel), torsion=())
    w = k.scope_warning()
    return KTheoryResult(
        k0=k0,
        k1=k1,
        boundary=boundary,
        kernel_generator=kernel[0],
        warnings=(w,) if w else (),
    )


def closed_form(k: DimVector) -> tuple[FgAbelianGroup, FgAbelianGroup]:
    """The closed-form (K_0, K_1) in terms of n and d = gcd(k_1, ..., k_n)."""
    n = k.n
    d = k.gcd
    free = (n - 1) ** 2 + 1
    torsion = (d,) * (2 * n - 1) if d > 1 else ()
    return FgAbelianGroup(free, torsion), FgAbelianGroup(1, ())


def verify_theorem(k: DimVector) -> bool:
    """True when the boundary-matrix route agrees with the closed form."""
    result = k_theory(k)
    expect_k0, expect_k1 = closed_form(k)
    return result.k0 == expect_k0 and result.k1 == expect_k1
