"""K-groups of the quantum automorphism group of a multi-matrix algebra.

K_1 is the kernel and K_0 the cokernel of the (n² + 1) × 2n boundary matrix
A.  ``k_theory`` reads both off a certificate that it builds and checks on
the built A in O(n²); the closed form Z^((n−1)²+1) ⊕ Z_d^(2n−1), d the gcd
of the block sizes, is the separate second route (``closed_form``).

The certificate.  Let d = gcd(k), k' = k/d and β·k' = 1 (Bezout).  Column
x_i of A' = A/d is Σ_a k'_a e_(i,a) − k'_i e_last, column y_a is
−Σ_i k'_i e_(i,a) + k'_a e_last.  The rows φ_i(w) = Σ_a β_a w_(i,a) and
ψ_a(w) = −Σ_i β_i w_(i,a) of Y give Y·A' = M = [[I, −N], [−N, I]] with
N = k'βᵀ = N², and Z = [[I, N], [0, I]] gives P = Z·M = [[I − N, 0], [−N, I]]
= I + v·cᵀ with v = (k', k') and c = (−β, 0).  ``_certify`` checks on the
rows of A: (1) d divides every entry, so A' is integral; (2) A'·v = 0;
(3) Y·A' = M; (4) Z·M = I + v·cᵀ, with N·X as k'·(βᵀX), since a dense N·M
is O(n³).

Why that is a proof: (1), (2) and (4) suffice, and (3) names a fault of A
or β before it reaches P.  G = Z·Y is integral and G·A' = P.
* A'·G·A' = A' + (A'v)·cᵀ = A'.  In a Smith form A' = U·S·W, S·(W G U)·S = S,
  so s·h·s = s for each nonzero invariant factor s and an integer h: all of
  them are 1, and those of A are d.
* P·v = G·A'·v = 0 gives c·v = −1, so v is primitive.
* rank A' ≥ rank P ≥ 2n − 1 (P is I plus rank one) and ≤ 2n − 1 (A'v = 0),
  so coker A = Z^((n−1)²+1) ⊕ Z_d^(2n−1).
* A'x = 0 gives 0 = P·x = x + v·(c·x): K_1 = Z·v, and v > 0 is the
  generator the Hermite route (the test oracle) returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dims import DimVector
from .exact_linalg import CertificateError, FgAbelianGroup, IntMatrix, _sparse_rows, _xgcd

# Re-exported, unused here: perfbench's self-check patches ktheory.kernel_basis
# to test that its tracer restores what it wraps.
from .exact_linalg import kernel_basis  # noqa: F401


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


def _bezout(sizes: list[int]) -> list[int]:
    """β with Σ β_a k_a = gcd(k) for positive k, by extended gcds along k."""
    g, beta = sizes[0], [1]
    for k in sizes[1:]:
        g, s, t = _xgcd(g, k)
        if s != 1:
            beta = [s * b for b in beta]
        beta.append(t)
    return beta


def _fail(step: str, witness: str):
    raise CertificateError(f"boundary certificate step {step}: {witness}")


def _certify(k: DimVector, A: IntMatrix) -> tuple[int, ...]:
    """Check the certificate of the module docstring on the rows of A and
    return v; raise ``CertificateError`` at the first check that fails."""
    n, d = k.n, k.gcd
    w = 2 * n
    kp = [x // d for x in k]
    beta = _bezout(kp)
    v = kp + kp
    if (A.rows, A.cols) != (n * n + 1, w):
        _fail("1 (A = d A')", f"A is {A.rows} x {A.cols}, expected {n * n + 1} x {w}")
    rows = _sparse_rows(A)
    for r, row in enumerate(rows):
        s = 0
        for j, x in row.items():
            if x % d:
                _fail("1 (A = d A')", f"d = {d} does not divide A[{r}][{j}] = {x}")
            row[j] = x = x // d
            s += x * v[j]
        if s:
            _fail("2 (A' v = 0)", f"(A' v)[{r}] = {s}")
    # M = Y A' densely: row (i, a) of A' enters φ_i times β_a and ψ_a times -β_i
    M = [[0] * w for _ in range(w)]
    for r in range(n * n):
        i, a = divmod(r, n)
        top, bottom, ba, bi = M[i], M[n + a], beta[a], beta[i]
        for j, x in rows[r].items():
            top[j] += ba * x
            bottom[j] -= bi * x
    # P = Z M: the top rows gain N M_bottom = k' (βᵀ M_bottom)
    nonzero = [(M[n + a], b) for a, b in enumerate(beta) if b]
    u = [sum(b * row[j] for row, b in nonzero) for j in range(w)]
    for r in range(w):
        minus_n = [-kp[r % n] * b for b in beta]
        if r < n:
            m_row, p_row, p = [0] * n + minus_n, minus_n + [0] * n, [x + kp[r] * y for x, y in zip(M[r], u)]
            m_row[r] = 1
            p_row[r] += 1
        else:
            m_row = p_row = minus_n + [0] * n
            m_row[r] = 1
            p = M[r]
        for step, got, expected in (("3 (Y A' = M)", M[r], m_row), ("4 (Z M = I + v c^T)", p, p_row)):
            if got != expected:
                j = next(j for j in range(w) if got[j] != expected[j])
                _fail(step, f"entry ({r}, {j}) is {got[j]}, expected {expected[j]}")
    return tuple(v)


def k_theory(k: DimVector) -> KTheoryResult:
    """K_0 and K_1 of the boundary matrix A from its checked certificate:
    rank A = 2n - 1 with every nonzero invariant factor d, and K_1 = Z v."""
    boundary = boundary_matrix(k)
    v = _certify(k, boundary)
    rank, d = len(v) - 1, k.gcd
    w = k.scope_warning()
    return KTheoryResult(
        k0=FgAbelianGroup(boundary.rows - rank, (d,) * rank if d > 1 else ()),
        k1=FgAbelianGroup(free_rank=1, torsion=()),
        boundary=boundary,
        kernel_generator=v,
        warnings=(w,) if w else (),
    )


def closed_form(k: DimVector) -> tuple[FgAbelianGroup, FgAbelianGroup]:
    """The closed-form (K_0, K_1) in terms of n and d = gcd(k_1, ..., k_n)."""
    n, d = k.n, k.gcd
    return FgAbelianGroup((n - 1) ** 2 + 1, (d,) * (2 * n - 1) if d > 1 else ()), FgAbelianGroup(1, ())


def verify_theorem(k: DimVector) -> bool:
    """True when the boundary-matrix route agrees with the closed form."""
    result = k_theory(k)
    expect_k0, expect_k1 = closed_form(k)
    return result.k0 == expect_k0 and result.k1 == expect_k1
