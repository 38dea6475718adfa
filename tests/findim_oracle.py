"""Second routes for `qautk.findim`, used only by the tests.

`qc_char_coefficients` (Faddeev-LeVerrier, O(k^4) per block) decides
positivity and gives Tr(Q^-1) = e_{k-1}(Q) / e_k(Q); `reference_delta_form`
runs the whole delta-form decision on it, with the checks, order and
messages of `AlgState` and `is_delta_form`.  `mu_mu_star` builds the full
operator on the GNS space, at O(dim^5) cost, from the Gram matrix
`gns_gram`.
"""

from __future__ import annotations

from fractions import Fraction

from qautk.exact_linalg import _row_reduce
from qautk.findim import (
    QC_ZERO,
    ComplexRational,
    DeltaFormResult,
    FinDimAlgebra,
    NonFaithfulStateError,
    QCMatrix,
    StateFormatError,
    _require_faithful,
    qc,
    qc_is_hermitian,
)

QC_ONE = qc(1)


def qc_identity(n: int) -> QCMatrix:
    return [[QC_ONE if i == j else QC_ZERO for j in range(n)] for i in range(n)]


def qc_zero_matrix(rows: int, cols: int) -> QCMatrix:
    return [[QC_ZERO for _ in range(cols)] for _ in range(rows)]


def qc_matmul(a: QCMatrix, b: QCMatrix) -> QCMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = qc_zero_matrix(rows, cols)
    for i in range(rows):
        ai = a[i]
        for kk in range(inner):
            x = ai[kk]
            if not x:
                continue
            bk = b[kk]
            oi = out[i]
            for j in range(cols):
                oi[j] = oi[j] + x * bk[j]
    return out


def qc_conj_transpose(a: QCMatrix) -> QCMatrix:
    rows = len(a)
    cols = len(a[0]) if a else 0
    return [[a[i][j].conjugate() for i in range(rows)] for j in range(cols)]


def qc_char_coefficients(a: QCMatrix) -> list[Fraction]:
    """Elementary symmetric functions of the spectrum (Faddeev-LeVerrier).

    For a Hermitian matrix these are real; entries are returned as Fractions
    and a StateFormatError is raised if an imaginary part sneaks in.
    """
    n = len(a)
    elementary: list[Fraction] = []
    m = qc_identity(n)
    sign = 1
    for kk in range(1, n + 1):
        m = qc_matmul(a, m)
        tr = QC_ZERO
        for i in range(n):
            tr = tr + m[i][i]
        c = ComplexRational(-tr.re / kk, -tr.im / kk)
        if not c.is_real():
            raise StateFormatError("characteristic coefficients are not real")
        sign = -sign
        elementary.append(sign * c.re)
        if kk < n:
            for i in range(n):
                m[i][i] = m[i][i] + c
    return elementary


def reference_delta_form(algebra: FinDimAlgebra, density) -> DeltaFormResult:
    """`AlgState(algebra, density)` then `is_delta_form`, on the spectrum.

    A Hermitian block is positive semidefinite exactly when every e_j is
    nonnegative, and positive definite exactly when every e_j is positive.
    """
    if len(density) != algebra.block_sizes.n:
        raise StateFormatError("one density block per matrix block required")
    coefficients = []
    total = Fraction(0)
    for size, q in zip(algebra.block_sizes, density):
        q = [[qc(x) for x in row] for row in q]
        if len(q) != size or any(len(row) != size for row in q):
            raise StateFormatError(f"density block must be {size}x{size}")
        if not qc_is_hermitian(q):
            raise StateFormatError("density block is not Hermitian")
        elementary = qc_char_coefficients(q)
        if any(c < 0 for c in elementary):
            raise StateFormatError("density block is not positive semidefinite")
        total += sum(q[i][i].re for i in range(size))
        coefficients.append(elementary)
    if total != 1:
        raise StateFormatError(f"total trace is {total}, expected 1")
    if not all(c > 0 for elementary in coefficients for c in elementary):
        raise NonFaithfulStateError("state is not faithful: some density block is singular")
    traces = [(e[-2] if len(e) > 1 else 1) / e[-1] for e in coefficients]
    lam = traces[0]
    for block, t in enumerate(traces):
        if t != lam:
            return DeltaFormResult(False, None, (block, qc(t), qc(lam)))
    if lam <= 0:
        raise StateFormatError(f"mu mu* scalar {lam} is not a positive rational")
    return DeltaFormResult(True, lam, None)


def gns_gram(algebra: FinDimAlgebra, state) -> QCMatrix:
    """Gram matrix <e_ab, e_cd> = state(e_ab* e_cd) on the matrix-unit basis.

    Positive definite whenever the state is faithful; exact rational(-complex)
    entries for rational density data.
    """
    if state.algebra.block_sizes != algebra.block_sizes:
        raise StateFormatError("state does not live on this algebra")
    _require_faithful(state)
    labels = algebra.basis_labels()
    dim = len(labels)
    gram = qc_zero_matrix(dim, dim)
    for x, (bx, a, b) in enumerate(labels):
        for y, (by, c, d) in enumerate(labels):
            if bx == by and a == c:
                # e_ab* e_cd = e_ba e_cd = delta_ac e_bd, and state(e_bd) = Q[d][b]
                gram[x][y] = state.density[bx][d][b]
    return gram


def _basis_index_maps(algebra: FinDimAlgebra):
    labels = algebra.basis_labels()
    index = {lab: i for i, lab in enumerate(labels)}
    return labels, index


def mu_mu_star(algebra: FinDimAlgebra, state) -> QCMatrix:
    """Matrix of mu mu* on the matrix-unit basis of the GNS space.

    mu is the multiplication map on the GNS space of the algebra tensored
    with itself; its adjoint is taken with respect to the product state.  The
    result is self-adjoint and positive for the GNS inner product, and the
    scalar-or-not question is basis independent.
    """
    _require_faithful(state)
    labels, index = _basis_index_maps(algebra)
    dim = len(labels)
    gram = gns_gram(algebra, state)
    reduced, pivots = _row_reduce(dict(enumerate(row + ident)) for row, ident in zip(gram, qc_identity(dim)))
    if pivots != list(range(dim)):
        raise ZeroDivisionError("GNS Gram matrix is singular")
    gram_inv = [[row.get(dim + j, QC_ZERO) for j in range(dim)] for row in reduced]
    gram_inv_t = [[gram_inv[j][i] for j in range(dim)] for i in range(dim)]

    # product of basis units: e_ab e_cd = delta_bc e_ad within a block
    def prod(u: int, v: int) -> int | None:
        bu, a, b = labels[u]
        bv, c, d = labels[v]
        if bu != bv or b != c:
            return None
        return index[(bu, a, d)]

    out = qc_zero_matrix(dim, dim)
    for x in range(dim):
        gcol = [gram[y][x] for y in range(dim)]
        # Y[u][v] = (mu^H G e_x) at coordinate (u, v); mu has 0/1 entries
        y_mat = qc_zero_matrix(dim, dim)
        for u in range(dim):
            for v in range(dim):
                p = prod(u, v)
                if p is not None:
                    y_mat[u][v] = gcol[p]
        # apply the inverse product Gram: Z = G^-1 Y (G^-1)^T
        z = qc_matmul(qc_matmul(gram_inv, y_mat), gram_inv_t)
        # push forward along mu
        for u in range(dim):
            for v in range(dim):
                p = prod(u, v)
                if p is not None and z[u][v]:
                    out[p][x] = out[p][x] + z[u][v]
    return out
