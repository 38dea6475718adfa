"""Multi-matrix algebras with faithful states and the delta-form test.

A state on M_k1 (+) ... (+) M_kn is given by blockwise density matrices Q_i
with total trace one.  The GNS inner product <a, b> = state(a* b) turns the
algebra into a Hilbert space; the multiplication map mu then has an adjoint
mu*, and the state is a delta-form exactly when mu mu* is a scalar.  By
Banica ("Symmetries of a generic coaction", Math. Ann. 314, 1999) mu mu*
acts on block i as the scalar Tr(Q_i^-1), so `is_delta_form` compares these
block values; `mu_mu_star` builds the full operator and is the second route.
All arithmetic is over complex numbers with rational real and imaginary
parts, so "scalar" versus "not scalar" is an exact distinction; delta itself
is reported through the rational delta^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dims import DimVector
from .exact_linalg import _row_reduce


class NonFaithfulStateError(ValueError):
    """The density has a kernel, so the GNS inner product is degenerate."""


class StateFormatError(ValueError):
    """Density data does not describe a state."""


# ---------------------------------------------------------------------------
# Complex numbers with rational coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexRational:
    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "ComplexRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n2 = other.re * other.re + other.im * other.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        return qc(other) / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


QC_ZERO = ComplexRational(Fraction(0), Fraction(0))
QC_ONE = ComplexRational(Fraction(1), Fraction(0))


def qc(value, im=0) -> ComplexRational:
    if isinstance(value, ComplexRational):
        return value
    return ComplexRational(Fraction(value), Fraction(im))


QCMatrix = list  # list[list[ComplexRational]]


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
            if x.is_zero():
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


def qc_is_hermitian(a: QCMatrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i].conjugate() for i in range(n) for j in range(n))


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


# ---------------------------------------------------------------------------
# Algebras and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinDimAlgebra:
    """M_k1 (+) ... (+) M_kn with the matrix-unit basis."""

    block_sizes: DimVector

    @classmethod
    def of(cls, *sizes: int) -> "FinDimAlgebra":
        return cls(DimVector(tuple(sizes)))

    @property
    def dim(self) -> int:
        return self.block_sizes.algebra_dim

    def basis_labels(self) -> list[tuple[int, int, int]]:
        """(block, row, col) for each matrix unit, block-major."""
        out = []
        for b, size in enumerate(self.block_sizes):
            for r in range(size):
                for c in range(size):
                    out.append((b, r, c))
        return out


class AlgState:
    """Blockwise density matrices Q_i; the state is a |-> sum tr(Q_i a_i).

    Densities must be Hermitian positive semidefinite with total trace one.
    The state is faithful exactly when every block is positive definite.
    `char_coefficients[i]` holds e_1..e_k of the spectrum of Q_i.
    """

    def __init__(self, algebra: FinDimAlgebra, density: Sequence[QCMatrix]):
        if len(density) != algebra.block_sizes.n:
            raise StateFormatError("one density block per matrix block required")
        blocks, coefficients = [], []
        total = Fraction(0)
        for size, q in zip(algebra.block_sizes, density):
            q = [[qc(x) if not isinstance(x, ComplexRational) else x for x in row] for row in q]
            if len(q) != size or any(len(row) != size for row in q):
                raise StateFormatError(f"density block must be {size}x{size}")
            if not qc_is_hermitian(q):
                raise StateFormatError("density block is not Hermitian")
            elementary = qc_char_coefficients(q)
            if any(c < 0 for c in elementary):
                raise StateFormatError("density block is not positive semidefinite")
            for i in range(size):
                total += q[i][i].re
            blocks.append(q)
            coefficients.append(elementary)
        if total != 1:
            raise StateFormatError(f"total trace is {total}, expected 1")
        self.algebra = algebra
        self.density = blocks
        self.char_coefficients = coefficients
        self.faithful = all(c > 0 for elementary in coefficients for c in elementary)

    @classmethod
    def commutative(cls, weights: Sequence) -> "AlgState":
        """State on C^n from a weight vector."""
        w = [Fraction(x) for x in weights]
        alg = FinDimAlgebra.of(*([1] * len(w)))
        return cls(alg, [[[qc(x)]] for x in w])

    @classmethod
    def uniform_trace(cls, n: int) -> "AlgState":
        """Uniform probability weights on C^n."""
        return cls.commutative([Fraction(1, n)] * n)

    @classmethod
    def _scalar_blocks(cls, algebra: FinDimAlgebra, scalars: Sequence[Fraction]) -> "AlgState":
        """The state with Q_i = scalars[i] * I on each block."""
        density = [
            [[qc(s) if i == j else QC_ZERO for j in range(size)] for i in range(size)]
            for size, s in zip(algebra.block_sizes, scalars)
        ]
        return cls(algebra, density)

    @classmethod
    def trace_state(cls, algebra: FinDimAlgebra) -> "AlgState":
        """The tracial state Tr / Tr(1); on M_k this is the normalized trace."""
        total = sum(algebra.block_sizes)
        return cls._scalar_blocks(algebra, [Fraction(1, total)] * algebra.block_sizes.n)

    @classmethod
    def canonical(cls, algebra: FinDimAlgebra) -> "AlgState":
        """The canonical delta-form Q_i = (k_i / sum k^2) I, with delta^2 = sum k_i^2."""
        return cls._scalar_blocks(algebra, [Fraction(size, algebra.dim) for size in algebra.block_sizes])


# ---------------------------------------------------------------------------
# GNS data and the delta-form test
# ---------------------------------------------------------------------------

def _require_faithful(state: AlgState) -> None:
    if not state.faithful:
        raise NonFaithfulStateError(
            "state is not faithful: some density block is singular"
        )


def gns_gram(algebra: FinDimAlgebra, state: AlgState) -> QCMatrix:
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


def mu_mu_star(algebra: FinDimAlgebra, state: AlgState) -> QCMatrix:
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
                if p is not None and not z[u][v].is_zero():
                    out[p][x] = out[p][x] + z[u][v]
    return out


@dataclass(frozen=True)
class DeltaFormResult:
    is_delta_form: bool
    delta_squared: Fraction | None
    witness: tuple[int, ComplexRational, ComplexRational] | None

    @property
    def delta(self) -> float | None:
        if self.delta_squared is None:
            return None
        return math.sqrt(float(self.delta_squared))

    def delta_exact(self) -> Fraction | None:
        """delta as an exact rational when delta^2 is a perfect square."""
        if self.delta_squared is None:
            return None
        p, q = self.delta_squared.numerator, self.delta_squared.denominator
        rp, rq = math.isqrt(p), math.isqrt(q)
        if rp * rp == p and rq * rq == q:
            return Fraction(rp, rq)
        return None


def is_delta_form(algebra: FinDimAlgebra, state: AlgState) -> DeltaFormResult:
    """Decide whether the state is a delta-form: mu mu* = delta^2 id.

    mu mu* acts on block i as the scalar t_i = Tr(Q_i^-1) (Banica 1999),
    read off the characteristic coefficients as e_{k-1}(Q_i) / e_k(Q_i).
    The state is a delta-form exactly when every t_i equals t_0, and then
    delta^2 = t_0.  Otherwise the witness is (i, t_i, t_0) for the first
    block i that differs.
    """
    _require_faithful(state)
    if state.algebra.block_sizes != algebra.block_sizes:
        raise StateFormatError("state does not live on this algebra")
    traces = [
        (elementary[-2] if len(elementary) > 1 else 1) / elementary[-1]
        for elementary in state.char_coefficients
    ]
    lam = traces[0]
    for block, t in enumerate(traces):
        if t != lam:
            return DeltaFormResult(False, None, (block, qc(t), qc(lam)))
    if lam <= 0:
        raise StateFormatError(f"mu mu* scalar {lam} is not a positive rational")
    return DeltaFormResult(True, lam, None)
