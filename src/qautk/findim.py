"""Multi-matrix algebras with faithful states and the delta-form test.

A state on M_k1 (+) ... (+) M_kn is given by blockwise density matrices Q_i
with total trace one.  The GNS inner product <a, b> = state(a* b) turns the
algebra into a Hilbert space; the multiplication map mu then has an adjoint
mu*, and the state is a delta-form exactly when mu mu* is a scalar.  By
Banica ("Symmetries of a generic coaction", Math. Ann. 314, 1999) mu mu*
acts on block i as the scalar Tr(Q_i^-1), so `is_delta_form` compares these
block values.  All arithmetic is over complex numbers with rational real and
imaginary parts, so "scalar" versus "not scalar" is an exact distinction;
delta itself is reported through the rational delta^2.

Each Hermitian block Q is factored once as Q = L D L* (L unit lower
triangular, D = diag(d_0, ..., d_{k-1}) real), going down the diagonal: d_j
is the (j, j) entry of the Schur complement S_j left after the pivots
before j, that is d_j = q_jj - sum_{p<j} |l_jp|^2 d_p.

* d_j < 0: Q is not positive semidefinite.
* d_j = 0 and column j of S_j has a nonzero entry s: Q is not positive
  semidefinite.
* d_j = 0 and column j of S_j is zero: l_ij = 0 for i > j, and the pass
  goes on; Q is positive semidefinite but singular, so the state is not
  faithful.
* every d_j > 0: Q is positive definite and
  Tr(Q^-1) = sum_j ||row j of L^-1||^2 / d_j.

Proof.  Each elimination step is a congruence by a unit lower triangular
matrix, so Q = E (diag(d_0, ..., d_{j-1}) (+) S_j) E* with E invertible, and
congruence preserves positive (semi)definiteness and rank (Sylvester).  A
negative diagonal entry d_j of S_j, or d_j = 0 beside an entry s != 0 of its
column, whose 2x2 principal minor [[0, s], [conj(s), *]] has determinant
-|s|^2 < 0, shows S_j, hence Q, is not positive semidefinite.  When the
pass completes, Q = L D L* is congruent to D: positive semidefinite, and
positive definite exactly when no d_j is zero.  Then Q^-1 = L^-* D^-1 L^-1,
and Tr(Q^-1) = Tr(D^-1 L^-1 L^-*) = sum_j (L^-1 L^-*)_jj / d_j, where
(L^-1 L^-*)_jj is the squared norm of row j of L^-1.  A dense k x k block
costs about k^3/3 complex products: k^3/6 for the factorization and k^3/6
for L^-1.

The GNS Gram matrix, the full operator mu mu* and the Faddeev-LeVerrier
characteristic coefficients live in `tests/findim_oracle.py`, where they
check this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dims import DimVector


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

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


QC_ZERO = ComplexRational(Fraction(0), Fraction(0))


def qc(value, im=0) -> ComplexRational:
    if isinstance(value, ComplexRational):
        return value
    return ComplexRational(Fraction(value), Fraction(im))


QCMatrix = list  # list[list[ComplexRational]]


def qc_is_hermitian(a: QCMatrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i].conjugate() for i in range(n) for j in range(n))


def _inverse_trace(q: QCMatrix) -> Fraction | None:
    """Tr(Q^-1) of a Hermitian block by one exact LDL* pass (module docstring).

    Returns None when Q is positive semidefinite but singular, and raises
    StateFormatError when it is not positive semidefinite.
    """
    k = len(q)
    schur = [row[: i + 1] for i, row in enumerate(q)]  # lower triangle of S_j
    lower: list[list[tuple[int, ComplexRational]]] = [[] for _ in range(k)]  # nonzero l_ij, j < i
    pivots = []
    for j in range(k):
        d = schur[j][j].re
        column = [(i, schur[i][j]) for i in range(j + 1, k) if schur[i][j]]
        if d < 0 or (d == 0 and column):
            raise StateFormatError("density block is not positive semidefinite")
        pivots.append(d)
        if d == 0:
            continue
        # S_{j+1}[i][m] = S_j[i][m] - s_ij conj(s_mj) / d for j < m <= i
        conj_l = [(m, ComplexRational(s.re / d, -s.im / d)) for m, s in column]
        for i, s in column:
            row = schur[i]
            for m, c in conj_l:
                if m > i:
                    break
                row[m] = row[m] - s * c
            lower[i].append((j, ComplexRational(s.re / d, s.im / d)))
    if 0 in pivots:
        return None
    # row j of L^-1 is e_j - sum_{r<j} l_jr (row r of L^-1); kept sparse, unit diagonal implied
    total = Fraction(0)
    inverse_rows: list[dict[int, ComplexRational]] = []
    for j in range(k):
        inverse_row: dict[int, ComplexRational] = {}
        for r, l in lower[j]:
            inverse_row[r] = inverse_row.get(r, QC_ZERO) - l
            for p, x in inverse_rows[r].items():
                inverse_row[p] = inverse_row.get(p, QC_ZERO) - l * x
        inverse_rows.append(inverse_row)
        total += (1 + sum(x.re * x.re + x.im * x.im for x in inverse_row.values())) / pivots[j]
    return total


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
    `inverse_traces[i]` holds Tr(Q_i^-1), or None when Q_i is singular.
    """

    def __init__(self, algebra: FinDimAlgebra, density: Sequence[QCMatrix]):
        if len(density) != algebra.block_sizes.n:
            raise StateFormatError("one density block per matrix block required")
        blocks, inverse_traces = [], []
        total = Fraction(0)
        for size, q in zip(algebra.block_sizes, density):
            q = [[qc(x) if not isinstance(x, ComplexRational) else x for x in row] for row in q]
            if len(q) != size or any(len(row) != size for row in q):
                raise StateFormatError(f"density block must be {size}x{size}")
            if not qc_is_hermitian(q):
                raise StateFormatError("density block is not Hermitian")
            inverse_traces.append(_inverse_trace(q))
            for i in range(size):
                total += q[i][i].re
            blocks.append(q)
        if total != 1:
            raise StateFormatError(f"total trace is {total}, expected 1")
        self.algebra = algebra
        self.density = blocks
        self.inverse_traces = inverse_traces
        self.faithful = None not in inverse_traces

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
# The delta-form test
# ---------------------------------------------------------------------------

def _require_faithful(state: AlgState) -> None:
    if not state.faithful:
        raise NonFaithfulStateError(
            "state is not faithful: some density block is singular"
        )


@dataclass(frozen=True)
class DeltaFormResult:
    is_delta_form: bool
    delta_squared: Fraction | None
    witness: tuple[int, ComplexRational, ComplexRational] | None

    @property
    def delta(self) -> float | None:
        """The float nearest delta = sqrt(delta^2), or None if that overflows.

        An integer square root of delta^2 scaled by 4^e, with at least 64
        bits and a sticky low bit when inexact, rounds to the same float as
        the exact root, without passing delta^2 itself through a float.
        """
        if self.delta_squared is None:
            return None
        p, q = self.delta_squared.numerator, self.delta_squared.denominator
        e = max(0, (128 - p.bit_length() + q.bit_length()) // 2 + 1)
        scaled = (p << 2 * e) // q
        root = math.isqrt(scaled)
        if root * root * q != p << 2 * e:
            root |= 1
        try:
            return math.ldexp(float(root), -e)
        except OverflowError:
            return None

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
    which `AlgState` found by the LDL* pass.  The state is a delta-form
    exactly when every t_i equals t_0, and then delta^2 = t_0.  Otherwise
    the witness is (i, t_i, t_0) for the first block i that differs.
    """
    _require_faithful(state)
    if state.algebra.block_sizes != algebra.block_sizes:
        raise StateFormatError("state does not live on this algebra")
    traces = state.inverse_traces
    lam = traces[0]
    for block, t in enumerate(traces):
        if t != lam:
            return DeltaFormResult(False, None, (block, qc(t), qc(lam)))
    if lam <= 0:
        raise StateFormatError(f"mu mu* scalar {lam} is not a positive rational")
    return DeltaFormResult(True, lam, None)
