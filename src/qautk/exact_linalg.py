"""Exact linear algebra.

Smith normal form with unimodular transformation matrices, row Hermite
normal form, integer kernels and cokernels, and finitely generated abelian
groups in invariant-factor form, all on Python's arbitrary-precision
integers, so no operation can overflow.  The Hermite engine and the lattice
membership test work on sparse rows (column -> nonzero entry), since the
lattices they serve are mostly zeros.  One Gauss-Jordan elimination serves
every exact field the library uses: rationals, Gaussian rationals and
cyclotomic fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class MatrixFormatError(ValueError):
    """Malformed matrix data (shape mismatch or unparsable text)."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixFormatError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixFormatError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise MatrixFormatError(f"non-integer entry {e!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != m:
                raise MatrixFormatError("ragged rows")
        return cls(n, m, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows, tuple(x for j in range(c) for x in e[j::c]))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixFormatError("incompatible shapes for product")
        a, b = self.to_lists(), other.to_lists()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise MatrixFormatError("vector length does not match column count")
        c = self.cols
        return tuple(
            sum(self.entries[i * c + j] * vector[j] for j in range(c))
            for i in range(self.rows)
        )

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise MatrixFormatError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_text(self) -> str:
        """Render in the shared text format: "rows cols" then entry rows."""
        lines = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            lines.append(" ".join(str(x) for x in self.row(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        tokens = text.split()
        if len(tokens) < 2:
            raise MatrixFormatError("matrix text must start with 'rows cols'")
        try:
            rows, cols = int(tokens[0]), int(tokens[1])
            body = [int(t) for t in tokens[2:]]
        except ValueError as exc:
            raise MatrixFormatError(f"non-integer token in matrix text: {exc}") from None
        if rows < 0 or cols < 0:
            raise MatrixFormatError("negative dimensions")
        if len(body) != rows * cols:
            raise MatrixFormatError(
                f"expected {rows * cols} entries after header, got {len(body)}"
            )
        return cls(rows, cols, tuple(body))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = S with U, V unimodular and S diagonal.

    ``invariant_factors`` is the diagonal of S: a divisibility chain of
    nonnegative integers with all zeros trailing.
    """

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


def _identity_lists(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _swap_cols(m, j, k):
    for row in m:
        row[j], row[k] = row[k], row[j]


def _smith_engine(data, rows, cols, want_u, want_v):
    """Diagonalize ``data`` in place by unimodular operations.

    Pivots are chosen with minimal absolute value in the working submatrix to
    keep entry growth in check.  Each accepted pivot is made to divide every
    entry of the remaining submatrix, so the diagonal is already a
    divisibility chain when the loop ends.

    Returns (matrix, u, v, factors) where u, v are None unless requested.
    """
    m = data
    u = _identity_lists(rows) if want_u else None
    v = _identity_lists(cols) if want_v else None
    limit = min(rows, cols)
    t = 0
    while t < limit:
        # locate a pivot of minimal magnitude
        best = 0
        pi = pj = -1
        for i in range(t, rows):
            mi = m[i]
            for j in range(t, cols):
                e = mi[j]
                if e:
                    if e < 0:
                        e = -e
                    if best == 0 or e < best:
                        best, pi, pj = e, i, j
                        if best == 1:
                            break
            if best == 1:
                break
        if pi < 0:
            break  # working submatrix is zero
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            _swap_cols(m, t, pj)
            if v is not None:
                _swap_cols(v, t, pj)
        if m[t][t] < 0:
            _negate_row(m, t)
            if u is not None:
                _negate_row(u, t)
        while True:
            piv = m[t][t]
            # clear column t with row operations
            restart = False
            for i in range(rows):
                if i == t:
                    continue
                a = m[i][t]
                if not a:
                    continue
                q = a // piv
                if q:
                    mi, mt = m[i], m[t]
                    for j2 in range(t, cols):
                        mi[j2] -= q * mt[j2]
                    if u is not None:
                        ui, ut = u[i], u[t]
                        for j2 in range(rows):
                            ui[j2] -= q * ut[j2]
                    a = mi[t]
                if a:
                    # positive remainder strictly smaller than the pivot
                    m[t], m[i] = m[i], m[t]
                    if u is not None:
                        u[t], u[i] = u[i], u[t]
                    restart = True
                    break
            if restart:
                continue
            # column t is clear, so a column operation only touches row t
            piv = m[t][t]
            restart = False
            for j in range(t + 1, cols):
                a = m[t][j]
                if not a:
                    continue
                q = a // piv
                if q:
                    m[t][j] = a - q * piv
                    if v is not None:
                        for r in range(cols):
                            v[r][j] -= q * v[r][t]
                    a = m[t][j]
                if a:
                    _swap_cols(m, t, j)
                    if v is not None:
                        _swap_cols(v, t, j)
                    restart = True
                    break
            if restart:
                continue
            piv = m[t][t]
            if piv != 1:
                # make the pivot divide the remaining submatrix
                folded = False
                for i in range(t + 1, rows):
                    mi = m[i]
                    for j in range(t + 1, cols):
                        if mi[j] % piv:
                            mt = m[t]
                            for j2 in range(t, cols):
                                mt[j2] += mi[j2]
                            if u is not None:
                                ut, ui = u[t], u[i]
                                for j2 in range(rows):
                                    ut[j2] += ui[j2]
                            folded = True
                            break
                    if folded:
                        break
                if folded:
                    continue
            break
        t += 1
    factors = tuple(m[i][i] for i in range(limit))
    return m, u, v, factors


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation matrices.

    Returns a decomposition with U @ A @ V = S exactly, |det U| = |det V| = 1,
    and the diagonal of S a nonnegative divisibility chain.  Empty matrices
    are allowed.
    """
    m, u, v, factors = _smith_engine(A.to_lists(), A.rows, A.cols, True, True)
    return SmithDecomposition(
        S=IntMatrix.from_rows(m) if A.rows else IntMatrix(0, A.cols, ()),
        U=IntMatrix.from_rows(u) if A.rows else IntMatrix(0, 0, ()),
        V=IntMatrix.from_rows(v) if A.cols else IntMatrix(0, 0, ()),
        invariant_factors=factors,
    )


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """Invariant factors only, skipping transformation bookkeeping.

    Works on the transpose when that is the smaller orientation; the factors
    are invariant under transposition.
    """
    if A.rows > A.cols:
        A = A.transpose()
    _, _, _, factors = _smith_engine(A.to_lists(), A.rows, A.cols, False, False)
    return factors


def _normalize_vector_sign(vec: list[int]) -> tuple[int, ...]:
    for x in vec:
        if x:
            if x < 0:
                return tuple(-y for y in vec)
            break
    return tuple(vec)


def kernel_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Lattice basis of {x : A x = 0}.

    The returned vectors are the columns of V beyond the rank, so they span
    the full (saturated) kernel lattice.  Each vector is normalized so its
    first nonzero coordinate is positive.
    """
    _, _, v, factors = _smith_engine(A.to_lists(), A.rows, A.cols, False, True)
    r = sum(1 for d in factors if d != 0)
    basis = []
    for j in range(r, A.cols):
        basis.append(_normalize_vector_sign([v[i][j] for i in range(A.cols)]))
    return basis


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteDecomposition:
    """Row-style Hermite normal form: the nonzero rows of H are a basis of
    the row lattice of A.

    H is in echelon form with positive pivots, entries above each pivot
    reduced into [0, pivot), and ``pivot_cols`` lists the pivot column of
    each nonzero row.
    """

    H: IntMatrix
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def _sparse(row: Sequence[int]) -> dict[int, int]:
    return {j: x for j, x in enumerate(row) if x}


def _axpy(row: dict[int, int], q: int, pivot_row: dict[int, int]) -> None:
    """row += q * pivot_row on sparse rows, in place; q must be nonzero."""
    for j, x in pivot_row.items():
        y = row.get(j, 0) + q * x
        if y:
            row[j] = y
        else:
            del row[j]


def _hnf_engine(m: list[dict[int, int]], cols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Row Hermite normal form of sparse rows, in place.

    Each row maps a column to its nonzero entry.  Column by column, Euclid
    runs down the column (pivot: the first row of least absolute value),
    then the entries above the pivot are reduced into [0, pivot).  Rows at
    or below the current pivot are zero left of the column, so a row
    operation is an ``_axpy`` over the pivot row's nonzero entries.
    Returns the rows (the nonzero ones first) and the pivot columns.
    """
    rows = len(m)
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # rows at or below r with a nonzero entry in column c, in order
        live = [i for i in range(r, rows) if c in m[i]]
        if not live:
            continue
        pi = min(live, key=lambda i: abs(m[i][c]))
        m[r], m[pi] = m[pi], m[r]
        if live[0] != r:
            # a row that is zero in column c went down to pi
            live = [r] + [i for i in live if i != pi]
        while True:
            mr = m[r]
            if mr[c] < 0:
                m[r] = mr = {j: -x for j, x in mr.items()}
            piv = mr[c]
            below = []
            for i in live[1:]:
                mi = m[i]
                _axpy(mi, -(mi[c] // piv), mr)
                if c in mi:
                    below.append(i)
            if not below:
                break
            live = [r] + below
            # Euclid: the least remainder is below the pivot
            pi = min(below, key=lambda i: abs(m[i][c]))
            m[r], m[pi] = m[pi], m[r]
        for i in range(r):
            mi = m[i]
            a = mi.get(c)
            if a:
                q = a // piv
                if q:
                    _axpy(mi, -q, mr)
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def hermite_normal_form(A: IntMatrix) -> HermiteDecomposition:
    """Row Hermite normal form."""
    m, pivots = _hnf_engine([_sparse(A.row(i)) for i in range(A.rows)], A.cols)
    return HermiteDecomposition(
        H=IntMatrix(A.rows, A.cols, tuple(row.get(j, 0) for row in m for j in range(A.cols))),
        pivot_cols=tuple(pivots),
    )


class LatticeBasis:
    """Hermite basis of the row lattice of a matrix, for membership tests.

    ``basis`` holds the nonzero Hermite rows, sparse (column -> nonzero
    entry), in the order of ``pivot_cols``.
    """

    def __init__(self, A: IntMatrix):
        self._reduce([_sparse(A.row(i)) for i in range(A.rows)], A.cols)

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int) -> "LatticeBasis":
        """Build from raw generator rows without IntMatrix overhead."""
        self = cls.__new__(cls)
        self._reduce([_sparse(row) for row in rows], cols)
        return self

    def _reduce(self, rows: list[dict[int, int]], cols: int) -> None:
        m, pivots = _hnf_engine(rows, cols)
        self.cols = cols
        self.pivot_cols = tuple(pivots)
        self.basis = m[: len(pivots)]
        self._by_pivot = dict(zip(pivots, self.basis))

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def contains(self, vector: Sequence[int]) -> bool:
        """Reduce the vector's leading entry against the basis row with that
        pivot until nothing is left; it fails at a non-pivot leading column
        or an entry the pivot does not divide."""
        if len(vector) != self.cols:
            raise MatrixFormatError("vector length does not match lattice ambient")
        w = _sparse(vector)
        while w:
            c = min(w)
            row = self._by_pivot.get(c)
            if row is None:
                return False
            q, rem = divmod(w[c], row[c])
            if rem:
                return False
            _axpy(w, -q, row)
        return True


# ---------------------------------------------------------------------------
# Elimination over an exact field
# ---------------------------------------------------------------------------

def _row_reduce(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over an exact field, by Gauss-Jordan.

    Entries are field elements supporting ``+``, ``-``, ``*``, ``1 / x`` and
    truth as "nonzero": ``Fraction``, ``ComplexRational`` or ``Cyclotomic``.
    Returns the reduced rows (a new list; the input is not modified) and the
    pivot column of each nonzero row, so the rank is the number of pivots.
    Kept private: it is a step inside the torsion, findim and resolution
    layers, not a layer of its own (perfbench traces public functions only).
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _canonical_torsion(values: Iterable[int]) -> tuple[int, ...]:
    """Rewrite a multiset of cyclic orders as an invariant-factor chain.

    Uses the primary decomposition: for each prime, the sorted exponent list
    is aligned so the largest invariant factor collects the largest power.
    """
    primary: dict[int, list[int]] = {}
    for v in values:
        v = int(v)
        if v < 1:
            raise ValueError(f"torsion order must be positive, got {v}")
        if v == 1:
            continue
        for p, e in _factorize(v).items():
            primary.setdefault(p, []).append(e)
    if not primary:
        return ()
    depth = max(len(es) for es in primary.values())
    chain = [1] * depth
    for p, es in primary.items():
        es.sort()
        for offset, e in enumerate(es):
            chain[depth - len(es) + offset] *= p ** e
    return tuple(chain)


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    Two values are equal exactly when the groups are isomorphic: the torsion
    chain is the canonical one (entries > 1, each dividing the next).
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.torsion:
            if not isinstance(d, int) or d <= 1:
                raise ValueError(f"torsion entry {d!r} must be an integer > 1")
            if prev is not None and d % prev:
                raise ValueError(f"torsion chain violated: {prev} does not divide {d}")
            prev = d

    @classmethod
    def from_parts(cls, free_rank: int, torsion: Iterable[int] = ()) -> "FgAbelianGroup":
        """Canonicalize arbitrary cyclic orders (1s allowed, any order)."""
        return cls(free_rank, _canonical_torsion(torsion))

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    def describe(self) -> str:
        """Human-readable form, e.g. "Z^2 + Z_2^3"."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        tor = self.torsion
        while i < len(tor):
            j = i
            while j < len(tor) and tor[j] == tor[i]:
                j += 1
            mult = j - i
            parts.append(f"Z_{tor[i]}" + (f"^{mult}" if mult > 1 else ""))
            i = j
        return " + ".join(parts) if parts else "0"


def fg_direct_sum(G: FgAbelianGroup, H: FgAbelianGroup) -> FgAbelianGroup:
    return FgAbelianGroup.from_parts(G.free_rank + H.free_rank, G.torsion + H.torsion)


def cokernel(A: IntMatrix) -> FgAbelianGroup:
    """ZZ^rows / (column span of A), in invariant-factor form."""
    factors = invariant_factors(A)
    r = sum(1 for d in factors if d != 0)
    return FgAbelianGroup(A.rows - r, tuple(d for d in factors if d > 1))
