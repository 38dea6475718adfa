"""Exact linear algebra.

Integer matrices, their Smith and row Hermite normal forms, integer kernels
and cokernels, and finitely generated abelian groups in invariant-factor
form, all on Python's arbitrary-precision integers, so no operation can
overflow.

The Hermite engine and the lattice membership test work on sparse rows
(column -> nonzero entry), since the lattices they serve are mostly zeros.
Rank, kernel and invariant factors all start from that Hermite pass: its r
nonzero rows H (r the rank) span the row lattice of A, so they have A's
kernel and A's nonzero invariant factors.  The invariant factors come from
Smith on H modulo the product of its pivots, which bounds every entry
(Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987); the kernel from the
V transform of Smith on H.  Min-pivot Smith on a whole matrix, whose entries
can explode (Kannan and Bachem, SIAM J. Comput. 8, 1979), is left to
``smith_normal_form``, which alone returns U and V.

One sparse, incremental reduced-echelon elimination serves every exact
field the library uses: rationals, Gaussian rationals and cyclotomic fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence


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


def _smith_engine(data, rows, cols, want_u, want_v, modulus=0):
    """Diagonalize ``data`` in place by unimodular operations.

    Pivots are chosen with minimal absolute value in the working submatrix.
    Each accepted pivot is made to divide every entry of the remaining
    submatrix, so the diagonal is already a divisibility chain when the loop
    ends.

    With a nonzero ``modulus`` D (and entries given in [0, D)) every row
    operation is followed by reduction into [0, D).  That is Smith on the
    lattice spanned by the rows and D Z^cols, so entries never reach D; the
    diagonal entries s_i then satisfy gcd(s_i, D) | gcd(s_(i+1), D).  U and
    V are not tracked in this mode.

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
                    if modulus:
                        for j2 in range(t, cols):
                            mi[j2] = (mi[j2] - q * mt[j2]) % modulus
                    else:
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
                            # row t is zero right of the pivot, so the sum
                            # stays in [0, modulus)
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
    """Invariant factors only, padded with zeros to min(rows, cols).

    The Hermite rows H of A (r of them, r the rank) have the same nonzero
    invariant factors, since row operations are unimodular.  The product D
    of their pivots is a nonzero r x r minor of H, so d_1 ... d_r divides D,
    and Smith on H modulo D gives d_i = gcd(s_i, D) with every entry below D.
    """
    h, pivots = _hermite_rows(A)
    r = len(pivots)
    modulus = math.prod(row[c] for row, c in zip(h, pivots))
    h = [[x % modulus for x in row] for row in h]
    _, _, _, diagonal = _smith_engine(h, r, A.cols, False, False, modulus)
    return tuple(math.gcd(s, modulus) for s in diagonal) + (0,) * (min(A.rows, A.cols) - r)


def _normalize_vector_sign(vec: list[int]) -> tuple[int, ...]:
    for x in vec:
        if x:
            if x < 0:
                return tuple(-y for y in vec)
            break
    return tuple(vec)


def kernel_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Lattice basis of {x : A x = 0}.

    A and its Hermite rows H have the same kernel.  The returned vectors are
    the columns of V beyond the rank r in the Smith form of the r x cols
    matrix H, so they span the full (saturated) kernel lattice.  Each vector
    is normalized so its first nonzero coordinate is positive.
    """
    h, pivots = _hermite_rows(A)
    r = len(pivots)
    _, _, v, _ = _smith_engine(h, r, A.cols, False, True)
    return [_normalize_vector_sign([v[i][j] for i in range(A.cols)]) for j in range(r, A.cols)]


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


def _axpy(row: dict, q, pivot_row: dict) -> None:
    """row += q * pivot_row on sparse rows, in place; q must be nonzero.
    Entries are integers or elements of a field, where q * x != 0."""
    for j, x in pivot_row.items():
        if j in row:
            y = row[j] + q * x
            if y:
                row[j] = y
            else:
                del row[j]
        else:
            row[j] = q * x


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b; b must be positive."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _combine(s: int, u: dict[int, int], t: int, w: dict[int, int]) -> dict[int, int]:
    """s * u + t * w on sparse rows, as a new row; s must be nonzero."""
    out = {j: s * x for j, x in u.items()}
    if t:
        _axpy(out, t, w)
    return out


def _hnf_engine(rows: Iterable[dict[int, int]]) -> tuple[list[dict[int, int]], list[int]]:
    """Row Hermite normal form of sparse rows.

    Each row maps a column to its nonzero entry.  The rows go one at a time
    into a basis that is kept in Hermite form throughout: positive pivots,
    and every entry at another row's pivot column reduced into [0, pivot).
    A row is reduced at its leading column against the basis row with that
    pivot; where the pivot does not divide it, an extended-gcd step makes
    the gcd the pivot and leaves the row zero there.  Keeping the basis
    reduced bounds its entries by those of the Hermite form of the rows
    seen so far, whereas Euclid run down whole columns grows them by tens
    of bits a column on boundary matrices with large blocks.
    Returns the basis rows in pivot order and their pivot columns.
    """
    basis: dict[int, dict[int, int]] = {}

    def reduce_at(row: dict[int, int], todo: list[int]) -> None:
        """Reduce row at the pivot columns in todo, and at those the steps
        reach, into [0, pivot), left to right: reducing at pivot p changes
        only columns right of p."""
        heapify(todo)
        done = -1
        while todo:
            p = heappop(todo)
            if p == done or p not in row:
                continue
            done = p
            pivot_row = basis[p]
            q = row[p] // pivot_row[p]
            if q:
                _axpy(row, -q, pivot_row)
                for j in pivot_row:
                    if j > p and j in basis:
                        heappush(todo, j)

    def install(c: int, row: dict[int, int]) -> None:
        basis[c] = row
        reduce_at(row, [j for j in row if j > c and j in basis])
        # subtracting row changes another row's pivot columns right of c
        # only where row has entries
        touched = [j for j in row if j > c and j in basis]
        piv = row[c]
        for other in [other for p, other in basis.items() if p < c and c in other]:
            q = other[c] // piv
            if q:
                _axpy(other, -q, row)
                if touched:
                    reduce_at(other, list(touched))

    for v in rows:
        while v:
            c = min(v)
            pivot_row = basis.get(c)
            if pivot_row is None:
                if v[c] < 0:
                    v = {j: -x for j, x in v.items()}
                install(c, v)
                break
            a, piv = v[c], pivot_row[c]
            q, rem = divmod(a, piv)
            if not rem:
                _axpy(v, -q, pivot_row)
                continue
            # (v, pivot_row) -> (piv/g v - a/g pivot_row, s v + t pivot_row)
            # is unimodular; the second has pivot g, the first is zero at c
            g, s, t = _xgcd(a, piv)
            v, new_pivot_row = _combine(piv // g, v, -(a // g), pivot_row), _combine(s, v, t, pivot_row)
            install(c, new_pivot_row)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def _hermite_rows(A: IntMatrix) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the row Hermite form of A, dense, and their
    pivot columns."""
    basis, pivots = _hnf_engine(_sparse(A.row(i)) for i in range(A.rows))
    return [[row.get(j, 0) for j in range(A.cols)] for row in basis], pivots


def hermite_normal_form(A: IntMatrix) -> HermiteDecomposition:
    """Row Hermite normal form."""
    h, pivots = _hermite_rows(A)
    zero_rows = (0,) * ((A.rows - len(h)) * A.cols)
    return HermiteDecomposition(
        H=IntMatrix(A.rows, A.cols, tuple(x for row in h for x in row) + zero_rows),
        pivot_cols=tuple(pivots),
    )


class LatticeBasis:
    """Hermite basis of the row lattice of a matrix, for membership tests.

    ``basis`` holds the nonzero Hermite rows, sparse (column -> nonzero
    entry), in the order of ``pivot_cols``.
    """

    def __init__(self, A: IntMatrix):
        self._reduce((_sparse(A.row(i)) for i in range(A.rows)), A.cols)

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int) -> "LatticeBasis":
        """Build from raw generator rows without IntMatrix overhead."""
        self = cls.__new__(cls)
        self._reduce((_sparse(row) for row in rows), cols)
        return self

    def _reduce(self, rows: Iterable[dict[int, int]], cols: int) -> None:
        self.basis, pivots = _hnf_engine(rows)
        self.cols = cols
        self.pivot_cols = tuple(pivots)
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

class _Echelon:
    """Reduced row echelon basis over an exact field, grown one row at a time.

    Entries are field elements supporting ``+``, ``-``, ``*``, ``1 / x`` and
    truth as "nonzero": ``Fraction``, ``ComplexRational`` or ``Cyclotomic``.
    Rows are sparse (column -> entry).  ``rows`` maps each pivot column to
    its row, which is 1 there and has no entry at any other pivot column.
    This is the integer ``_hnf_engine`` with field division in place of the
    extended gcd, and the same invariant: a new row is reduced at the pivot
    columns it meets, and if anything is left, its leading column becomes a
    pivot and is cleared from the other rows.  Clearing adds multiples of a
    row that starts right of every pivot it touches, so each row keeps its
    leading column, and the basis stays the reduced echelon form of the rows
    seen so far.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    def insert(self, row: Mapping) -> bool:
        """Add a row (zero entries allowed, the argument is not modified);
        True when the rank rose."""
        rows = self.rows
        v = {j: x for j, x in row.items() if x}
        # rows[p] has no entry at another pivot, so v[p] is fixed once read
        for p in [p for p in v if p in rows]:
            _axpy(v, -v[p], rows[p])
        if not v:
            return False
        c = min(v)
        inv = 1 / v[c]
        v = {j: x * inv for j, x in v.items()}
        for other in rows.values():
            f = other.get(c)
            if f is not None:
                _axpy(other, -f, v)
        rows[c] = v
        return True


def _row_reduce(rows: Iterable[Mapping]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over an exact field, of sparse rows.

    Returns the nonzero reduced rows, sparse and in pivot order, and their
    pivot columns, so the rank is the number of pivots.  The reduced echelon
    form is unique, so it depends only on the row space.  Kept private: it
    is a step inside the torsion, findim and resolution layers, not a layer
    of its own (perfbench traces public functions only).
    """
    echelon = _Echelon()
    for row in rows:
        echelon.insert(row)
    pivots = sorted(echelon.rows)
    return [echelon.rows[c] for c in pivots], pivots


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
