"""Exact linear algebra.

Integer matrices, their Smith and row Hermite normal forms, integer
kernels, and finitely generated abelian groups in invariant-factor form, all
on Python's arbitrary-precision integers, so no operation can overflow.

``IntMatrix`` stores only sparse rows (a column maps to its nonzero
entry), since the matrices served are mostly zeros: a boundary row has 2
nonzeros in 2n columns.  Producers build the rows (``from_sparse``), and
one integer engine reads copies of them for every normal form:
``_hnf_engine``, a sparse, incremental row Hermite pass.  A pass run on
the rows augmented with I also returns its transform.  On top of it:

* the invariant factors alternate Hermite passes on the rows and on their
  transpose until each row has one entry, then turn that diagonal into a
  divisibility chain by pairwise gcd and lcm (Kannan and Bachem, SIAM J.
  Comput. 8, 1979); each pass reduces its rows, so entries stay bounded;
* ``smith_normal_form`` runs the same alternation on rows augmented with
  I, so U and V come out of the passes, and the 2x2 gcd/lcm step of the
  chain is applied to them too;
* ``kernel_basis`` reads the saturated kernel from one pass of [Aᵀ | I];
* ``FgAbelianGroup`` canonicalizes torsion by the same gcd/lcm chain.

One sparse, incremental reduced-echelon elimination serves every exact
field the library uses: rationals, Gaussian rationals and cyclotomic fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence


class MatrixFormatError(ValueError):
    """Malformed matrix data (shape mismatch or unparsable text)."""


class CertificateError(RuntimeError):
    """A certificate the library built failed its check; the message names
    the failing step and a witness."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Immutable integer matrix whose only storage is its sparse rows, each
    mapping a column to its nonzero entry; ``entries`` (row-major), ``row``,
    ``at`` and the rest are read off them.  Both constructors validate, so a
    matrix holds only integers: ``IntMatrix(rows, cols, entries)`` takes
    dense row-major entries, and ``from_sparse`` checks in O(nonzeros) that
    every column is in range and every entry a nonzero int.  Equality and
    hash do not depend on the constructor."""

    __slots__ = ("rows", "cols", "_data")

    def __new__(cls, rows: int, cols: int, entries: Sequence[int]):
        if rows >= 0 and cols >= 0 and len(entries) != rows * cols:
            raise MatrixFormatError(f"expected {rows * cols} entries, got {len(entries)}")
        # only the integer 0 is dropped, so from_sparse sees every non-integer
        return cls.from_sparse(rows, cols, (
            {j: x for j, x in enumerate(entries[i * cols : (i + 1) * cols]) if x != 0 or not isinstance(x, int)}
            for i in range(rows)
        ))

    @classmethod
    def from_sparse(cls, rows: int, cols: int, sparse_rows: Iterable[Mapping[int, int]]) -> "IntMatrix":
        """From ``rows`` sparse rows, each mapping a column to its nonzero
        entry; the rows are copied."""
        self = cls._of(rows, cols, tuple(dict(row) for row in sparse_rows))
        if len(self._data) != rows:
            raise MatrixFormatError(f"expected {rows} rows, got {len(self._data)}")
        for row in self._data:
            for j, x in row.items():
                if not (isinstance(j, int) and 0 <= j < cols and isinstance(x, int) and x):
                    raise MatrixFormatError(f"entry {x!r} at column {j!r} is not a nonzero integer in a column < {cols}")
        return self

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple[dict[int, int], ...]) -> "IntMatrix":
        """From sparse rows known to be valid and shared with nobody."""
        if rows < 0 or cols < 0:
            raise MatrixFormatError("matrix dimensions must be nonnegative")
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (rows, cols, data)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != m:
                raise MatrixFormatError("ragged rows")
        return cls._of(n, m, tuple({j: v for j, x in enumerate(r) if (v := int(x))} for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(n, n, tuple({i: 1} for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(rows, cols, tuple({} for _ in range(rows)))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._data)))

    def __repr__(self):
        return f"IntMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries})"

    @property
    def entries(self) -> tuple[int, ...]:
        """The entries, row-major."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def at(self, i: int, j: int) -> int:
        return self._data[i].get(j, 0)

    def row(self, i: int) -> tuple[int, ...]:
        row = self._data[i]
        return tuple(row.get(j, 0) for j in range(self.cols))

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixFormatError("incompatible shapes for product")
        out = []
        for row in self._data:
            acc: dict[int, int] = {}
            for k, x in row.items():
                _axpy(acc, x, other._data[k])
            out.append(acc)
        return IntMatrix._of(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise MatrixFormatError("vector length does not match column count")
        return tuple(sum(x * vector[j] for j, x in row.items()) for row in self._data)

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
        if len(body) != rows * cols:
            raise MatrixFormatError(
                f"expected {rows * cols} entries after header, got {len(body)}"
            )
        return cls(rows, cols, body)


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


def _sparse(vector: Sequence[int]) -> dict[int, int]:
    return {j: x for j, x in enumerate(vector) if x}


def _sparse_rows(A: IntMatrix) -> list[dict[int, int]]:
    """Copies of the stored rows of A: the engines modify their input rows
    in place, and A must not change."""
    return [dict(row) for row in A._data]


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

    The engine records no transform.  A caller that needs one runs it on
    the rows augmented with I (``_hermite_pass``): the I block of each
    result row is the combination of input rows that made it, and is
    reduced with the rest, so it stays bounded too.
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


def hermite_normal_form(A: IntMatrix) -> HermiteDecomposition:
    """Row Hermite normal form."""
    basis, pivots = _hnf_engine(_sparse_rows(A))
    zero_rows = tuple({} for _ in range(A.rows - len(basis)))
    return HermiteDecomposition(H=IntMatrix._of(A.rows, A.cols, tuple(basis) + zero_rows), pivot_cols=tuple(pivots))


class LatticeBasis:
    """Hermite basis of the row lattice of a matrix, for membership tests.

    ``basis`` holds the nonzero Hermite rows, sparse (column -> nonzero
    entry), in the order of ``pivot_cols``.
    """

    def __init__(self, A: IntMatrix):
        self.basis, pivots = _hnf_engine(_sparse_rows(A))
        self.cols = A.cols
        self.pivot_cols = tuple(pivots)
        self._by_pivot = dict(zip(pivots, self.basis))

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int) -> "LatticeBasis":
        """Build from generator rows of length ``cols``."""
        return cls(IntMatrix.from_sparse(len(rows), cols, (_sparse(row) for row in rows)))

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
# Smith normal form, invariant factors and kernels
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


def _transpose(rows: Sequence[dict[int, int]], cols: int) -> list[dict[int, int]]:
    """The sparse rows of the transpose of a matrix with ``cols`` columns."""
    out: list[dict[int, int]] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _hermite_pass(rows, width, track):
    """One Hermite pass of sparse rows with ``width`` columns.

    Without ``track`` this is ``_hnf_engine``: the nonzero Hermite rows.
    With ``track`` (one sparse row per row, independent, say those of I)
    the pass runs on [rows | track] and splits each result row back into its
    two blocks.  The track block then holds the row operations applied, and
    a row whose first block is zero is kept, with the track row that makes
    it zero.  Returns the two lists of blocks (the second None untracked).
    """
    if track is None:
        return _hnf_engine(rows)[0], None
    basis, _ = _hnf_engine({**row, **{width + j: x for j, x in t.items()}} for row, t in zip(rows, track))
    return (
        [{j: x for j, x in row.items() if j < width} for row in basis],
        [{j - width: x for j, x in row.items() if j >= width} for row in basis],
    )


def _diagonalize(rows, cols, u=None, vt=None):
    """Entries (i, j, d), d > 0, at most one in each row and each column, of
    a matrix equivalent to the one with sparse ``rows`` and ``cols`` columns.

    Row Hermite passes alternate on the rows and on their transpose until
    each row has at most one entry (Kannan and Bachem, SIAM J. Comput. 8,
    1979).  Each pass leaves its rows reduced, so the entries stay those of
    a Hermite form instead of exploding as in min-pivot Smith.  With ``u``
    and ``vt`` (the sparse rows of the identity on either side) each pass
    carries them along, and returns them with u · A · vtᵀ equal to the
    matrix of the entries.  Without them zero rows are dropped on the way,
    and only the d carry meaning.

    Termination.  Let p be the leading pivot after a pass, at (0, c).  The
    next pass runs on the transpose, whose first nonzero row is column c of
    the Hermite form and holds p alone, so the new leading pivot is the gcd
    of p's row: it never grows.  It stays p only when p divides its whole
    row, and then the pass reduces that row to p alone, while column 0 of a
    Hermite form holds only its pivot: p's row and column are clear.  A
    clear row {0: p} is the leading row of every later pass and meets no
    other row, so the passes go on as on the matrix without it.  The
    leading pivot thus strictly shrinks unless its row and column are
    already clear, and by induction on the rows every row ends with at most
    one entry.
    """
    flipped = False
    while True:
        rows, u = _hermite_pass(rows, cols, u)
        if all(len(row) <= 1 for row in rows):
            break
        rows, cols = _transpose(rows, cols), len(rows)
        u, vt, flipped = vt, u, not flipped
    entries = [(i, j, d) for i, row in enumerate(rows) for j, d in row.items()]
    if flipped:
        return [(j, i, d) for i, j, d in entries], vt, u
    return entries, u, vt


def _mix(rows: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    """Dense rows i, j <- a row_i + b row_j, c row_i + d row_j, in place."""
    ri, rj = rows[i], rows[j]
    rows[i] = [a * x + b * y for x, y in zip(ri, rj)]
    rows[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _chain(d: list[int], u=None, vt=None) -> None:
    """Turn a diagonal of positive integers into a divisibility chain, in
    place.

    Each pair i < j with d_i ∤ d_j takes the 2x2 step
    [[s, t], [-b/g, a/g]] · diag(a, b) · [[1, -tb/g], [1, sa/g]]
    = diag(g, ab/g), where a = d_i, b = d_j and g = s a + t b = gcd(a, b);
    both factors have determinant (s a + t b)/g = 1.  With dense ``u`` and
    ``vt`` the left factor acts on rows i, j of u, the right one on columns
    i, j of V, which are rows i, j of vt.  Once d_i has met every later d_j
    it divides them all, and later steps replace two multiples of d_i by
    their gcd and lcm, which are multiples of d_i again.
    """
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g, s, t = _xgcd(a, b)
                d[i], d[j] = g, a // g * b
                if u is not None:
                    _mix(u, i, j, s, t, -(b // g), a // g)
                    _mix(vt, i, j, 1, 1, -(t * b // g), s * a // g)


def _leading(rows: list[dict[int, int]], first: list[int]) -> list[list[int]]:
    """The square sparse rows as dense rows: those indexed by ``first`` in
    that order, then the rest."""
    n = len(rows)
    taken = set(first)
    order = first + [i for i in range(n) if i not in taken]
    return [[rows[i].get(j, 0) for j in range(n)] for i in order]


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation matrices.

    ``_diagonalize`` carries U and V through its Hermite passes; the rows
    of U and the columns of V are then permuted so the k-th entry sits at
    (k, k), and ``_chain`` turns the diagonal into a divisibility chain.
    U @ A @ V = S exactly, |det U| = |det V| = 1, and the diagonal of S is
    a nonnegative divisibility chain.  Empty matrices are allowed.
    """
    m, n = A.rows, A.cols
    entries, u, vt = _diagonalize(
        _sparse_rows(A), n, [{i: 1} for i in range(m)], [{j: 1} for j in range(n)]
    )
    u = _leading(u, [i for i, _, _ in entries])
    vt = _leading(vt, [j for _, j, _ in entries])
    d = [x for _, _, x in entries]
    _chain(d, u, vt)
    return SmithDecomposition(
        S=IntMatrix._of(m, n, tuple({i: d[i]} if i < len(d) else {} for i in range(m))),
        U=IntMatrix.from_rows(u),
        V=IntMatrix.from_rows(list(zip(*vt))),
        invariant_factors=tuple(d) + (0,) * (min(m, n) - len(d)),
    )


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """Invariant factors only, padded with zeros to min(rows, cols): the
    Smith diagonal without U and V, so zero rows can be dropped."""
    d = [x for _, _, x in _diagonalize(_sparse_rows(A), A.cols)[0]]
    _chain(d)
    return tuple(d) + (0,) * (min(A.rows, A.cols) - len(d))


def kernel_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Lattice basis of {x : A x = 0}, from one Hermite pass of [Aᵀ | I].

    The pass gives W · [Aᵀ | I] = [W Aᵀ | W] with W unimodular, and the row
    vector x has x Aᵀ = 0 exactly when A x = 0.  So a row whose Aᵀ block is
    zero, that is a row whose pivot lies in the I block, has its I block in
    the kernel.  Those rows span the whole (saturated) kernel lattice: a
    kernel vector is c W for an integer c, and the rows of W Aᵀ that are
    nonzero are in echelon form, hence independent, so c vanishes on them.
    Each vector's first nonzero coordinate is its Hermite pivot, so it is
    positive.
    """
    blocks, track = _hermite_pass(
        _transpose(_sparse_rows(A), A.cols), A.rows, [{j: 1} for j in range(A.cols)]
    )
    return [tuple(t.get(j, 0) for j in range(A.cols)) for h, t in zip(blocks, track) if not h]


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

def _canonical_torsion(values: Iterable[int]) -> tuple[int, ...]:
    """Rewrite a multiset of cyclic orders as an invariant-factor chain.

    Z_a + Z_b is Z_g + Z_(ab/g) with g = gcd(a, b), the 2x2 step that
    ``_chain`` takes on a Smith diagonal, so the chain is the Smith form of
    the diagonal matrix of the orders, which is unique.  Nothing is
    factored, so the cost does not depend on the size of the primes.
    """
    orders = []
    for v in values:
        v = int(v)
        if v < 1:
            raise ValueError(f"torsion order must be positive, got {v}")
        if v > 1:
            orders.append(v)
    _chain(orders)
    return tuple(d for d in orders if d > 1)


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

