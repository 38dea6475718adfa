"""The length-one resolution attached to a multi-matrix algebra.

For block sizes k = (k_1, ..., k_n) the complex has modules of rank n + 1 on
both sides, over the fusion ring Z[t] of `qautk.repring` with its
half-integral module t^(1/2) Z[t].  Both test objects, the trivial object
("C") and the algebra itself ("A"), induce the same matrix

    d1 = [[s I_n, -k], [-k^T, s]],        s = [V(1/2)] = t^(1/2),

and differ only in their source generators: (1, ..., 1, s) for "C" and
(s, ..., s, 1) for "A".  Entry (i, j) is stored as the ring product
d1_ij * g_j, so the "t" entries are the contraction s * s = t computed by
`RepRingElement.multiply`, and the parity of each target summand is read off
its row.  Counting the half-integral generator t^(1/2) as degree zero, every
entry is a plain integral polynomial, and an evaluation map sends the target
onto Z or Z^n.

The t-action on the evaluation target is never assumed: it is derived as the
unique solution of the zero-composition constraint d0 (o) d1 = 0, and the
closed forms (sum of k_i^2, respectively k k^T) are checked in the test
suite, not baked in here.

Exactness is proved over Z[t], so in every degree at once, from a finite
certificate (``check_exactness``); the check on degree truncations is kept
in the test suite as the second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dims import DimVector
from .exact_linalg import IntMatrix, _row_reduce
from .repring import HALF_INTEGRAL, INTEGRAL, RepRingElement

TEST_TRIVIAL = "C"
TEST_ALGEBRA = "A"
TEST_OBJECTS = (TEST_TRIVIAL, TEST_ALGEBRA)

DEFAULT_DEGREE_BOUND = 12


class InconsistentComplexError(ValueError):
    """No t-action makes the composite zero: the construction is broken."""


# d1 as rows of fusion-ring elements; rows are target summands (slots),
# columns are source summands
Matrix = tuple[tuple[RepRingElement, ...], ...]

_S = RepRingElement.t_power(0, HALF_INTEGRAL)  # s = [V(1/2)] = t^(1/2)
_ONE = RepRingElement.one()
_ZERO = RepRingElement.zero()


@dataclass(frozen=True)
class EvaluationMap:
    """Evaluation of the target-side module onto Z^target_rank.

    ``slot_images`` sends the degree-zero generator of each summand (1, or
    t^(1/2) for a half-integral summand) to an integer vector; the basis
    element of degree m in a summand maps to t_action^m applied to that image.
    """

    target_rank: int
    slot_images: tuple[tuple[int, ...], ...]
    t_action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        r = self.target_rank
        if len(self.t_action) != r or any(len(row) != r for row in self.t_action):
            raise ValueError("t_action must be a square matrix of the target rank")
        for img in self.slot_images:
            if len(img) != r:
                raise ValueError("slot image has wrong length")

    def t_power_images(self, slot: int, max_degree: int) -> list[tuple[int, ...]]:
        """Images of the slot's basis elements of degree 0..max_degree."""
        out = [tuple(self.slot_images[slot])]
        t = self.t_action
        r = self.target_rank
        for _ in range(max_degree):
            prev = out[-1]
            out.append(
                tuple(sum(t[i][j] * prev[j] for j in range(r)) for i in range(r))
            )
        return out

    def evaluate(self, polys: Sequence[RepRingElement]) -> tuple[int, ...]:
        """Apply to a vector of fusion-ring elements, one per slot."""
        if len(polys) != len(self.slot_images):
            raise ValueError("one polynomial per slot required")
        acc = [0] * self.target_rank
        for slot, poly in enumerate(polys):
            if poly.is_zero():
                continue
            powers = self.t_power_images(slot, poly.degree)
            for m, c in poly.coefficients:
                img = powers[m]
                for i in range(self.target_rank):
                    acc[i] += c * img[i]
        return tuple(acc)


@dataclass(frozen=True)
class ExactnessReport:
    """Certificate for the complex over Z[t]; see ``check_exactness``."""

    dims: DimVector
    test_object: str
    degree_bound: int
    d1_injective: bool
    # (degree, slot), degree 0 or 1, of the first Z[t]-module generator of
    # ker d0 without a certified preimage under d1; None when it is covered
    uncovered: tuple[int, int] | None
    d0_surjective: bool
    warnings: tuple[str, ...]

    @property
    def certified_degree(self) -> int:
        return self.degree_bound - 1

    @property
    def kernel_covered(self) -> bool:
        return self.uncovered is None

    @property
    def exact(self) -> bool:
        return self.d1_injective and self.kernel_covered and self.d0_surjective

    @property
    def all_degrees(self) -> bool:
        """Exact in every degree, not only up to ``certified_degree``: the
        certificate is over Z[t]."""
        return self.exact


def _check_test_object(test_object: str) -> None:
    if test_object not in TEST_OBJECTS:
        raise ValueError(f"test object must be one of {TEST_OBJECTS}, got {test_object!r}")


def _source_generators(n: int, test_object: str) -> tuple[RepRingElement, ...]:
    if test_object == TEST_TRIVIAL:
        return (_ONE,) * n + (_S,)
    return (_S,) * n + (_ONE,)


def _differential(k: DimVector) -> Matrix:
    """[[s I_n, -k], [-k^T, s]], shared by both test objects."""
    n = k.n
    neg = [RepRingElement.from_dict(INTEGRAL, {0: -x}) for x in k]
    rows = [tuple(_S if i == j else _ZERO for j in range(n)) + (neg[i],) for i in range(n)]
    rows.append(tuple(neg) + (_S,))
    return tuple(rows)


def _d1_matrix(k: DimVector, test_object: str) -> Matrix:
    """d1 on the test object's source generators: entry (i, j) is d1_ij * g_j."""
    gens = _source_generators(k.n, test_object)
    return tuple(tuple(d.multiply(g) for d, g in zip(row, gens)) for row in _differential(k))


def _row_parities(d1: Matrix) -> tuple[str | None, ...]:
    """Parity of each target summand, read off the nonzero entries of its
    row (None for a zero row)."""
    out = []
    for i, row in enumerate(d1):
        parities = {e.parity for e in row if not e.is_zero()}
        if len(parities) > 1:
            raise InconsistentComplexError(f"row {i} of d1 mixes integral and half-integral entries")
        out.append(parities.pop() if parities else None)
    return tuple(out)


def _slot_images(k: DimVector, test_object: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    n = k.n
    if test_object == TEST_TRIVIAL:
        images = tuple((k[j],) for j in range(n)) + ((1,),)
        return images, 1
    images = tuple(
        tuple(1 if i == j else 0 for i in range(n)) for j in range(n)
    ) + (tuple(k),)
    return images, n


def _solve_t_action(d1: Matrix, images, r: int) -> list[list[int]]:
    """Rows of the unique integer T with a + T b = 0 on every column of d1,
    where a and b are the evaluated degree-0 and degree-1 parts.

    Transposed, the constraints read b^T T^T = -a^T: one row [b | -a] per
    column, r unknowns and r right-hand sides, so column i of the reduced
    right-hand side is row i of T.
    """
    _row_parities(d1)  # raises on a row of mixed parity
    system: list[list[Fraction]] = []
    for s in range(len(d1[0])):
        a = [0] * r
        b = [0] * r
        for row, img in zip(d1, images):
            for q, c in row[s].coefficients:
                if q > 1:
                    raise InconsistentComplexError("matrix entries must have degree <= 1")
                part = b if q else a
                for i in range(r):
                    part[i] += c * img[i]
        system.append(dict(enumerate([Fraction(x) for x in b] + [Fraction(-x) for x in a])))
    reduced, pivots = _row_reduce(system)
    if pivots and pivots[-1] >= r:
        raise InconsistentComplexError("zero-composition constraints are inconsistent")
    if len(pivots) != r:
        raise InconsistentComplexError("t-action is not determined by the constraints")
    t = [[reduced[j].get(r + i, Fraction(0)) for j in range(r)] for i in range(r)]
    for x in (x for row in t for x in row):
        if x.denominator != 1:
            raise InconsistentComplexError(f"t-action entry {x} is not an integer")
    return [[int(x) for x in row] for row in t]


def derive_t_action(k: DimVector, test_object: str):
    """The unique t-action on the evaluation target making d0 o d1 = 0.

    Returns an integer scalar for the trivial test object and an IntMatrix
    for the algebra test object.  Raises InconsistentComplexError when the
    constraints have no (or no unique) solution, or when a row of d1 mixes
    parities.
    """
    _check_test_object(test_object)
    images, r = _slot_images(k, test_object)
    matrix = _solve_t_action(_d1_matrix(k, test_object), images, r)
    if test_object == TEST_TRIVIAL:
        return matrix[0][0]
    return IntMatrix.from_rows(matrix)


def build_complex(k: DimVector, test_object: str) -> tuple[Matrix, EvaluationMap]:
    """Construct d1 and the evaluation map d0, with the t-action derived
    from the zero-composition constraint and re-verified exactly."""
    _check_test_object(test_object)
    d1 = _d1_matrix(k, test_object)
    images, r = _slot_images(k, test_object)
    t_rows = tuple(tuple(row) for row in _solve_t_action(d1, images, r))
    ev = EvaluationMap(target_rank=r, slot_images=images, t_action=t_rows)
    for s in range(len(d1[0])):
        if any(ev.evaluate([row[s] for row in d1])):
            raise InconsistentComplexError(
                f"composite d0 o d1 is nonzero on source slot {s}"
            )
    return d1, ev


# ---------------------------------------------------------------------------
# Exactness over Z[t], from a finite certificate
# ---------------------------------------------------------------------------

def _column_terms(d1: Matrix) -> list[list[tuple[int, int]]]:
    """Per source column, its (target position at source degree 0,
    coefficient) pairs; the position of slot i in degree q is q * rows + i."""
    nrows = len(d1)
    return [
        [(q * nrows + slot, c) for slot, row in enumerate(d1) for q, c in row[s].coefficients]
        for s in range(len(d1[0]))
    ]


def _truncated_d1_columns(d1: Matrix, degree: int) -> list[list[int]]:
    """Columns of the truncated map, as dense integer vectors.

    Source coordinates run over degrees 0..degree, target coordinates over
    degrees 0..degree+1; index order is degree-major.
    """
    nrows = len(d1)
    tgt_len = (degree + 2) * nrows
    terms = _column_terms(d1)
    cols = []
    for m in range(degree + 1):
        shift = m * nrows
        for column in terms:
            vec = [0] * tgt_len
            for pos, c in column:
                vec[shift + pos] += c
            cols.append(vec)
    return cols


def _unit_slots(ev: EvaluationMap) -> list[int]:
    """For each target coordinate i, the first slot whose degree-0 image is
    the unit vector e_i."""
    units: dict[int, int] = {}
    for s, img in enumerate(ev.slot_images):
        support = [i for i, x in enumerate(img) if x]
        if len(support) == 1 and img[support[0]] == 1:
            units.setdefault(support[0], s)
    for i in range(ev.target_rank):
        if i not in units:
            raise InconsistentComplexError(f"no slot evaluates to the unit vector e_{i}")
    return [units[i] for i in range(ev.target_rank)]


def _shift_kernel_basis(ev: EvaluationMap, degree: int) -> list[tuple[tuple[int, int], list[int]]]:
    """A lattice basis of the kernel of d0 on degrees 0..degree.

    Write e_{s,m} for the basis element of slot s in degree m, which d0 sends
    to T^m img_s, and p(i) for the unit slot of coordinate i (img_p(i) = e_i,
    see ``_unit_slots``).  The basis is

        e_{s,0} - sum_i img_s[i] e_{p(i),0}           for s not a unit slot,
        e_{s,m} - sum_i (T img_s)[i] e_{p(i),m-1}     for every s, 1 <= m <= degree.

    Each lies in ker d0: d0 sends the first form to img_s - img_s = 0 and the
    second to T^m img_s - T^(m-1) (T img_s) = 0.  Call (s, m)
    the lead of its vector; the leads are every coordinate except the r
    coordinates (p(i), 0), and each vector is 1 at its lead and otherwise
    nonzero only in degree m - 1 or at the (p(i), 0).  Given x in ker d0,
    subtract x_{s,m} times the vector with lead (s, m), from the top degree
    down; no later step changes a lead already cleared, so what is left is
    y = sum_i y_i e_{p(i),0} with 0 = d0 y = (y_i), so y = 0.  Hence every
    kernel element is an integer combination of these vectors, which are
    independent because they are unitriangular on their leads: a basis of
    the whole saturated kernel, with (degree + 1)(n + 1) - r vectors.

    The vector with lead (s, m) is t^(m-1) times the one with lead (s, 1),
    so the 2(n + 1) - r vectors of ``_shift_kernel_basis(ev, 1)`` generate
    ker d0 as a Z[t]-module, in every degree.

    Returns ((degree, slot), vector) pairs, degree-major, each vector dense
    of length (degree + 1)(n + 1) with slot s of degree m at m (n + 1) + s.
    Raises InconsistentComplexError when some coordinate has no unit slot.
    """
    units = _unit_slots(ev)
    nslots = len(ev.slot_images)
    shifted = [ev.t_power_images(s, 1)[1] for s in range(nslots)]
    out = []
    for m in range(degree + 1):
        for s in range(nslots):
            if m == 0 and s in units:
                continue
            coeffs, base = (ev.slot_images[s], 0) if m == 0 else (shifted[s], (m - 1) * nslots)
            vec = [0] * ((degree + 1) * nslots)
            vec[m * nslots + s] = 1
            for i, c in enumerate(coeffs):
                vec[base + units[i]] -= c
            out.append(((m, s), vec))
    return out


def _d1_injective(d1: Matrix) -> bool:
    """True when d1, a matrix of integer polynomials of degree <= 1 in t
    (t^(1/2) counting as degree 0), is injective over Z[t].

    Let c be the number of columns.  If d1(t0) has rank c over Q for an
    integer t0, d1 is injective: from d1 x = 0 with x != 0, divide x by the
    highest power of (t - t0) that divides all its entries; then x(t0) != 0
    and d1(t0) x(t0) = 0.  Conversely, if d1 is injective, it has rank c
    over Q(t) (a kernel vector over Q(t) times a common denominator is one
    over Z[t]), so some c x c minor is a nonzero polynomial of degree <= c,
    which vanishes at no more than c integers: d1(t0) has rank c for one of
    t0 = c, c - 1, ..., 0.  For the square d1 of the complex, c = n + 1 and the
    minor is det d1.
    """
    ncols = len(d1[0])
    # downwards: t = 0 is a root of det d1 for "A" when n >= 2
    for t0 in range(ncols, -1, -1):
        rows = (
            {j: Fraction(sum(c * t0 ** q for q, c in e.coefficients)) for j, e in enumerate(row)}
            for row in d1
        )
        if len(_row_reduce(rows)[1]) == ncols:
            return True
    return False


def _solve_preimages(d1: Matrix, targets: list[list[int]]) -> list[list[int]]:
    """For each target g, an integer candidate x for d1 x = g in the
    degree-2 truncation, by back-substitution on the unit leads of the
    columns of ``_truncated_d1_columns(d1, 2)``, with no division.  Targets
    are dense over degrees 0 and 1, candidates over degrees 0..2, both
    degree-major (slot i of degree m at m * rows + i); the caller certifies
    every x by ``_is_preimage``.

    The lead of column (m, s) is the diagonal entry d1_ss = t^q, at target
    (m + q, s): for "C", d1 = [[I, -k], [-k^T, t]], the coefficient-1 s of
    each column j < n and t for the corner; for "A", d1 = [[t I, -k],
    [-k^T, 1]], t for each column j < n and s for the corner.  Order the
    columns degree-major, those with q = 0 first in each degree: the corner
    last for "C" and first for "A".  Then the truncated d1 is unitriangular
    on the leads, in every degree: the lead of a column is met by no column
    before it.  For "C", the lead (m, j) of column j < n is met only by
    (m, j) and the corner (m, n), and the corner's lead (m + 1, n) only by
    (m, n) and the (m + 1, j).  For "A", the corner's lead (m, n) is met
    only by (m, n) and the (m, j), and the lead (m + 1, j) only by (m, j)
    and (m + 1, n).  So x, filled from the last column to the first with
    the residual of g at each lead, is the only solution of the lead rows:
    every preimage of g in the truncation is x, and the truncation is
    injective.  A column whose lead is not 1, which only a corrupted d1
    has, leaves its unknown at 0, and ``_is_preimage`` refuses the result.
    """
    cols = _truncated_d1_columns(d1, 2)
    nrows = len(d1)
    leads = []  # (order, unknown, lead position) of columns with a unit lead
    for u, col in enumerate(cols):
        m, s = divmod(u, nrows)
        q = d1[s][s].degree
        lead = (m + q) * nrows + s
        if q >= 0 and col[lead] == 1:
            leads.append(((m, q, s), u, lead))
    leads.sort(reverse=True)
    sparse = [{i: c for i, c in enumerate(col) if c} for col in cols]
    solutions = []
    for g in targets:
        residual = {i: c for i, c in enumerate(g) if c}
        x = [0] * len(cols)
        for _, u, lead in leads:
            v = residual.get(lead)
            if v:
                x[u] = v
                for i, c in sparse[u].items():
                    residual[i] = residual.get(i, 0) - v * c
        solutions.append(x)
    return solutions


def _is_preimage(terms: list[list[tuple[int, int]]], x: Sequence[int], g: Sequence[int]) -> bool:
    """True when d1 x = g holds exactly over Z[t], for the square d1 given
    by its ``_column_terms`` (so one degree up moves a position by
    len(terms)); x and g are degree-major integer vectors as in
    ``_solve_preimages``."""
    size = len(terms)
    residual = {i: c for i, c in enumerate(g) if c}
    for index, v in enumerate(x):
        if v:
            m, s = divmod(index, size)
            for pos, c in terms[s]:
                key = m * size + pos
                residual[key] = residual.get(key, 0) - c * v
    return not any(residual.values())


def check_exactness(
    k: DimVector, test_object: str, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> ExactnessReport:
    """Certify exactness of the induced complex over Z[t], so in every degree.

    The complex is F1 --d1--> F0 --d0--> Z^r of Z[t]-modules, t acting on
    Z^r by T; F1 and F0 are free of rank n + 1, and counting t^(1/2) as
    degree 0, d1 is a square matrix of integer polynomials of degree <= 1.
    Exactness over Z[t] is exactness of every degree truncation, and it is
    proved from a finite certificate:

    (a) d1 is injective: ``_d1_injective`` finds an integer t0 <= n + 1 with
        det d1(t0) != 0 (proof there).
    (b) ker d0 is in im d1: the 2(n + 1) - r vectors g of
        ``_shift_kernel_basis(ev, 1)`` generate ker d0 as a Z[t]-module
        (proof there).  ``_solve_preimages`` finds an integer candidate x_g
        in the degree-2 truncation, and ``_is_preimage`` certifies it:
        d1 x_g = g exactly.  Then d1 (t^j x_g) = t^j g, so
        every kernel element of every degree has a preimage.
    (c) d0 is onto: d0 e_{p(i),0} = e_i for the unit slots p(i) of
        ``_unit_slots``, which raises InconsistentComplexError when one is
        missing.

    The report names the first generator, as (degree, slot), without a
    certified preimage.  Its verdicts are those of the truncated check at
    any degree bound D >= 2 (the tests keep that check, a Hermite lattice of
    the degree-D truncation of d1, as the oracle):

    - Coverage.  If every x_g is certified, each kernel basis vector t^j g
      of degree <= D - 1 has the preimage t^j x_g of degree <= D, because
      deg x_g <= 1 (below).  If some g fails while d1 is injective, then g,
      of degree <= 1 <= D - 1, has no preimage y at all: y would have degree
      <= 1, so lie in the degree-2 truncation, where it is the only
      solution of the lead rows, so the solver would return y, and y
      passes.
      Degree bound: let d1 x = g with deg g <= 1 and x = (u, v), u in
      Z[t]^n.  For "C", d1 = [[I, -k], [-k^T, t]]: u = g' + k v and
      (t - sum k_i^2) v = g_last + k.g', monic of degree 1 in t, so
      deg v <= 0 and deg u <= 1.  For "A", d1 = [[t I, -k], [-k^T, 1]]:
      v = g_last + k.u and t u - k (k.u) = g' + k g_last; if e = max deg u_i
      were >= 1, the left side would have a nonzero coefficient in degree
      e + 1 >= 2 and the right side none, so deg u <= 0 and deg v <= 1.
    - Injectivity.  Every truncation of an injective d1 is injective.  If
      d1 is not injective it has a kernel vector of degree <= n (its
      entries are signed r x r minors, r <= n the rank), which the
      truncation finds once D >= n.  For the complex, det d1 is
      t - sum k_i^2 ("C") or t^(n-1) (t - sum k_i^2) ("A"), so the two
      routes agree at every D.
    - Surjectivity.  The truncated d0 has the same unit slots in degree 0.

    ``degree_bound`` (at least 2) is only echoed in the report: the cost
    does not depend on it.
    """
    _check_test_object(test_object)
    if degree_bound < 2:
        raise ValueError(f"degree bound must be at least 2, got {degree_bound}")
    d1, ev = build_complex(k, test_object)
    generators = _shift_kernel_basis(ev, 1)
    preimages = _solve_preimages(d1, [g for _, g in generators])
    terms = _column_terms(d1)
    uncovered = next(
        (label for (label, g), x in zip(generators, preimages) if not _is_preimage(terms, x, g)), None
    )

    warnings = ()
    w = k.scope_warning()
    if w:
        warnings = (w,)
    return ExactnessReport(
        dims=k,
        test_object=test_object,
        degree_bound=degree_bound,
        d1_injective=_d1_injective(d1),
        uncovered=uncovered,
        d0_surjective=True,  # (c): _shift_kernel_basis raised otherwise
        warnings=warnings,
    )
