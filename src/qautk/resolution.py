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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dims import DimVector
from .exact_linalg import IntMatrix, LatticeBasis, invariant_factors, _row_reduce
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

    def t_matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(self.t_action)

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
    """Certificate for the truncated complex at a given degree bound."""

    dims: DimVector
    test_object: str
    degree_bound: int
    d1_injective: bool
    # (degree, slot) of the first vector of the shift basis of ker d0 that
    # is not in the image of d1; None when the kernel is covered
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
        if any(b) or any(a):
            system.append([Fraction(x) for x in b] + [Fraction(-x) for x in a])
    reduced, pivots = _row_reduce(system)
    if pivots and pivots[-1] >= r:
        raise InconsistentComplexError("zero-composition constraints are inconsistent")
    if len(pivots) != r:
        raise InconsistentComplexError("t-action is not determined by the constraints")
    t = [[reduced[j][r + i] for j in range(r)] for i in range(r)]
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
# Exactness certification on degree truncations
# ---------------------------------------------------------------------------

def _truncated_d1_columns(d1: Matrix, degree: int) -> list[list[int]]:
    """Columns of the truncated map, as dense integer vectors.

    Source coordinates run over degrees 0..degree, target coordinates over
    degrees 0..degree+1; index order is degree-major.
    """
    nrows = len(d1)
    tgt_len = (degree + 2) * nrows
    # (target position at source degree 0, coefficient) per source column
    terms = [
        [(q * nrows + slot, c) for slot, row in enumerate(d1) for q, c in row[s].coefficients]
        for s in range(len(d1[0]))
    ]
    cols = []
    for m in range(degree + 1):
        shift = m * nrows
        for column in terms:
            vec = [0] * tgt_len
            for pos, c in column:
                vec[shift + pos] += c
            cols.append(vec)
    return cols


def _truncated_d0(ev: EvaluationMap, degree: int) -> IntMatrix:
    """Matrix of the evaluation on degrees 0..degree, degree-major columns."""
    nslots = len(ev.slot_images)
    powers = [ev.t_power_images(s, degree) for s in range(nslots)]
    rows = []
    for i in range(ev.target_rank):
        row = []
        for m in range(degree + 1):
            for s in range(nslots):
                row.append(powers[s][m][i])
        rows.append(row)
    return IntMatrix.from_rows(rows)


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
    """A lattice basis of the kernel of ``_truncated_d0(ev, degree)``.

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

    Returns ((degree, slot), vector) pairs, degree-major like the columns of
    ``_truncated_d0``, each vector dense of length (degree + 1)(n + 1).
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


def check_exactness(
    k: DimVector, test_object: str, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> ExactnessReport:
    """Certify exactness of the induced complex up to a degree bound.

    Over the truncation to polynomial degree <= degree_bound this checks that
    (a) d1 has trivial kernel, (b) every kernel element of d0 of degree
    <= degree_bound - 1 is the image of an element of degree <= degree_bound
    under d1, and (c) d0 maps onto the full target lattice.  The maps raise
    degree by at most one, so the one-degree buffer suffices for (b).  (b) is
    decided on the basis of ``_shift_kernel_basis``, each vector tested for
    membership in the Hermite lattice of the image; the report names the
    first vector that fails.
    """
    _check_test_object(test_object)
    if degree_bound < 2:
        raise ValueError(f"degree bound must be at least 2, got {degree_bound}")
    d1, ev = build_complex(k, test_object)
    nslots = len(ev.slot_images)

    tgt_len = (degree_bound + 2) * nslots
    d1_cols = _truncated_d1_columns(d1, degree_bound)
    image = LatticeBasis.from_rows(d1_cols, tgt_len)
    injective = image.rank == len(d1_cols)

    uncovered = None
    for label, vec in _shift_kernel_basis(ev, degree_bound - 1):
        if not image.contains(vec + [0] * (tgt_len - len(vec))):
            uncovered = label
            break

    d0_full = _truncated_d0(ev, degree_bound)
    factors = invariant_factors(d0_full)
    surjective = (
        sum(1 for d in factors if d != 0) == ev.target_rank
        and all(d == 1 for d in factors[: ev.target_rank])
    )

    warnings = ()
    w = k.scope_warning()
    if w:
        warnings = (w,)
    return ExactnessReport(
        dims=k,
        test_object=test_object,
        degree_bound=degree_bound,
        d1_injective=injective,
        uncovered=uncovered,
        d0_surjective=surjective,
        warnings=warnings,
    )
