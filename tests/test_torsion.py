import math
import random
from fractions import Fraction

import pytest

from qautk import torsion
from qautk.cyclotomic import Cyclotomic
from qautk.exact_linalg import _row_reduce
from qautk.torsion import (
    Cocycle,
    CocycleError,
    FiniteGroup,
    GradedAlgebra,
    GradedAlgebraError,
    GroupTableError,
    NonErgodicError,
    NonSemisimpleError,
    TorsionExtractionError,
    block_decomposition,
    center_dimension,
    extract_torsion_data,
    is_ergodic,
    regular_class_count,
    twisted_group_algebra,
    _algebra_generators,
    _extract_cells,
    _group_generators,
    _monomial_table,
    _validate_cells,
)

ALL_GROUPS_UP_TO_EIGHT = [
    FiniteGroup.cyclic(1),
    FiniteGroup.cyclic(2),
    FiniteGroup.cyclic(3),
    FiniteGroup.cyclic(4),
    FiniteGroup.klein_four(),
    FiniteGroup.cyclic(5),
    FiniteGroup.cyclic(6),
    FiniteGroup.symmetric(3),
    FiniteGroup.cyclic(7),
    FiniteGroup.cyclic(8),
    FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
    FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.klein_four()),
    FiniteGroup.dihedral(4),
    FiniteGroup.quaternion(),
]


# -- groups -------------------------------------------------------------------

def test_group_constructors():
    assert FiniteGroup.cyclic(5).order == 5
    assert FiniteGroup.klein_four().order == 4
    assert FiniteGroup.symmetric(3).order == 6
    assert FiniteGroup.dihedral(4).order == 8
    assert FiniteGroup.quaternion().order == 8


def test_group_validation():
    with pytest.raises(GroupTableError):
        FiniteGroup(((0, 1), (1, 1)), 0)  # 1*1 = 1 kills inverses
    with pytest.raises(GroupTableError):
        FiniteGroup(((1, 0), (0, 1)), 0)  # wrong identity
    # a non-associative latin square
    with pytest.raises(GroupTableError):
        FiniteGroup(
            (
                (0, 1, 2, 3, 4),
                (1, 0, 3, 4, 2),
                (2, 4, 0, 1, 3),
                (3, 2, 4, 0, 1),
                (4, 3, 1, 2, 0),
            ),
            0,
        )


def test_conjugacy_and_centralizers():
    s3 = FiniteGroup.symmetric(3)
    assert len(s3.conjugacy_classes()) == 3
    assert len(FiniteGroup.dihedral(4).conjugacy_classes()) == 5
    assert len(FiniteGroup.quaternion().conjugacy_classes()) == 5
    e = s3.identity
    assert sorted(s3.centralizer(e)) == list(range(6))
    assert not s3.is_abelian()
    assert FiniteGroup.cyclic(6).is_abelian()


def test_group_json_roundtrip():
    g = FiniteGroup.dihedral(3)
    assert FiniteGroup.from_dict(g.to_dict()) == g
    with pytest.raises(GroupTableError):
        FiniteGroup.from_dict({"table": [[0, 1]]})


# -- cocycles -----------------------------------------------------------------

def test_cocycle_validation():
    c4 = FiniteGroup.cyclic(4)
    Cocycle.trivial(c4)
    with pytest.raises(CocycleError):
        # breaks normalization
        Cocycle(c4, 2, ((1, 0, 0, 0), (0,) * 4, (0,) * 4, (0,) * 4))
    with pytest.raises(CocycleError):
        # breaks the cocycle identity
        Cocycle(c4, 2, ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


def test_coboundary_is_cocycle_and_cohomologically_trivial():
    rng = random.Random(3)
    for g in ALL_GROUPS_UP_TO_EIGHT:
        beta = [rng.randrange(6) for _ in range(g.order)]
        beta[g.identity] = 0
        cb = Cocycle.coboundary(g, 6, beta)
        assert regular_class_count(cb) == len(g.conjugacy_classes())


def test_pauli_cocycle():
    pauli = Cocycle.pauli()
    assert pauli.root_order == 4
    assert regular_class_count(pauli) == 1
    # antisymmetry on the two generators: omega(x,y) / omega(y,x) = -1
    assert (pauli.value(1, 2) - pauli.value(2, 1)) % 4 == 2


def test_bilinear_cocycle():
    bil = Cocycle.bilinear_on_product(2, 2)
    assert regular_class_count(bil) == 1
    bil44 = Cocycle.bilinear_on_product(4, 4)
    assert bil44.root_order == 4
    assert regular_class_count(bil44) == 1
    assert regular_class_count(Cocycle.bilinear_on_product(2, 3)) == 6


def test_cocycle_json_roundtrip():
    c = Cocycle.pauli()
    back = Cocycle.from_dict(c.to_dict())
    assert back.table == c.table and back.root_order == c.root_order


# -- twisted group algebras ---------------------------------------------------

def test_twisted_trivial_is_commutative_group_algebra():
    c2 = FiniteGroup.cyclic(2)
    alg = twisted_group_algebra(Cocycle.trivial(c2))
    assert alg.dim == 2
    assert is_ergodic(alg)
    assert block_decomposition(alg) == (1, 1)


def test_twisted_pauli_is_single_matrix_block():
    alg = twisted_group_algebra(Cocycle.pauli())
    assert is_ergodic(alg)
    assert block_decomposition(alg) == (2,)
    assert center_dimension(alg) == 1


def test_twisted_c3():
    c3 = FiniteGroup.cyclic(3)
    alg = twisted_group_algebra(Cocycle.trivial(c3))
    assert block_decomposition(alg) == (1, 1, 1)


def test_twisted_associativity_exhaustive():
    # independent of the cocycle identity check: verify on all triples
    for cocycle in (Cocycle.pauli(), Cocycle.bilinear_on_product(2, 4)):
        alg = twisted_group_algebra(cocycle)
        n = alg.dim
        basis = [alg.vec_of_basis(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                ij = alg.multiply_vectors(basis[i], basis[j])
                for k in range(n):
                    assert alg.multiply_vectors(ij, basis[k]) == alg.multiply_vectors(
                        basis[i], alg.multiply_vectors(basis[j], basis[k])
                    )


def _product(*groups: FiniteGroup) -> FiniteGroup:
    out = groups[0]
    for g in groups[1:]:
        out = FiniteGroup.direct_product(out, g)
    return out


def _coboundary(group: FiniteGroup, root_order: int) -> Cocycle:
    rng = random.Random(group.order * root_order)
    beta = [rng.randrange(root_order) for _ in range(group.order)]
    beta[group.identity] = 0
    return Cocycle.coboundary(group, root_order, beta)


_CATALOGUE = {
    "pauli": Cocycle.pauli,
    "bilinear:2x4": lambda: Cocycle.bilinear_on_product(2, 4),
    "bilinear:3x3": lambda: Cocycle.bilinear_on_product(3, 3),
    "bilinear:4x4": lambda: Cocycle.bilinear_on_product(4, 4),
    "bilinear:2x6": lambda: Cocycle.bilinear_on_product(2, 6),
    "bilinear:4x12": lambda: Cocycle.bilinear_on_product(4, 12),
    "Q8 coboundary:5": lambda: _coboundary(FiniteGroup.quaternion(), 5),
    "D4 coboundary:3": lambda: _coboundary(FiniteGroup.dihedral(4), 3),
    "D6 coboundary:6": lambda: _coboundary(FiniteGroup.dihedral(6), 6),
    "D4 trivial": lambda: Cocycle.trivial(FiniteGroup.dihedral(4)),
    "Q8 trivial": lambda: Cocycle.trivial(FiniteGroup.quaternion()),
    "S4 trivial": lambda: Cocycle.trivial(FiniteGroup.symmetric(4)),
    "D12 trivial": lambda: Cocycle.trivial(FiniteGroup.dihedral(12)),
    "Q8xC3 trivial": lambda: Cocycle.trivial(_product(FiniteGroup.quaternion(), FiniteGroup.cyclic(3))),
    "S3xC2xC2 trivial": lambda: Cocycle.trivial(
        _product(FiniteGroup.symmetric(3), FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    ),
    "S4xC2 trivial": lambda: Cocycle.trivial(_product(FiniteGroup.symmetric(4), FiniteGroup.cyclic(2))),
}


@pytest.mark.parametrize("shape", list(_CATALOGUE))
def test_twisted_algebras_pass_validate(shape):
    # twisted_group_algebra trusts the cocycle identity; validate re-proves
    # the axioms it implies on every graded benchmark shape
    twisted_group_algebra(_CATALOGUE[shape]()).validate()


def test_group_algebra_blocks_match_irreducible_degrees():
    # trivial cocycle: blocks are the irrep degrees; center = class count
    cases = [
        (FiniteGroup.symmetric(3), (1, 1, 2)),
        (FiniteGroup.dihedral(4), (1, 1, 1, 1, 2)),
        (FiniteGroup.quaternion(), (1, 1, 1, 1, 2)),
        (FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.klein_four()), (1,) * 8),
    ]
    for group, expected in cases:
        alg = twisted_group_algebra(Cocycle.trivial(group))
        assert block_decomposition(alg) == expected
        assert center_dimension(alg) == len(group.conjugacy_classes())


def test_block_sum_of_squares():
    for cocycle in (Cocycle.pauli(), Cocycle.bilinear_on_product(4, 4)):
        alg = twisted_group_algebra(cocycle)
        blocks = block_decomposition(alg)
        assert sum(m * m for m in blocks) == alg.dim
        assert len(blocks) == center_dimension(alg) == regular_class_count(cocycle)


# -- ergodicity and extraction ------------------------------------------------

def _ungraded(labels, mult, star) -> GradedAlgebra:
    """Structure constants over Q, graded by the trivial group, validated."""
    alg = GradedAlgebra(
        group=FiniteGroup.cyclic(1),
        basis_labels=tuple(labels),
        grading=(0,) * len(labels),
        root_order=1,
        mult=mult,
        star=star,
    )
    alg.validate()
    return alg


def _ungraded_c2() -> GradedAlgebra:
    one = Cyclotomic.one(1)
    mult = ((((0, one),), ()), ((), ((1, one),)))
    star = (((0, one),), ((1, one),))
    return _ungraded(("p", "q"), mult, star)


def test_is_ergodic():
    c2 = FiniteGroup.cyclic(2)
    assert is_ergodic(twisted_group_algebra(Cocycle.trivial(c2)))
    assert not is_ergodic(_ungraded_c2())
    assert is_ergodic(twisted_group_algebra(Cocycle.pauli()))


def test_extract_rejects_non_ergodic():
    with pytest.raises(NonErgodicError):
        extract_torsion_data(_ungraded_c2())


def test_extract_trivial_group_algebra():
    c3 = FiniteGroup.cyclic(3)
    h, omega = extract_torsion_data(twisted_group_algebra(Cocycle.trivial(c3)))
    assert h.order == 3
    assert regular_class_count(omega) == 3
    assert all(x == 0 for row in omega.table for x in row)  # recovered exactly trivial


def _pauli_matrix_algebra() -> GradedAlgebra:
    """M_2 graded by the Klein four-group, built from genuine Pauli products
    over Q(i) rather than from a cocycle: an independent construction."""

    def matrix(rows):
        return [
            [Cyclotomic.from_coeffs(4, [Fraction(re), Fraction(im)]) for re, im in row]
            for row in rows
        ]

    paulis = [
        matrix([[(1, 0), (0, 0)], [(0, 0), (1, 0)]]),
        matrix([[(0, 0), (1, 0)], [(1, 0), (0, 0)]]),
        matrix([[(0, 0), (0, -1)], [(0, 1), (0, 0)]]),
        matrix([[(1, 0), (0, 0)], [(0, 0), (-1, 0)]]),
    ]

    def mat_mul(a, b):
        zero = Cyclotomic.zero(4)
        return [
            [sum((a[i][k] * b[k][j] for k in range(2)), zero) for j in range(2)]
            for i in range(2)
        ]

    def expand(m):
        # tr(P_i P_j) = 2 delta_ij resolves any 2x2 matrix in the Pauli basis
        out = []
        for p in paulis:
            pm = mat_mul(p, m)
            out.append((pm[0][0] + pm[1][1]).scale(Fraction(1, 2)))
        return out

    mult = []
    for i in range(4):
        row = []
        for j in range(4):
            coeffs = expand(mat_mul(paulis[i], paulis[j]))
            row.append(tuple((z, c) for z, c in enumerate(coeffs) if not c.is_zero()))
        mult.append(tuple(row))
    star = []
    for i in range(4):
        adj = [[paulis[i][c][r].conjugate() for c in range(2)] for r in range(2)]
        coeffs = expand(adj)
        star.append(tuple((z, c) for z, c in enumerate(coeffs) if not c.is_zero()))
    alg = GradedAlgebra(
        group=FiniteGroup.klein_four(),
        basis_labels=("I", "sx", "sy", "sz"),
        grading=(0, 1, 2, 3),
        root_order=4,
        mult=tuple(mult),
        star=tuple(star),
    )
    alg.validate()
    return alg


def test_extract_pauli_graded_matrix_algebra():
    alg = _pauli_matrix_algebra()
    assert is_ergodic(alg)
    h, omega = extract_torsion_data(alg)
    assert h.order == 4
    assert regular_class_count(omega) == 1
    # noncommutativity of the two generators shows up as a sign
    x, y = 1, 2
    half = omega.root_order // 2
    assert (omega.value(x, y) - omega.value(y, x)) % omega.root_order == half
    assert block_decomposition(alg) == (2,)


def test_extract_handles_rescaled_bases():
    alg = _pauli_matrix_algebra()
    scales = [
        Cyclotomic.one(4),
        Cyclotomic.rational(4, 2),
        Cyclotomic.from_coeffs(4, [1, 1]),  # 1 + i, modulus sqrt(2)
        Cyclotomic.one(4),
    ]
    mult = tuple(
        tuple(
            tuple((z, (scales[i] * scales[j] * c) / scales[z]) for z, c in alg.mult[i][j])
            for j in range(4)
        )
        for i in range(4)
    )
    star = tuple(
        tuple((z, (scales[i].conjugate() * c) / scales[z]) for z, c in alg.star[i])
        for i in range(4)
    )
    rescaled = GradedAlgebra(
        group=alg.group,
        basis_labels=alg.basis_labels,
        grading=alg.grading,
        root_order=4,
        mult=mult,
        star=star,
    )
    rescaled.validate()
    _, omega = extract_torsion_data(rescaled)
    assert regular_class_count(omega) == 1


def test_roundtrip_preserves_regular_class_count():
    rng = random.Random(7)
    for group in ALL_GROUPS_UP_TO_EIGHT:
        cocycles = [Cocycle.trivial(group)]
        for _ in range(2):
            beta = [rng.randrange(4) for _ in range(group.order)]
            beta[group.identity] = 0
            cocycles.append(Cocycle.coboundary(group, 4, beta))
        for omega_in in cocycles:
            algebra = twisted_group_algebra(omega_in)
            h, omega_out = extract_torsion_data(algebra)
            assert h.order == group.order
            assert regular_class_count(omega_out) == regular_class_count(omega_in)


def test_roundtrip_odd_root_order():
    # odd coefficient orders take the doubled-twice lift in extraction
    for n, beta in ((3, [0, 1, 2]), (6, [0, 2, 1, 0, 1, 2])):
        g = FiniteGroup.cyclic(n)
        omega_in = Cocycle.coboundary(g, 3, beta)
        h, omega_out = extract_torsion_data(twisted_group_algebra(omega_in))
        assert h.order == n
        assert regular_class_count(omega_out) == n


def test_roundtrip_nontrivial_classes():
    for omega_in in (
        Cocycle.pauli(),
        Cocycle.bilinear_on_product(2, 2),
        Cocycle.bilinear_on_product(2, 4),
        Cocycle.bilinear_on_product(4, 4),
    ):
        algebra = twisted_group_algebra(omega_in)
        _, omega_out = extract_torsion_data(algebra)
        assert regular_class_count(omega_out) == regular_class_count(omega_in)


def test_extract_inverts_once_per_support_element(monkeypatch):
    # the pair loop multiplies by precomputed inverses and divides nowhere
    algebra = twisted_group_algebra(Cocycle.bilinear_on_product(4, 4))
    expected = extract_torsion_data(algebra)
    calls = []
    inverse = Cyclotomic.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counting)
    assert extract_torsion_data(algebra) == expected
    assert len(calls) <= 2 * algebra.group.order + 1


# -- block decomposition edge cases --------------------------------------------

def test_non_semisimple_rejected_with_witness():
    # dual numbers: 1, x with x^2 = 0 and x* = x
    one = Cyclotomic.one(1)
    mult = (
        (((0, one),), ((1, one),)),
        (((1, one),), ()),
    )
    star = (((0, one),), ((1, one),))
    alg = _ungraded(("1", "x"), mult, star)
    with pytest.raises(NonSemisimpleError) as err:
        block_decomposition(alg)
    assert "x" in err.value.witness


def test_graded_algebra_validation():
    klein = FiniteGroup.klein_four()
    one = Cyclotomic.one(1)
    with pytest.raises(GradedAlgebraError):
        # product lands outside the graded component
        GradedAlgebra(
            group=klein,
            basis_labels=("a", "b"),
            grading=(1, 2),
            root_order=1,
            mult=((((0, one),), ()), ((), ())),
            star=(((0, one),), ((1, one),)),
        )


def test_ungraded_blocks():
    assert block_decomposition(_ungraded_c2()) == (1, 1)


def _matrix_units(*sizes: int) -> GradedAlgebra:
    """M_k1 (+) ... (+) M_kn on its matrix units e_ij, with e_ij* = e_ji."""
    units = [(b, i, j) for b, k in enumerate(sizes) for i in range(k) for j in range(k)]
    index = {u: x for x, u in enumerate(units)}
    one = Cyclotomic.one(1)
    mult = tuple(
        tuple(((index[(b, i, l)], one),) if b == c and j == k else () for (c, k, l) in units)
        for (b, i, j) in units
    )
    star = tuple(((index[(b, j, i)], one),) for (b, i, j) in units)
    return _ungraded([f"e{b}_{i}{j}" for b, i, j in units], mult, star)


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1, 4), (2, 2, 2, 2, 2)])
def test_blocks_beyond_dimension_and_count(sizes):
    # both algebras have dimension 20 and 5 blocks, so only the sizes tell them apart
    assert block_decomposition(_matrix_units(*sizes)) == sizes


def test_algebra_json_roundtrip():
    alg = twisted_group_algebra(Cocycle.pauli())
    back = GradedAlgebra.from_dict(alg.to_dict())
    assert back.mult == alg.mult
    assert back.star == alg.star
    assert back.grading == alg.grading


def _m2_sheared():
    """M_2 over Q on the basis (e11 + e12, e12, e21, e22): products and stars
    have multi-term cells, so every check has to merge terms."""
    basis = [((1, 1), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]

    def cell(m):
        # m = m11 e11 + m12 e12 + m21 e21 + m22 e22 with e11 = b0 - b1
        (m11, m12), (m21, m22) = m
        coeffs = (m11, m12 - m11, m21, m22)
        return tuple((z, Cyclotomic.rational(1, c)) for z, c in enumerate(coeffs) if c)

    def mat_mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))

    mult = tuple(tuple(cell(mat_mul(a, b)) for b in basis) for a in basis)
    star = tuple(cell(((a[0][0], a[1][0]), (a[0][1], a[1][1]))) for a in basis)
    return mult, star


def test_multi_term_cells():
    mult, star = _m2_sheared()
    assert max(len(c) for row in mult for c in row) > 1 and max(len(c) for c in star) > 1
    alg = _ungraded(("e11+e12", "e12", "e21", "e22"), mult, star)
    assert block_decomposition(alg) == (2,)
    assert center_dimension(alg) == 1


def test_axiom_violations_named():
    mult, star = _m2_sheared()
    one, two = Cyclotomic.one(1), Cyclotomic.rational(1, 2)
    labels = ("e11+e12", "e12", "e21", "e22")
    with pytest.raises(GradedAlgebraError, match="not involutive"):
        _ungraded(labels, mult, star[:1] + (((2, two),),) + star[2:])  # e12* = 2 e21
    with pytest.raises(GradedAlgebraError, match="not anti-multiplicative"):
        _ungraded(labels, mult, tuple(((i, one),) for i in range(4)))  # the identity map
    # a commutative algebra with the identity involution: a^2 = b, ab = ba = a,
    # b^2 = 0, so (a a) b = 0 but a (a b) = b
    with pytest.raises(GradedAlgebraError, match=r"not associative at \(0, 0, 1\)"):
        _ungraded(
            ("a", "b"),
            ((((1, one),), ((0, one),)), (((0, one),), ())),
            (((0, one),), ((1, one),)),
        )


# -- Light's associativity test against the n^3 oracle ------------------------


def _table_failures(table):
    n = len(table)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if table[table[i][j]][k] != table[i][table[j][k]]
    ]


def _cocycle_failures(group, m, w):
    n, mul = group.order, group.mul
    return [
        (s, t, u)
        for s in range(n)
        for t in range(n)
        for u in range(n)
        if (w[s][t] + w[mul(s, t)][u] - w[t][u] - w[s][mul(t, u)]) % m
    ]


def _expand(terms):
    """Sum of a * cell over (a, cell) pairs, as a dict without zeros."""
    acc = {}
    for a, cell in terms:
        for z, c in cell:
            acc[z] = acc[z] + a * c if z in acc else a * c
    return {z: c for z, c in acc.items() if c}


def _structure_failures(mult):
    n = len(mult)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if _expand((c, mult[z][k]) for z, c in mult[i][j]) != _expand((c, mult[i][y]) for y, c in mult[j][k])
    ]


def _witness(message):
    return tuple(int(x) for x in message.split("(")[-1].rstrip(")").split(", "))


def _first_with_middle_in(failures, gens):
    return min(t for t in failures if t[1] in gens)


def _relabel(group, rng):
    """An isomorphic table, by a random permutation fixing the identity."""
    n, e = group.order, group.identity
    rest = [x for x in range(n) if x != e]
    perm = dict(zip(rest, rng.sample(rest, len(rest))))
    perm[e] = e
    inv = {v: k for k, v in perm.items()}
    return tuple(tuple(perm[group.mul(inv[a], inv[b])] for b in range(n)) for a in range(n))


_LIGHT_GROUPS = {
    "S3": FiniteGroup.symmetric(3),
    "D4": FiniteGroup.dihedral(4),
    "Q8": FiniteGroup.quaternion(),
    "S4": FiniteGroup.symmetric(4),
}


def _group_corruptions(group):
    """Checks seeded corruptions of one table; returns how many of them the
    n^3 loop would first have failed at a middle index outside S."""
    n, e = group.order, group.identity
    rng = random.Random(n)
    middle_outside = 0
    for _ in range(30):
        # one entry off the identity's row and column, leaving every row an
        # inverse, so the table reaches the associativity check
        a, b = rng.randrange(n), rng.randrange(n)
        if e in (a, b) or group.mul(a, b) == e:
            continue
        table = [list(row) for row in group.table]
        table[a][b] = rng.choice([x for x in range(n) if x not in (e, table[a][b])])
        failures = _table_failures(table)
        assert failures
        with pytest.raises(GroupTableError, match="associativity fails") as err:
            FiniteGroup(tuple(map(tuple, table)), e)
        gens = _group_generators(table)
        assert _witness(str(err.value)) == _first_with_middle_in(failures, gens)
        middle_outside += failures[0][1] not in gens
    for _ in range(5):
        table = _relabel(group, rng)
        assert not _table_failures(table)
        FiniteGroup(table, e)
    return middle_outside


def test_group_associativity_matches_cubic_oracle():
    for group in _LIGHT_GROUPS.values():
        assert len(_group_generators(group.table)) <= 1 + math.floor(math.log2(group.order))
    # some corruptions make the n^3 loop stop at a triple whose middle is
    # outside S, which the new check never looks at; it must still raise
    assert sum(_group_corruptions(group) for group in _LIGHT_GROUPS.values()) > 0


def test_generating_set_closes_old_words_under_a_new_generator():
    # a b = c and every other product zero: c is reached only as an old
    # word times the new generator b, so S = {a, b}
    one = Cyclotomic.one(1)
    mult = ((((), ((2, one),), ()), ((), (), ()), ((), (), ())))
    assert _algebra_generators(mult, 1) == [0, 1]
    # the zero product generates nothing, so S is every index
    assert _algebra_generators((((), ()), ((), ())), 1) == [0, 1]


def _light_cocycles():
    d4 = FiniteGroup.dihedral(4)
    return {
        "pauli": Cocycle.pauli(),
        "bilinear:4x4": Cocycle.bilinear_on_product(4, 4),
        "D4 coboundary:3": _coboundary(d4, 3),
    }


def _cocycle_corruptions(omega):
    group, m = omega.group, omega.root_order
    n, e = group.order, group.identity
    gens = _group_generators(group.table)
    rng = random.Random(n * m)
    middle_outside = 0
    for _ in range(30):
        s, t = rng.randrange(n), rng.randrange(n)
        if e in (s, t):
            continue  # normalization is checked first
        table = [list(row) for row in omega.table]
        table[s][t] = rng.choice([x for x in range(m) if x != table[s][t]])
        failures = _cocycle_failures(group, m, table)
        assert failures
        with pytest.raises(CocycleError, match="cocycle identity fails") as err:
            Cocycle(group, m, tuple(map(tuple, table)))
        assert _witness(str(err.value)) == _first_with_middle_in(failures, gens)
        middle_outside += failures[0][1] not in gens
    # a coboundary times the cocycle is a cocycle again
    beta = [0 if x == e else rng.randrange(m) for x in range(n)]
    twisted = [
        [(omega.value(x, y) + beta[x] + beta[y] - beta[group.mul(x, y)]) % m for y in range(n)] for x in range(n)
    ]
    assert not _cocycle_failures(group, m, twisted)
    Cocycle(group, m, tuple(map(tuple, twisted)))
    return middle_outside


def test_cocycle_identity_matches_cubic_oracle():
    assert sum(_cocycle_corruptions(omega) for omega in _light_cocycles().values()) > 0


def _light_algebras():
    mult, star = _m2_sheared()
    m2 = GradedAlgebra(
        group=FiniteGroup.cyclic(1),
        basis_labels=("e11+e12", "e12", "e21", "e22"),
        grading=(0,) * 4,
        root_order=1,
        mult=mult,
        star=star,
    )
    algebras = {"m2 sheared": m2}
    for name in ("pauli", "bilinear:2x4", "Q8 coboundary:5", "D4 trivial"):
        algebras[name] = twisted_group_algebra(_CATALOGUE[name]())
    return algebras


def _with_mult(alg, mult):
    return GradedAlgebra(alg.group, alg.basis_labels, alg.grading, alg.root_order, mult, alg.star)


def _mirrored_corruption(alg, a, b, z, eps):
    """Add eps e_z to e_a e_b and the involution's mirror of that change,
    conj((e_j*)_a (e_i*)_b eps) e_z*, to every e_i e_j.  With D the single
    change, x y + D(x, y) + D(y*, x*)* is anti-multiplicative again, so
    only associativity can fail."""
    n = alg.dim
    one = Cyclotomic.one(alg.root_order)
    stars = [alg.star_vector(alg.vec_of_basis(i)) for i in range(n)]
    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [(one, alg.mult[i][j])]
            if (i, j) == (a, b):
                terms.append((eps, ((z, one),)))
            coeff = stars[j].get(a)
            if coeff is not None and b in stars[i]:
                terms.append(((coeff * stars[i][b] * eps).conjugate(), alg.star[z]))
            row.append(tuple(sorted(_expand(terms).items())))
        mult.append(tuple(row))
    return tuple(mult)


def _structure_corruptions(alg):
    n, order = alg.dim, alg.root_order
    rng = random.Random(n * order)
    middle_outside = 0
    for _ in range(12):
        a, b = rng.randrange(n), rng.randrange(n)
        # stay in the graded component of the product
        z = rng.choice([x for x in range(n) if alg.grading[x] == alg.group.mul(alg.grading[a], alg.grading[b])])
        eps = Cyclotomic.root(order, rng.randrange(order)).scale(Fraction(rng.choice([-2, -1, 1, 3]), 2))
        mult = _mirrored_corruption(alg, a, b, z, eps)
        failures = _structure_failures(mult)
        corrupted = _with_mult(alg, mult)
        if not failures:
            corrupted.validate()
            continue
        with pytest.raises(GradedAlgebraError, match="not associative") as err:
            corrupted.validate()
        gens = _algebra_generators(mult, order)
        assert _witness(str(err.value)) == _first_with_middle_in(failures, gens)
        middle_outside += failures[0][1] not in gens
    # one coefficient changed alone: validate raises exactly when some axiom fails
    for _ in range(12):
        a, b = rng.randrange(n), rng.randrange(n)
        cell = alg.mult[a][b]
        if not cell:
            continue
        mult = [list(row) for row in alg.mult]
        mult[a][b] = ((cell[0][0], cell[0][1].scale(2)),) + cell[1:]
        mult = tuple(map(tuple, mult))
        with pytest.raises(GradedAlgebraError, match="not anti-multiplicative|not associative"):
            _with_mult(alg, mult).validate()
        assert _structure_failures(mult) or not _star_is_anti_multiplicative(alg, mult)
    return middle_outside


def test_structure_constants_associativity_matches_cubic_oracle():
    assert sum(_structure_corruptions(alg) for alg in _light_algebras().values()) > 0


def _star_is_anti_multiplicative(alg, mult):
    n = alg.dim
    stars = [alg.star_vector(alg.vec_of_basis(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = _expand((c.conjugate(), alg.star[z]) for z, c in mult[i][j])
            rhs = _expand((x * y, mult[u][v]) for u, x in stars[j].items() for v, y in stars[i].items())
            if lhs != rhs:
                return False
    return True


# -- monomial tables against the Cyclotomic path -------------------------------


def _outcome(fn, *args):
    """The result of fn, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_routes_agree(alg):
    """validate and extract_torsion_data give the same result, or the same
    error, on the monomial table as on the Cyclotomic oracle path."""
    assert _monomial_table(alg) is not None
    assert _outcome(alg.validate) == _outcome(_validate_cells, alg)
    assert _outcome(extract_torsion_data, alg) == _outcome(_extract_cells, alg)


def _monomial_algebra(group, m, omega, r, grading=None, target=None):
    """C*_omega(group) on the basis d'_s = zeta_m^r[s] d_s, omega an exponent
    table mod m, optionally graded by a quotient (grading) or with the
    product targets replaced (target[s][t]); every cell one root of unity."""
    n, inv = group.order, group.inv
    target = target or group.table

    def root(a):
        return Cyclotomic.root(m, a)

    mult = tuple(
        tuple(((target[s][t], root(r[s] + r[t] - r[group.mul(s, t)] + omega[s][t])),) for t in range(n))
        for s in range(n)
    )
    star = tuple(((inv(s), root(-r[s] - omega[s][inv(s)] - r[inv(s)])),) for s in range(n))
    quotient, degrees = grading or (group, tuple(range(n)))
    return GradedAlgebra(quotient, tuple(f"d{s}" for s in range(n)), degrees, m, mult, star)


_ROUTE_A_GROUPS = {
    "C1": FiniteGroup.cyclic(1),
    "C2": FiniteGroup.cyclic(2),
    "C5": FiniteGroup.cyclic(5),
    "C6": FiniteGroup.cyclic(6),
    "V4": FiniteGroup.klein_four(),
    "D1": FiniteGroup.dihedral(1),
    "D3": FiniteGroup.dihedral(3),
    "D4": FiniteGroup.dihedral(4),
    "Q8": FiniteGroup.quaternion(),
    "S3": FiniteGroup.symmetric(3),
    "S4": FiniteGroup.symmetric(4),
    "C2xC4": _product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
    "Q8xC3": _product(FiniteGroup.quaternion(), FiniteGroup.cyclic(3)),
    "S3xC2xC2": _product(FiniteGroup.symmetric(3), FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
    "json D5": FiniteGroup.from_dict(FiniteGroup.dihedral(5).to_dict()),
}


def _route_a_cocycles():
    """Every named cocycle and, on every constructor's group, the trivial
    cocycle and coboundary twists of odd and even root order."""
    named = [Cocycle.pauli()] + [Cocycle.bilinear_on_product(a, b) for a, b in ((2, 2), (2, 4), (3, 3), (4, 4), (2, 6))]
    for group in _ROUTE_A_GROUPS.values():
        named += [Cocycle.trivial(group), _coboundary(group, 3), _coboundary(group, 4)]
    return named


def test_monomial_table_only_on_one_root_of_unity_per_cell():
    assert _monomial_table(twisted_group_algebra(Cocycle.pauli())) is not None
    mult, star = _m2_sheared()
    assert _monomial_table(_ungraded(("e11+e12", "e12", "e21", "e22"), mult, star)) is None
    assert _monomial_table(_pauli_matrix_algebra()) is not None
    two_zeta = Cyclotomic.root(4, 1).scale(2)
    for m, coeff in ((4, two_zeta), (3, Cyclotomic.rational(3, -1))):  # -1 is no cube root of unity
        alg = twisted_group_algebra(Cocycle.trivial(FiniteGroup.cyclic(2), m))
        mult = ((alg.mult[0][0], ((1, coeff),)), alg.mult[1])
        assert _monomial_table(_with_mult(alg, mult)) is None
    assert _monomial_table(_matrix_units(1, 2)) is None  # empty cells
    alg = twisted_group_algebra(Cocycle.trivial(FiniteGroup.cyclic(2), 4))
    two_terms = ((alg.mult[0][0], ((1, Cyclotomic.one(4)), (1, Cyclotomic.one(4)))), alg.mult[1])
    assert _monomial_table(_with_mult(alg, two_terms)) is None


def test_monomial_routes_match_the_cyclotomic_oracle_on_valid_algebras():
    rng = random.Random(16)
    for omega in _route_a_cocycles():
        group, m = omega.group, omega.root_order
        _assert_routes_agree(twisted_group_algebra(omega))
        # rescaled bases d'_s = zeta^(r_s) d_s, the identity included
        m2 = 2 * m
        doubled = [[2 * x for x in row] for row in omega.table]
        r = [rng.randrange(m2) for _ in range(group.order)]
        alg = _monomial_algebra(group, m2, doubled, r)
        alg.validate()
        _assert_routes_agree(alg)
        assert extract_torsion_data(alg)[0] == extract_torsion_data(twisted_group_algebra(omega))[0]


def _quotient_graded(group, k, m, rng):
    """C*(group x C_k) graded by group: every component k-dimensional."""
    h = _product(group, FiniteGroup.cyclic(k))
    omega = Cocycle.coboundary(h, m, [0] + [rng.randrange(m) for _ in range(h.order - 1)]).table
    r = [rng.randrange(m) for _ in range(h.order)]
    return h, omega, r, (group, tuple(x // k for x in range(h.order)))


def _monomial_corruptions(group, m, omega, r, grading, rng):
    """Seeded one-cell corruptions that keep every cell one root of unity."""
    n = group.order
    base = _monomial_algebra(group, m, omega, r, grading)
    table = [list(row) for row in group.table]
    degrees = base.grading
    for _ in range(8):
        s, t = rng.randrange(n), rng.randrange(n)
        changed = [list(row) for row in omega]
        changed[s][t] = (changed[s][t] + rng.randrange(1, m)) % m
        yield _monomial_algebra(group, m, changed, r, grading)
        # the same change mirrored by the involution at (t^-1, s^-1): only
        # associativity can fail
        u, v = group.inv(t), group.inv(s)
        if group.mul(s, t) != group.identity and (u, v) != (s, t):
            changed[u][v] = (changed[u][v] - changed[s][t] + omega[s][t]) % m
            yield _monomial_algebra(group, m, changed, r, grading)
        same_degree = [x for x in range(n) if degrees[x] == degrees[table[s][t]] and x != table[s][t]]
        if same_degree:
            swapped = [list(row) for row in table]
            swapped[s][t] = rng.choice(same_degree)
            yield _monomial_algebra(group, m, omega, r, grading, swapped)
        star = list(base.star)
        (z, c), = star[s]
        star[s] = ((z, c * Cyclotomic.root(m, rng.randrange(1, m))),)
        yield GradedAlgebra(base.group, base.basis_labels, base.grading, m, base.mult, tuple(star))
        if m % 2 == 0:  # lambda_s = -1
            star = list(base.star)
            (z, c), = star[s]
            star[s] = ((z, -c),)
            yield GradedAlgebra(base.group, base.basis_labels, base.grading, m, base.mult, tuple(star))


def test_monomial_routes_match_the_cyclotomic_oracle_on_corruptions():
    rng = random.Random(1939)
    cases = [(omega.group, omega.root_order, omega.table) for omega in _light_cocycles().values()]
    cases += [(g, 6, _coboundary(g, 6).table) for g in (FiniteGroup.quaternion(), FiniteGroup.symmetric(3))]
    failed = set()
    for group, m, omega in cases:
        r = [rng.randrange(m) for _ in range(group.order)]
        for alg in _monomial_corruptions(group, m, omega, r, None, rng):
            _assert_routes_agree(alg)
            outcome = _outcome(alg.validate)
            if outcome is not None:
                failed.add(outcome[1].split(" ")[3])
    for group, k in ((FiniteGroup.cyclic(2), 2), (FiniteGroup.symmetric(3), 2), (FiniteGroup.cyclic(3), 3)):
        h, omega, r, grading = _quotient_graded(group, k, 4, rng)
        alg = _monomial_algebra(h, 4, omega, r, grading)
        alg.validate()
        _assert_routes_agree(alg)
        with pytest.raises(NonErgodicError, match=f"identity component has dimension {k}"):
            extract_torsion_data(alg)
        for bad in _monomial_corruptions(h, 4, omega, r, grading, rng):
            _assert_routes_agree(bad)
            table = _monomial_table(bad)
            assert _algebra_generators(bad.mult, 4) == _group_generators(table[0])
    # the corruptions reach each of the three checks
    assert failed == {"involutive", "anti-multiplicative", "associative"}


def test_lambda_minus_one_is_refused_by_both_routes():
    # C2 with d1* = -d1 is a *-algebra, but d1* d1 = -1 is not positive
    one, minus = Cyclotomic.one(2), Cyclotomic.root(2, 1)
    alg = GradedAlgebra(
        FiniteGroup.cyclic(2), ("d0", "d1"), (0, 1), 2,
        ((((0, one),), ((1, one),)), (((1, one),), ((0, one),))),
        (((0, one),), ((1, minus),)),
    )
    alg.validate()
    _assert_routes_agree(alg)
    with pytest.raises(TorsionExtractionError, match=r"b\* b = -1 times the unit"):
        extract_torsion_data(alg)


# -- trace forms on the cells the grading allows, against full Grams ----------


def _left_traces(b, basis):
    """theta[j] = sum over (f, z) in basis of the f-coordinate of e_j z: the
    trace of L_(e_j) on the span when e_j preserves it."""
    zero = Cyclotomic.zero(b.root_order)
    theta = []
    for j in range(b.dim):
        acc = zero
        for f, z in basis:
            for i, x in z.items():
                for w, c in b.mult[j][i]:
                    if w == f:
                        acc = acc + x * c
        theta.append(acc)
    return theta


def _functional_gram(b, theta):
    """The full n x n form (e_i, e_j) -> theta(e_i e_j), as sparse rows."""
    zero = Cyclotomic.zero(b.root_order)
    return [
        {j: x for j, cell in enumerate(row) if (x := sum((c * theta[z] for z, c in cell), zero))}
        for row in b.mult
    ]


def _restrict(form, vecs, zero):
    """Z^T F Z for F by sparse rows and Z with the columns vecs."""

    def dot(z, row):
        return sum((y * row[j] for j, y in z.items() if j in row), zero)

    columns = [{i: x for i, row in enumerate(form) if (x := dot(z, row))} for z in vecs]
    return [[dot(za, col) for col in columns] for za in vecs]


def full_gram_block_decomposition(b):
    """The block sizes from the two full trace-form Grams, as built before
    the grading restricted them: the oracle of ``block_decomposition``."""
    n, order = b.dim, b.root_order
    zero, one = Cyclotomic.zero(order), Cyclotomic.one(order)
    trace_form = _functional_gram(b, _left_traces(b, [(i, {i: one}) for i in range(n)]))
    radical = torsion._kernel(trace_form, n, order)
    if radical:
        _, witness = radical[0]
        raise NonSemisimpleError(
            "trace form is degenerate: algebra is not semisimple",
            {b.basis_labels[i]: str(c) for i, c in sorted(witness.items())},
        )
    center = torsion._center_basis(b)
    vecs = [z for _, z in center]
    b_a = _restrict(trace_form, vecs, zero)
    b_z = _restrict(_functional_gram(b, _left_traces(b, center)), vecs, zero)
    r = len(center)
    blocks = []
    for m in range(1, math.isqrt(n) + 1):
        if len(blocks) == r:
            break
        diff = [dict(enumerate(x - y.scale(m * m) for x, y in zip(ra, rz))) for ra, rz in zip(b_a, b_z)]
        _, pivots = _row_reduce(diff)
        blocks.extend([m] * (r - len(pivots)))
    if len(blocks) != r or sum(m * m for m in blocks) != n:
        raise RuntimeError(f"block sizes {blocks} fail the certificate: center dimension {r}, dim {n}")
    return tuple(blocks)


def _graded_dual_numbers():
    """1 in degree e and x in degree g of C2 with x^2 = 0, x* = x: graded
    and not semisimple."""
    one = Cyclotomic.one(1)
    alg = GradedAlgebra(
        FiniteGroup.cyclic(2), ("1", "x"), (0, 1), 1,
        ((((0, one),), ((1, one),)), (((1, one),), ())),
        (((0, one),), ((1, one),)),
    )
    alg.validate()
    return alg


def _route_b_algebras():
    mult, star = _m2_sheared()
    dual = ((((0, Cyclotomic.one(1)),), ((1, Cyclotomic.one(1)),)), (((1, Cyclotomic.one(1)),), ()))
    algebras = {
        "m2 sheared": _ungraded(("e11+e12", "e12", "e21", "e22"), mult, star),
        "pauli matrices": _pauli_matrix_algebra(),
        "units 1,2,2": _matrix_units(1, 2, 2),
        "c2 ungraded": _ungraded_c2(),
        "dual numbers": _ungraded(("1", "x"), dual, (((0, Cyclotomic.one(1)),), ((1, Cyclotomic.one(1)),))),
        "graded dual numbers": _graded_dual_numbers(),
    }
    for group, seed in ((FiniteGroup.cyclic(2), 2), (FiniteGroup.symmetric(3), 3)):
        h, omega, r, grading = _quotient_graded(group, 2, 4, random.Random(seed))
        algebras[f"{h.order} graded by {group.order}"] = _monomial_algebra(h, 4, omega, r, grading)
    for name in ("pauli", "bilinear:2x4", "bilinear:3x3", "Q8 coboundary:5", "D4 trivial", "D6 coboundary:6"):
        algebras[name] = twisted_group_algebra(_CATALOGUE[name]())
    return algebras


def test_trace_functional_vanishes_off_the_identity_component():
    for name, alg in _route_b_algebras().items():
        one = Cyclotomic.one(alg.root_order)
        theta = _left_traces(alg, [(i, {i: one}) for i in range(alg.dim)])
        identity = set(alg.component(alg.group.identity))
        assert all(not x for j, x in enumerate(theta) if j not in identity), name
        assert torsion._trace_form(alg)[0] == {j: theta[j] for j in identity}, name


@pytest.mark.parametrize("name", list(_route_b_algebras()))
def test_block_decomposition_matches_the_full_gram_oracle(name, monkeypatch):
    alg = _route_b_algebras()[name]
    try:
        expected = full_gram_block_decomposition(alg)
    except NonSemisimpleError as oracle:
        with pytest.raises(NonSemisimpleError) as err:
            block_decomposition(alg)
        assert (str(err.value), err.value.witness) == (str(oracle), oracle.witness)
        assert "dual numbers" in name
    else:
        assert block_decomposition(alg) == expected
    # a certificate failure: block sizes are searched only up to 1
    monkeypatch.setattr(math, "isqrt", lambda n: 1)
    outcome = _outcome(block_decomposition, alg)
    assert outcome == _outcome(full_gram_block_decomposition, alg)
    if name == "pauli":
        assert outcome == (RuntimeError, "block sizes [] fail the certificate: center dimension 1, dim 4")


class _SpiedRow(tuple):
    """A row of structure constants that records the cells read through it."""

    def __getitem__(self, j):
        self.reads.add((self.i, j))
        return tuple.__getitem__(self, j)


def test_trace_form_is_built_only_where_the_grading_allows():
    for name, alg in _route_b_algebras().items():
        reads = set()
        rows = tuple(_SpiedRow(row) for row in alg.mult)
        for i, row in enumerate(rows):
            row.i, row.reads = i, reads
        spied = _with_mult(alg, rows)
        reads.clear()
        _, form = torsion._trace_form(spied)
        g, deg = alg.group, alg.grading
        allowed = {(i, j) for i in range(alg.dim) for j in range(alg.dim) if g.mul(deg[i], deg[j]) == g.identity}
        bound = sum(len(alg.component(h)) * len(alg.component(g.inv(h))) for h in range(g.order))
        assert len(allowed) == bound
        assert reads <= allowed, name
        assert sum(len(row) for row in form) <= bound
        if alg.group.order > 1 and all(len(alg.component(h)) == 1 for h in range(g.order)):
            assert bound == alg.dim  # a twisted group algebra: n cells, not n^2
