import random
from fractions import Fraction

import pytest

from qautk.cyclotomic import Cyclotomic
from qautk.torsion import (
    Cocycle,
    CocycleError,
    FiniteGroup,
    GradedAlgebra,
    GradedAlgebraError,
    GroupTableError,
    NonErgodicError,
    NonSemisimpleError,
    block_decomposition,
    center_dimension,
    extract_torsion_data,
    is_ergodic,
    regular_class_count,
    twisted_group_algebra,
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
