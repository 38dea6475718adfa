import random
from fractions import Fraction

import pytest

from qautk.exact_linalg import _row_reduce
from qautk.findim import (
    AlgState,
    ComplexRational,
    FinDimAlgebra,
    NonFaithfulStateError,
    QC_ZERO,
    StateFormatError,
    gns_gram,
    is_delta_form,
    mu_mu_star,
    qc,
    qc_conj_transpose,
    qc_identity,
    qc_is_positive_definite,
    qc_is_positive_semidefinite,
    qc_matmul,
)


def test_gram_commutative():
    alg = FinDimAlgebra.of(1, 1)
    g = gns_gram(alg, AlgState.commutative([Fraction(1, 2), Fraction(1, 2)]))
    assert g == [[qc(Fraction(1, 2)), QC_ZERO], [QC_ZERO, qc(Fraction(1, 2))]]
    g = gns_gram(alg, AlgState.commutative([Fraction(1, 3), Fraction(2, 3)]))
    assert g[0][0] == qc(Fraction(1, 3)) and g[1][1] == qc(Fraction(2, 3))


def test_gram_matrix_block():
    alg = FinDimAlgebra.of(2)
    g = gns_gram(alg, AlgState.trace_state(alg))
    for i in range(4):
        for j in range(4):
            expected = qc(Fraction(1, 2)) if i == j else QC_ZERO
            assert g[i][j] == expected


def test_gram_positive_definite():
    alg = FinDimAlgebra.of(2, 1)
    q = [
        [qc(Fraction(1, 4)), ComplexRational.of(0, Fraction(1, 16))],
        [ComplexRational.of(0, Fraction(-1, 16)), qc(Fraction(1, 4))],
    ]
    state = AlgState(alg, [q, [[qc(Fraction(1, 2))]]])
    assert qc_is_positive_definite(gns_gram(alg, state))


def test_mu_mu_star_commutative_weights_oracle():
    # for commutative C^n the operator is diag(1/w_i)
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 5)
        raw = [rng.randint(1, 6) for _ in range(n)]
        total = sum(raw)
        weights = [Fraction(x, total) for x in raw]
        alg = FinDimAlgebra.of(*([1] * n))
        p = mu_mu_star(alg, AlgState.commutative(weights))
        for i in range(n):
            for j in range(n):
                expected = qc(1 / weights[i]) if i == j else QC_ZERO
                assert p[i][j] == expected


def test_mu_mu_star_matrix_block_oracle():
    # Tr(Q^-1) per block, scalar on each block
    alg = FinDimAlgebra.of(2)
    q = [[qc(Fraction(1, 2)), qc(Fraction(1, 8))], [qc(Fraction(1, 8)), qc(Fraction(1, 2))]]
    p = mu_mu_star(alg, AlgState(alg, [q]))
    reduced, pivots = _row_reduce([row + ident for row, ident in zip(q, qc_identity(2))])
    assert pivots == [0, 1]
    qi = [row[2:] for row in reduced]
    assert qc_matmul(qi, q) == qc_identity(2)
    lam = qi[0][0] + qi[1][1]
    for i in range(4):
        for j in range(4):
            assert p[i][j] == (lam if i == j else QC_ZERO)


def test_mu_mu_star_uniform_trace_values():
    assert mu_mu_star(FinDimAlgebra.of(1, 1, 1), AlgState.uniform_trace(3))[0][0] == qc(3)
    m2 = FinDimAlgebra.of(2)
    p = mu_mu_star(m2, AlgState.trace_state(m2))
    assert all(p[i][i] == qc(4) for i in range(4))


def test_mu_mu_star_gns_self_adjoint_positive():
    alg = FinDimAlgebra.of(2, 1)
    q = [
        [qc(Fraction(3, 8)), ComplexRational.of(Fraction(1, 16), Fraction(1, 16))],
        [ComplexRational.of(Fraction(1, 16), Fraction(-1, 16)), qc(Fraction(3, 8))],
    ]
    state = AlgState(alg, [q, [[qc(Fraction(1, 4))]]])
    g = gns_gram(alg, state)
    p = mu_mu_star(alg, state)
    gp = qc_matmul(g, p)
    assert gp == qc_conj_transpose(gp)
    assert qc_is_positive_semidefinite(gp)


def test_delta_form_uniform():
    for n in range(2, 10):
        res = is_delta_form(FinDimAlgebra.of(*([1] * n)), AlgState.uniform_trace(n))
        assert res.is_delta_form
        assert res.delta_squared == n


def test_delta_form_rejection_with_witness():
    res = is_delta_form(
        FinDimAlgebra.of(1, 1), AlgState.commutative([Fraction(1, 3), Fraction(2, 3)])
    )
    assert not res.is_delta_form
    assert res.witness is not None
    label, observed, expected = res.witness
    assert observed != expected
    assert observed in (qc(3), qc(Fraction(3, 2)))


def test_delta_form_matrix_block():
    m2 = FinDimAlgebra.of(2)
    res = is_delta_form(m2, AlgState.trace_state(m2))
    assert res.is_delta_form and res.delta_squared == 4
    assert res.delta_exact() == 2


def test_delta_squared_rational_delta_irrational():
    # three uniform points: delta^2 = 3 exactly, delta itself irrational
    res = is_delta_form(FinDimAlgebra.of(1, 1, 1), AlgState.uniform_trace(3))
    assert res.delta_squared == 3
    assert res.delta_exact() is None
    assert abs(res.delta - 3 ** 0.5) < 1e-12


def test_every_faithful_state_on_single_block_is_delta_form():
    m2 = FinDimAlgebra.of(2)
    state = AlgState(m2, [[[qc(Fraction(1, 3)), QC_ZERO], [QC_ZERO, qc(Fraction(2, 3))]]])
    res = is_delta_form(m2, state)
    assert res.is_delta_form and res.delta_squared == Fraction(9, 2)


def test_delta_invariant_under_block_permutation():
    alg = FinDimAlgebra.of(2, 2)
    q1 = [[qc(Fraction(1, 6)), qc(Fraction(1, 24))], [qc(Fraction(1, 24)), qc(Fraction(1, 6))]]
    q2 = [[qc(Fraction(1, 3)), QC_ZERO], [QC_ZERO, qc(Fraction(1, 3))]]
    a = is_delta_form(alg, AlgState(alg, [q1, q2]))
    b = is_delta_form(alg, AlgState(alg, [q2, q1]))
    assert a.is_delta_form == b.is_delta_form
    assert a.delta_squared == b.delta_squared


def test_delta_invariant_under_rational_unitary():
    # conjugate the density by the rational rotation [[3/5, 4/5], [-4/5, 3/5]]
    m2 = FinDimAlgebra.of(2)
    u = [[qc(Fraction(3, 5)), qc(Fraction(4, 5))], [qc(Fraction(-4, 5)), qc(Fraction(3, 5))]]
    q = [[qc(Fraction(1, 3)), QC_ZERO], [QC_ZERO, qc(Fraction(2, 3))]]
    moved = qc_matmul(qc_matmul(u, q), qc_conj_transpose(u))
    a = is_delta_form(m2, AlgState(m2, [q]))
    b = is_delta_form(m2, AlgState(m2, [moved]))
    assert moved[0][1] != QC_ZERO  # genuinely non-diagonal now
    assert a.delta_squared == b.delta_squared == Fraction(9, 2)


def test_outputs_are_exact_rationals():
    alg = FinDimAlgebra.of(1, 1, 1)
    weights = [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)]
    p = mu_mu_star(alg, AlgState.commutative(weights))
    for row in p:
        for x in row:
            assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)


def test_state_validation():
    alg = FinDimAlgebra.of(2)
    with pytest.raises(StateFormatError):
        AlgState(alg, [[[qc(1), qc(1)], [qc(0), qc(0)]]])  # not Hermitian
    with pytest.raises(StateFormatError):
        AlgState(alg, [[[qc(1), QC_ZERO], [QC_ZERO, qc(1)]]])  # trace 2
    with pytest.raises(StateFormatError):
        AlgState(FinDimAlgebra.of(1, 1), [[[qc(Fraction(3, 2))]], [[qc(Fraction(-1, 2))]]])


def test_non_faithful_rejected():
    alg = FinDimAlgebra.of(1, 1)
    state = AlgState(alg, [[[qc(1)]], [[qc(0)]]])
    assert not state.faithful
    with pytest.raises(NonFaithfulStateError):
        gns_gram(alg, state)
    with pytest.raises(NonFaithfulStateError):
        mu_mu_star(alg, state)
