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
    qc_char_coefficients,
    qc_is_hermitian,
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
    g = gns_gram(alg, state)
    assert qc_is_hermitian(g) and all(c > 0 for c in qc_char_coefficients(g))


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
    reduced, pivots = _row_reduce(dict(enumerate(row + ident)) for row, ident in zip(q, qc_identity(2)))
    assert pivots == [0, 1]
    qi = [[row.get(2 + j, QC_ZERO) for j in range(2)] for row in reduced]
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
    assert all(c >= 0 for c in qc_char_coefficients(gp))


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
    block, observed, expected = res.witness
    assert observed != expected
    assert observed in (qc(3), qc(Fraction(3, 2)))
    assert (block, observed, expected) == (1, qc(Fraction(3, 2)), qc(3))


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


def _givens(size, p, q):
    # the rational unitary [[3/5, 4i/5], [4i/5, 3/5]] on coordinates p, q
    g = qc_identity(size)
    g[p][p] = g[q][q] = qc(Fraction(3, 5))
    g[p][q] = g[q][p] = ComplexRational.of(0, Fraction(4, 5))
    return g


def _random_state(rng, accept):
    """A faithful state on 1-3 blocks of size <= 3, dimension <= 14, with
    rotated densities.

    Each block starts from a random positive diagonal D_i.  When `accept`,
    block i is scaled so that Tr(Q_i^-1) is the same on every block; the
    rotations keep the spectrum, so the state is a delta-form.  Otherwise
    there are at least two blocks and the values agree only by chance.
    """
    sizes = [3, 3, 3]
    while sum(k * k for k in sizes) > 14:  # mu_mu_star costs about dim^5
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1 if accept else 2, 3))]
    spectra = [[Fraction(rng.randint(1, 9)) for _ in range(k)] for k in sizes]
    if accept:
        spectra = [[x * sum(1 / y for y in sp) for x in sp] for sp in spectra]
    total = sum(sum(sp) for sp in spectra)
    density = []
    for k, sp in zip(sizes, spectra):
        q = [[qc(sp[i] / total) if i == j else QC_ZERO for j in range(k)] for i in range(k)]
        for _ in range(k - 1):
            p, r = rng.sample(range(k), 2)
            g = _givens(k, p, r)
            q = qc_matmul(qc_matmul(g, q), qc_conj_transpose(g))
        density.append(q)
    alg = FinDimAlgebra.of(*sizes)
    return alg, AlgState(alg, density)


def test_block_rule_against_mu_mu_star():
    # mu_mu_star is the second route: the block rule must agree with the
    # full operator on acceptance, delta^2 and the witness block's diagonal
    rng = random.Random(11)
    accepted = rotated = 0
    for case in range(40):
        alg, state = _random_state(rng, accept=case % 2 == 0)
        rotated += any(x.im != 0 for q in state.density for row in q for x in row)
        res = is_delta_form(alg, state)
        p = mu_mu_star(alg, state)
        lam = p[0][0]
        dim = alg.dim
        scalar = all(p[x][y] == (lam if x == y else QC_ZERO) for x in range(dim) for y in range(dim))
        assert res.is_delta_form == scalar
        if case % 2 == 0:
            assert res.is_delta_form
        if res.is_delta_form:
            accepted += 1
            assert qc(res.delta_squared) == lam
        else:
            block, observed, expected = res.witness
            assert expected == lam and observed != expected
            for x, (b, _, _) in enumerate(alg.basis_labels()):
                if b == block:
                    assert p[x][x] == observed
    assert 16 <= accepted <= 26
    assert rotated >= 20


def test_is_delta_form_reaches_neither_oracle(monkeypatch):
    def forbidden(*args):
        raise AssertionError("is_delta_form must not build the GNS operator")

    monkeypatch.setattr("qautk.findim.mu_mu_star", forbidden)
    monkeypatch.setattr("qautk.findim.gns_gram", forbidden)
    alg, state = _random_state(random.Random(3), accept=True)
    assert is_delta_form(alg, state).is_delta_form
    res = is_delta_form(FinDimAlgebra.of(1, 1), AlgState.commutative([Fraction(1, 3), Fraction(2, 3)]))
    assert not res.is_delta_form


def test_is_delta_form_checks_algebra_and_faithfulness():
    state = AlgState.trace_state(FinDimAlgebra.of(2))
    with pytest.raises(StateFormatError):
        is_delta_form(FinDimAlgebra.of(1, 1), state)
    alg = FinDimAlgebra.of(2, 1)
    singular = AlgState(alg, [[[qc(Fraction(1, 2)), QC_ZERO], [QC_ZERO, QC_ZERO]], [[qc(Fraction(1, 2))]]])
    assert not singular.faithful
    with pytest.raises(NonFaithfulStateError):
        is_delta_form(alg, singular)


def test_canonical_state_is_delta_form():
    for sizes in [(1,), (2,), (2, 3), (1, 2, 4), (3, 3, 3), (2, 3, 4, 5)]:
        alg = FinDimAlgebra.of(*sizes)
        state = AlgState.canonical(alg)
        for k, q in zip(sizes, state.density):
            assert q == [[qc(Fraction(k, alg.dim)) if i == j else QC_ZERO for j in range(k)] for i in range(k)]
        res = is_delta_form(alg, state)
        assert res.is_delta_form and res.delta_squared == sum(k * k for k in sizes)
