import math
import random
from fractions import Fraction

import pytest

from qautk.exact_linalg import _row_reduce
from qautk.findim import (
    AlgState,
    ComplexRational,
    DeltaFormResult,
    FinDimAlgebra,
    NonFaithfulStateError,
    QC_ZERO,
    StateFormatError,
    is_delta_form,
    qc,
    qc_is_hermitian,
)

from findim_oracle import (
    gns_gram,
    mu_mu_star,
    qc_char_coefficients,
    qc_conj_transpose,
    qc_identity,
    qc_matmul,
    reference_delta_form,
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


def test_is_delta_form_reaches_neither_oracle():
    # the second routes live in tests/findim_oracle.py only
    import qautk
    import qautk.findim

    for name in ("mu_mu_star", "gns_gram", "qc_char_coefficients", "qc_matmul", "_basis_index_maps"):
        assert not hasattr(qautk.findim, name), name
        assert not hasattr(qautk, name), name
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


# ---------------------------------------------------------------------------
# The LDL* route against Faddeev-LeVerrier and mu_mu_star
# ---------------------------------------------------------------------------

def _outcome(route, alg, density):
    """(decision, delta^2, witness), or (exception type, message)."""
    try:
        res = route(alg, density)
    except (StateFormatError, NonFaithfulStateError) as exc:
        return type(exc), str(exc)
    return res.is_delta_form, res.delta_squared, res.witness


def _ldl_route(alg, density):
    return is_delta_form(alg, AlgState(alg, density))


def _assert_routes_agree(alg, density):
    """The LDL* route gives the outcome of Faddeev-LeVerrier, and on small
    algebras mu_mu_star is scalar exactly when it accepts."""
    got = _outcome(_ldl_route, alg, density)
    assert got == _outcome(reference_delta_form, alg, density)
    if alg.dim <= 14 and isinstance(got[0], bool):
        p = mu_mu_star(alg, AlgState(alg, density))
        lam = p[0][0]
        assert got[0] == all(p[x][y] == (lam if x == y else QC_ZERO) for x in range(alg.dim) for y in range(alg.dim))
        if got[0]:
            assert qc(got[1]) == lam
        else:
            block, observed, expected = got[2]
            assert expected == lam
            assert all(p[x][x] == observed for x, (b, _, _) in enumerate(alg.basis_labels()) if b == block)
    return got


def _gaussian(rng, rows, cols, bound=3):
    return [[qc(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


def _unit_lower(rng, k):
    lower = _gaussian(rng, k, k)
    return [[qc(1) if i == j else (x if j < i else QC_ZERO) for j, x in enumerate(row)] for i, row in enumerate(lower)]


def _congruent(rng, middle):
    """L B L* for a seeded unit lower triangular L: its LDL* pivots and
    Schur complements are those of B."""
    lower = _unit_lower(rng, len(middle))
    return qc_matmul(qc_matmul(lower, middle), qc_conj_transpose(lower))


def _diagonal(values):
    return [[qc(v) if i == j else QC_ZERO for j in range(len(values))] for i, v in enumerate(values)]


def _scaled(q, c):
    return [[x * qc(c) for x in row] for row in q]


def _oracle_inverse_trace(q):
    e = qc_char_coefficients(q)
    return (e[-2] if len(e) > 1 else 1) / e[-1]


def _normalized(blocks, equalize=False):
    """The algebra and the density from positive semidefinite blocks with
    total trace one; when `equalize`, block i is first scaled by its
    Tr(Q_i^-1) from the oracle, so that every block has the same value."""
    if equalize:
        blocks = [_scaled(q, _oracle_inverse_trace(q)) for q in blocks]
    total = sum(q[i][i].re for q in blocks for i in range(len(q)))
    return FinDimAlgebra.of(*(len(q) for q in blocks)), [_scaled(q, 1 / total) for q in blocks]


def test_ldl_route_matches_faddeev_leverrier_on_rotated_states():
    # test_block_rule_against_mu_mu_star checks mu_mu_star on the same states
    rng = random.Random(11)
    decisions = set()
    for case in range(40):
        alg, state = _random_state(rng, accept=case % 2 == 0)
        got = _outcome(_ldl_route, alg, state.density)
        assert got == _outcome(reference_delta_form, alg, state.density)
        decisions.add(got[0])
    assert decisions == {True, False}


def test_ldl_route_matches_oracles_on_dense_complex_blocks():
    rng = random.Random(20)
    decisions, complex_cases = set(), 0
    for case in range(24):
        small = case % 3 == 0  # small enough for mu_mu_star
        sizes = [rng.randint(1, 3 if small else 8) for _ in range(rng.randint(1, 2 if small else 3))]
        while small and sum(k * k for k in sizes) > 14:
            sizes.pop()
        blocks = [qc_matmul(a, qc_conj_transpose(a)) for a in (_gaussian(rng, k, k) for k in sizes)]
        blocks = [[[x + qc(i == j) for j, x in enumerate(row)] for i, row in enumerate(q)] for q in blocks]
        alg, density = _normalized(blocks, equalize=case % 2 == 0)
        complex_cases += any(x.im for q in density for row in q for x in row)
        decisions.add(_assert_routes_agree(alg, density)[0])
    assert decisions == {True, False}
    assert complex_cases >= 20


def test_ldl_route_matches_oracles_on_one_by_one_and_zero_blocks():
    third, half = Fraction(1, 3), Fraction(1, 2)
    cases = [
        ([1], [[[1]]]),
        ([1, 1, 1], [[[third]], [[third]], [[third]]]),
        ([1, 1], [[[third]], [[2 * third]]]),
        ([1, 1], [[[0]], [[1]]]),
        ([1, 1], [[[-1]], [[2]]]),
        ([2, 1], [[[0, 0], [0, 0]], [[1]]]),
        ([1, 2], [[[1]], [[0, 0], [0, 0]]]),
        ([2, 1], [[[half, 0], [0, 0]], [[half]]]),
        ([1, 2], [[[half]], [[0, 0], [0, 0]]]),
    ]
    outcomes = []
    for sizes, density in cases:
        outcomes.append(_assert_routes_agree(FinDimAlgebra.of(*sizes), [[[qc(x) for x in row] for row in q] for q in density]))
    assert outcomes[0] == (True, 1, None)
    assert outcomes[3][0] is NonFaithfulStateError and outcomes[5][0] is NonFaithfulStateError
    assert outcomes[4] == (StateFormatError, "density block is not positive semidefinite")
    assert outcomes[8] == (StateFormatError, "total trace is 1/2, expected 1")


def test_ldl_route_matches_oracles_on_indefinite_blocks():
    # the LDL* pivots of L D L* are D: one negative pivot at the start, in
    # the middle or at the end, behind a valid first block
    rng = random.Random(21)
    for k in (1, 3, 5, 8):
        for j in sorted({0, k // 2, k - 1}):
            pivots = [rng.randint(1, 5) for _ in range(k)]
            pivots[j] = -rng.randint(1, 5)
            q = _congruent(rng, _diagonal(pivots))
            alg = FinDimAlgebra.of(2, k)
            density = [_diagonal([Fraction(1, 4), Fraction(1, 4)]), q]
            assert _assert_routes_agree(alg, density) == (StateFormatError, "density block is not positive semidefinite")
            # an indefinite first block is reported before a non-Hermitian second one
            skew = [[qc(1), qc(1)], [QC_ZERO, qc(1)]]
            assert _assert_routes_agree(FinDimAlgebra.of(k, 2), [q, skew])[1] == "density block is not positive semidefinite"


def test_ldl_route_matches_oracles_on_singular_semidefinite_blocks():
    rng = random.Random(22)
    for case in range(12):
        k = rng.randint(2, 7)
        if case % 2:
            a = _gaussian(rng, k, rng.randint(1, k - 1))  # rank-deficient A A*
            q = qc_matmul(a, qc_conj_transpose(a))
        else:
            pivots = [rng.randint(1, 5) for _ in range(k)]
            pivots[rng.randrange(k)] = 0  # a zero pivot whose column is zero
            q = _congruent(rng, _diagonal(pivots))
        other = _gaussian(rng, 2, 2)
        alg, density = _normalized([qc_matmul(other, qc_conj_transpose(other)), q])
        state = AlgState(alg, density)
        assert not state.faithful and state.inverse_traces[1] is None
        assert _assert_routes_agree(alg, density) == (
            NonFaithfulStateError, "state is not faithful: some density block is singular")
        # the total trace is checked before faithfulness
        doubled = [_scaled(q, 2) for q in density]
        assert _assert_routes_agree(alg, doubled) == (StateFormatError, "total trace is 2, expected 1")


def test_ldl_route_matches_oracles_on_zero_pivot_with_nonzero_column():
    # [[0, 1], [1, 1]] has determinant -1; set between identity blocks and
    # moved by a unit lower triangular congruence it is the Schur complement
    # the pass meets at pivot j = before
    rng = random.Random(23)
    for before, after in [(0, 0), (0, 3), (2, 0), (2, 3), (5, 1)]:
        k = before + 2 + after
        middle = _diagonal([1] * k)
        middle[before][before] = QC_ZERO
        middle[before][before + 1] = middle[before + 1][before] = qc(1)
        q = _congruent(rng, middle)
        assert _assert_routes_agree(FinDimAlgebra.of(k), [q]) == (
            StateFormatError, "density block is not positive semidefinite")


def test_delta_form_makes_at_most_k_cubed_products_on_a_dense_block(monkeypatch):
    # Faddeev-LeVerrier made k^4 = 65,536 complex products on this block;
    # the rational products are counted too, at four per complex product
    k = 16
    a = _gaussian(random.Random(16), k, k)
    q = qc_matmul(a, qc_conj_transpose(a))
    alg, density = _normalized([[[x + qc(i == j) for j, x in enumerate(row)] for i, row in enumerate(q)]])
    counts = {ComplexRational: 0, Fraction: 0}

    def counting(cls):
        multiply = cls.__mul__

        def spy(self, other):
            counts[cls] += 1
            return multiply(self, other)

        return spy

    for cls in counts:
        monkeypatch.setattr(cls, "__mul__", counting(cls))
    res = is_delta_form(alg, AlgState(alg, density))
    monkeypatch.undo()
    assert res.is_delta_form
    assert 0 < counts[ComplexRational] <= k ** 3
    assert counts[Fraction] <= 4 * k ** 3


def _is_nearest_float(f: float, x: Fraction) -> bool:
    """f is a float nearest sqrt(x): x lies between the squared midpoints to
    the neighbouring floats."""
    below = (Fraction(f) + Fraction(math.nextafter(f, 0))) / 2
    above = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return below * below <= x <= above * above


def test_delta_is_the_nearest_float_without_passing_through_float():
    rng = random.Random(24)
    values = [Fraction(4), Fraction(9, 4), Fraction(3), Fraction(10) ** 400, Fraction(10) ** 400 + 1]
    values += [Fraction(rng.getrandbits(rng.randint(1, 2000)) + 1, rng.getrandbits(rng.randint(1, 2000)) + 1)
               for _ in range(300)]
    for x in values:
        delta = DeltaFormResult(True, x, None).delta
        if x < Fraction(2) ** 2040:
            assert _is_nearest_float(delta, x), x
        if x.denominator == 1 and x.numerator < 2 ** 53:
            assert delta == math.sqrt(x)
    assert DeltaFormResult(True, Fraction(10) ** 400, None).delta == 1e200
    # just above and just below the midpoint 2^53 + 1 between two floats
    assert DeltaFormResult(True, Fraction((2 ** 53 + 1) ** 2 + 1), None).delta == 2.0 ** 53 + 2
    assert DeltaFormResult(True, Fraction((2 ** 53 + 1) ** 2 - 1), None).delta == 2.0 ** 53
    assert DeltaFormResult(True, Fraction(10) ** 700, None).delta is None
    assert DeltaFormResult(False, None, (1, qc(1), qc(2))).delta is None
    # at the top of the float range: the midpoint to the next binade rounds to even, beyond the range
    top = Fraction(math.nextafter(math.inf, 0))
    midpoint = top + Fraction(2) ** 970
    assert DeltaFormResult(True, top * top, None).delta == float(top)
    assert DeltaFormResult(True, midpoint * midpoint - 1, None).delta == float(top)
    assert DeltaFormResult(True, midpoint * midpoint, None).delta is None
