import json
import random
from fractions import Fraction

import pytest

from qautk import cli, resolution
from qautk.dims import DimVector
from qautk.exact_linalg import IntMatrix, LatticeBasis, _row_reduce, invariant_factors, kernel_basis
from qautk.repring import HALF_INTEGRAL, INTEGRAL, RepRingElement
from qautk.resolution import (
    TEST_ALGEBRA,
    TEST_OBJECTS,
    TEST_TRIVIAL,
    EvaluationMap,
    InconsistentComplexError,
    _d1_injective,
    _d1_matrix,
    _differential,
    _row_parities,
    _shift_kernel_basis,
    _source_generators,
    build_complex,
    check_exactness,
    derive_t_action,
)

S = RepRingElement.t_power(0, HALF_INTEGRAL)
ONE = RepRingElement.one()


def poly(*coeffs, parity=INTEGRAL):
    """Fusion-ring element from its coefficients, low degree first."""
    return RepRingElement.from_dict(parity, dict(enumerate(coeffs)))


def dense(d1):
    """Entries as coefficient tuples, low degree first; () for zero."""
    def coeffs(e):
        d = e.as_dict()
        return tuple(d.get(q, 0) for q in range(e.degree + 1))

    return tuple(tuple(coeffs(e) for e in row) for row in d1)


# -- the truncated route, kept as the oracle for check_exactness -------------

def _truncated_d0(ev, degree):
    """Matrix of the evaluation on degrees 0..degree, degree-major columns."""
    nslots = len(ev.slot_images)
    powers = [ev.t_power_images(s, degree) for s in range(nslots)]
    return IntMatrix.from_rows(
        [[powers[s][m][i] for m in range(degree + 1) for s in range(nslots)] for i in range(ev.target_rank)]
    )


def truncated_check(dims, test, degree_bound):
    """(d1_injective, uncovered, d0_surjective) of the complex truncated at
    degree_bound: the rank of a Hermite lattice of the truncated d1, each
    vector of the shift basis of ker d0 below degree_bound tested for
    membership in it, and the Smith invariants of the truncated d0."""
    d1, ev = resolution.build_complex(dims, test)
    tgt_len = (degree_bound + 2) * len(ev.slot_images)
    cols = resolution._truncated_d1_columns(d1, degree_bound)
    image = LatticeBasis.from_rows(cols, tgt_len)
    uncovered = next(
        (
            label
            for label, vec in _shift_kernel_basis(ev, degree_bound - 1)
            if not image.contains(vec + [0] * (tgt_len - len(vec)))
        ),
        None,
    )
    factors = invariant_factors(_truncated_d0(ev, degree_bound))
    r = ev.target_rank
    surjective = sum(1 for d in factors if d) == r and all(d == 1 for d in factors[:r])
    return image.rank == len(cols), uncovered, surjective


def test_trivial_test_display():
    d1, ev = build_complex(DimVector.of(2, 3), TEST_TRIVIAL)
    # diagonal ones, last column (-k_1, ..., -k_n, t)^T, last row (-k_j)
    assert dense(d1) == (
        ((1,), (), (-2,)),
        ((), (1,), (-3,)),
        ((-2,), (-3,), (0, 1)),
    )
    assert _row_parities(d1) == (HALF_INTEGRAL, HALF_INTEGRAL, INTEGRAL)
    assert d1[2][2] == RepRingElement.t_power(1)  # s * s = t
    assert ev.target_rank == 1
    assert ev.slot_images == ((2,), (3,), (1,))


def test_algebra_test_display():
    d1, ev = build_complex(DimVector.of(2, 3), TEST_ALGEBRA)
    # diagonal t entries, corner 1
    assert dense(d1) == (
        ((0, 1), (), (-2,)),
        ((), (0, 1), (-3,)),
        ((-2,), (-3,), (1,)),
    )
    assert ev.target_rank == 2
    assert ev.slot_images == ((1, 0), (0, 1), (2, 3))


def test_single_block_display():
    d1, _ = build_complex(DimVector.of(2), TEST_TRIVIAL)
    assert dense(d1) == (((1,), (-2,)), ((-2,), (0, 1)))


def test_test_objects_share_one_matrix():
    k = DimVector.of(2, 3, 5)
    d = _differential(k)
    zero = RepRingElement.zero()
    assert d == (
        (S, zero, zero, poly(-2)),
        (zero, S, zero, poly(-3)),
        (zero, zero, S, poly(-5)),
        (poly(-2), poly(-3), poly(-5), S),
    )
    assert _source_generators(3, TEST_TRIVIAL) == (ONE, ONE, ONE, S)
    assert _source_generators(3, TEST_ALGEBRA) == (S, S, S, ONE)
    for test in TEST_OBJECTS:
        gens = _source_generators(3, test)
        d1 = _d1_matrix(k, test)
        assert d1 == tuple(tuple(x.multiply(g) for x, g in zip(row, gens)) for row in d)
    half, whole = HALF_INTEGRAL, INTEGRAL
    assert _row_parities(_d1_matrix(k, TEST_TRIVIAL)) == (half, half, half, whole)
    assert _row_parities(_d1_matrix(k, TEST_ALGEBRA)) == (whole, whole, whole, half)


def test_derived_action_examples():
    assert derive_t_action(DimVector.of(1, 1, 1, 1), TEST_TRIVIAL) == 4
    t = derive_t_action(DimVector.of(1, 1, 1, 1), TEST_ALGEBRA)
    assert t.to_lists() == [[1] * 4] * 4
    assert derive_t_action(DimVector.of(2), TEST_ALGEBRA).to_lists() == [[4]]


def test_derived_action_closed_forms_random():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 5)
        dims = DimVector(tuple(rng.randint(1, 6) for _ in range(n)))
        tau = derive_t_action(dims, TEST_TRIVIAL)
        assert tau == dims.algebra_dim
        t = derive_t_action(dims, TEST_ALGEBRA)
        assert t.to_lists() == [[a * b for b in dims] for a in dims]


def test_composite_is_zero():
    # build_complex verifies d0 o d1 = 0 internally; re-check through evaluate
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        dims = DimVector(tuple(rng.randint(1, 5) for _ in range(n)))
        for test in TEST_OBJECTS:
            d1, ev = build_complex(dims, test)
            for s in range(len(d1[0])):
                column = [row[s] for row in d1]
                assert ev.evaluate(column) == (0,) * ev.target_rank


def test_evaluation_respects_t_action():
    d1, ev = build_complex(DimVector.of(2, 3), TEST_ALGEBRA)
    t = IntMatrix.from_rows(ev.t_action)
    # degree-raising by one twists the image by the action matrix
    parities = _row_parities(d1)
    for slot in range(len(ev.slot_images)):
        base = list(ev.slot_images[slot])
        shifted = ev.evaluate(
            [
                RepRingElement.t_power(1, parities[s]) if s == slot else RepRingElement.zero()
                for s in range(len(ev.slot_images))
            ]
        )
        assert shifted == t.apply(base)


def test_exactness_paper_shapes():
    assert check_exactness(DimVector.of(1, 1, 1, 1), TEST_TRIVIAL, 12).exact
    assert check_exactness(DimVector.of(2, 3), TEST_ALGEBRA, 12).exact
    for test in TEST_OBJECTS:
        report = check_exactness(DimVector.of(2), test, 12)
        assert report.exact
        assert report.d1_injective


def test_exactness_small_sweep():
    for n in (1, 2):
        for sizes in _tuples(n, 3):
            for test in TEST_OBJECTS:
                assert check_exactness(DimVector(sizes), test, 8).exact
    for sizes in ((1, 2, 3), (3, 3, 3)):
        for test in TEST_OBJECTS:
            assert check_exactness(DimVector(sizes), test, 12).exact


def _tuples(n, max_k):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, max_k + 1) for rest in _tuples(n - 1, max_k)]


def test_truncation_stability():
    for dims in (DimVector.of(2, 3), DimVector.of(1, 2), DimVector.of(4)):
        for test in TEST_OBJECTS:
            low = check_exactness(dims, test, 12)
            high = check_exactness(dims, test, 16)
            assert low.exact == high.exact
            assert low.d1_injective == high.d1_injective


def test_degree_bound_validation():
    with pytest.raises(ValueError):
        check_exactness(DimVector.of(2), TEST_TRIVIAL, 1)
    with pytest.raises(ValueError):
        check_exactness(DimVector.of(2), "X", 12)


def test_action_solver_rejects_bad_systems(monkeypatch):
    from qautk import resolution
    from qautk.resolution import InconsistentComplexError

    # with k = (1,) both slots evaluate to 1, so column j of d1 reads a_j + T b_j = 0
    def solve(d1):
        monkeypatch.setattr(resolution, "_d1_matrix", lambda k, test: d1)
        return derive_t_action(DimVector.of(1), TEST_TRIVIAL)

    assert solve(((poly(1), poly(2)), (poly(0, 1), poly(0, 2)))) == -1  # 1 + T = 0 and 2 + 2T = 0
    with pytest.raises(InconsistentComplexError, match="inconsistent"):
        solve(((poly(1), poly(2)), (poly(0, 1), poly(0, 1))))  # 1 + T = 0 and 2 + T = 0
    zero = RepRingElement.zero()
    with pytest.raises(InconsistentComplexError, match="not determined"):
        solve(((zero, zero), (zero, zero)))  # no constraint on T
    with pytest.raises(InconsistentComplexError, match="mixes"):
        # row 0 maps one source into Z[t] and the other into t^(1/2) Z[t]
        solve(((poly(1), poly(2, parity=HALF_INTEGRAL)), (poly(0, 1), poly(0, 2))))


def test_checker_flags_non_surjective_evaluation():
    # an evaluation landing in 2Z is reported as non-surjective by the
    # truncated route
    ev = EvaluationMap(
        target_rank=1,
        slot_images=((2,),),
        t_action=((3,),),
    )
    factors = invariant_factors(_truncated_d0(ev, 4))
    assert factors[0] != 1


def test_scope_warning_for_small_algebras():
    report = check_exactness(DimVector.of(1), TEST_TRIVIAL, 6)
    assert report.exact
    assert report.warnings and "below 4" in report.warnings[0]
    assert check_exactness(DimVector.of(2), TEST_TRIVIAL, 6).warnings == ()


def test_shift_basis_against_smith_kernel():
    # kernel_basis (one Hermite pass of [d0^T | I]) is the second route to ker d0
    rng = random.Random(9)
    for trial in range(24):
        n = rng.randint(1, 6)
        dims = DimVector(tuple(rng.randint(1, 9) for _ in range(n)))
        degree_bound = 2 + trial % 9
        for test in TEST_OBJECTS:
            _, ev = build_complex(dims, test)
            d0 = _truncated_d0(ev, degree_bound - 1)
            shift = [vec for _, vec in _shift_kernel_basis(ev, degree_bound - 1)]
            smith = [list(v) for v in kernel_basis(d0)]
            assert len(shift) == len(smith) == d0.cols - ev.target_rank
            for vec in shift:
                assert d0.apply(vec) == (0,) * ev.target_rank
            for basis, other in ((shift, smith), (smith, shift)):
                lattice = LatticeBasis.from_rows(other, d0.cols)
                assert all(lattice.contains(v) for v in basis)


def test_shift_basis_labels_and_sparsity():
    _, ev = build_complex(DimVector.of(2, 3), TEST_TRIVIAL)
    basis = _shift_kernel_basis(ev, 2)
    # slot 2 (image 1) is the unit slot, so degree 0 has the other two slots
    assert [label for label, _ in basis] == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert basis[0][1] == [1, 0, -2, 0, 0, 0, 0, 0, 0]
    # t acts by 13 on the target, so e_{1,1} = t * 3 goes to 3 * 13 at the unit slot one degree down
    assert basis[3][1] == [0, 0, -39, 0, 1, 0, 0, 0, 0]


def test_shift_basis_needs_a_unit_slot():
    ev = EvaluationMap(target_rank=1, slot_images=((2,), (3,)), t_action=((5,),))
    with pytest.raises(InconsistentComplexError, match="unit vector e_0"):
        _shift_kernel_basis(ev, 3)


def _double_first_d1_column(monkeypatch):
    truncated = resolution._truncated_d1_columns

    def doubled(d1, degree):
        cols = truncated(d1, degree)
        cols[0] = [2 * x for x in cols[0]]
        return cols

    monkeypatch.setattr(resolution, "_truncated_d1_columns", doubled)


def test_coverage_failure_names_first_uncovered_vector(monkeypatch, capsys):
    _double_first_d1_column(monkeypatch)
    # "C": column 0 is itself the shift vector with lead (0, 0); "A": the
    # degree-0 vector is covered, and lead (1, 0) is the first that needs column 0
    expected = {TEST_TRIVIAL: (0, 0), TEST_ALGEBRA: (1, 0)}
    for test in TEST_OBJECTS:
        report = check_exactness(DimVector.of(2, 3), test, 8)
        assert report.d1_injective
        assert not report.kernel_covered
        assert report.d0_surjective
        assert not report.exact
        assert report.uncovered == expected[test]
    code = cli.main(["resolution-check", "--dims", "2,3", "--degree", "8", "--json"])
    assert code == 1
    results = json.loads(capsys.readouterr().out)["results"]
    for test, (degree, slot) in expected.items():
        assert results[test]["kernel_covered"] is False
        assert results[test]["uncovered"] == {"degree": degree, "slot": slot}


def test_no_witness_when_covered():
    report = check_exactness(DimVector.of(2, 3), TEST_ALGEBRA, 8)
    assert report.kernel_covered and report.uncovered is None


def test_certificate_matches_truncated_oracle():
    rng = random.Random(12)
    for trial in range(40):
        n = rng.randint(1, 10)
        dims = DimVector(tuple(rng.randint(1, 12) for _ in range(n)))
        degree_bound = 2 + trial * 30 // 39  # 2..32
        for test in TEST_OBJECTS:
            report = check_exactness(dims, test, degree_bound)
            injective, uncovered, surjective = truncated_check(dims, test, degree_bound)
            assert report.d1_injective == injective
            assert report.kernel_covered == (uncovered is None)
            assert report.d0_surjective == surjective
            assert report.exact == report.all_degrees == (injective and uncovered is None and surjective)


def test_generator_shifts_span_the_truncated_kernel(monkeypatch):
    # the t-shifts of the generators that check_exactness certifies span
    # kernel_basis of the truncated d0 (the second route to ker d0)
    certified = []
    solve = resolution._solve_preimages

    def spy(d1, targets):
        certified.append(targets)
        return solve(d1, targets)

    monkeypatch.setattr(resolution, "_solve_preimages", spy)
    rng = random.Random(4)
    for trial in range(16):
        n = rng.randint(1, 6)
        dims = DimVector(tuple(rng.randint(1, 9) for _ in range(n)))
        degree = 1 + trial % 6
        for test in TEST_OBJECTS:
            assert check_exactness(dims, test, degree + 1).exact
            _, ev = build_complex(dims, test)
            nslots = len(ev.slot_images)
            generators = certified.pop()
            assert len(generators) == 2 * nslots - ev.target_rank
            width = (degree + 1) * nslots
            shifts = []  # t^j g for every j keeping the degree <= degree
            for g in generators:
                top = max(i for i, c in enumerate(g) if c) // nslots
                for j in range(degree - top + 1):
                    vec = [0] * width
                    vec[j * nslots : j * nslots + len(g)] = g[: width - j * nslots]
                    shifts.append(vec)
            d0 = _truncated_d0(ev, degree)
            smith = [list(v) for v in kernel_basis(d0)]
            assert all(d0.apply(v) == (0,) * ev.target_rank for v in shifts)
            lattice = LatticeBasis.from_rows(shifts, width)
            assert all(lattice.contains(v) for v in smith)


def _corrupt_complex(monkeypatch, corrupt):
    build = resolution.build_complex
    monkeypatch.setattr(resolution, "build_complex", lambda k, test: corrupt(*build(k, test)))


def test_wrong_t_shift_is_not_certified(monkeypatch):
    def corrupt(d1, ev):
        t = [list(row) for row in ev.t_action]
        t[0][-1] += 1
        return d1, EvaluationMap(ev.target_rank, ev.slot_images, tuple(map(tuple, t)))

    _corrupt_complex(monkeypatch, corrupt)
    for test in TEST_OBJECTS:
        report = check_exactness(DimVector.of(2, 3), test, 8)
        assert report.d1_injective and report.d0_surjective
        assert not report.kernel_covered and not report.exact
        assert report.uncovered[0] == 1  # only the degree-1 generators use T
        assert truncated_check(DimVector.of(2, 3), test, 8)[1] is not None


def test_corrupted_preimage_fails_the_product_check(monkeypatch):
    solve = resolution._solve_preimages

    def corrupt(d1, targets):
        solutions = solve(d1, targets)
        solutions[1][0] += 1  # still integral
        return solutions

    monkeypatch.setattr(resolution, "_solve_preimages", corrupt)
    for test in TEST_OBJECTS:
        _, ev = build_complex(DimVector.of(2, 3), test)
        report = check_exactness(DimVector.of(2, 3), test, 8)
        assert report.d1_injective and not report.kernel_covered
        assert report.uncovered == _shift_kernel_basis(ev, 1)[1][0]


def test_singular_d1_is_not_injective(monkeypatch):
    # replacing the corner t of the trivial test object's d1 by sum k_i^2
    # keeps d0 o d1 = 0 and makes det d1 = t - sum k_i^2 vanish: (k, 1) is in
    # the kernel
    dims = DimVector.of(2, 3)

    def corrupt(d1, ev):
        corner = RepRingElement.from_dict(d1[-1][-1].parity, {0: dims.algebra_dim})
        return d1[:-1] + (d1[-1][:-1] + (corner,),), ev

    _corrupt_complex(monkeypatch, corrupt)
    report = check_exactness(dims, TEST_TRIVIAL, 8)
    assert not report.d1_injective and not report.exact and not report.all_degrees
    assert truncated_check(dims, TEST_TRIVIAL, 8)[0] is False


def test_injectivity_tries_every_needed_evaluation_point():
    # diag(t - 0, ..., t - c + 1) is singular at t0 = 0..c-1 and injective;
    # with the last entry t - c it is singular at t0 = c as well
    zero = RepRingElement.zero()
    for c in range(1, 6):
        entries = [poly(-j, 1) if j else poly(0, 1) for j in range(c)]
        diag = tuple(tuple(entries[i] if i == j else zero for j in range(c)) for i in range(c))
        assert _d1_injective(diag)
        shifted = [poly(-j - 1, 1) for j in range(c)]
        diag = tuple(tuple(shifted[i] if i == j else zero for j in range(c)) for i in range(c))
        assert _d1_injective(diag)
        rank_one = tuple((poly(1, 1),) * c for _ in range(c))
        assert _d1_injective(rank_one) == (c == 1)


def test_degree_bound_does_not_drive_the_cost(monkeypatch, capsys):
    degrees = []
    truncate = resolution._truncated_d1_columns

    def spy(d1, degree):
        degrees.append(degree)
        return truncate(d1, degree)

    monkeypatch.setattr(resolution, "_truncated_d1_columns", spy)
    code = cli.main(["resolution-check", "--dims", "2,3", "--degree", "100000", "--json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert degrees and max(degrees) <= 2
    for test in TEST_OBJECTS:
        assert results[test]["exact"] is results[test]["all_degrees"] is True
        assert results[test]["certified_degree"] == 99999


def fraction_solve_preimages(d1, targets):
    """A solution over Q of d1 x = g in the degree-2 truncation for each
    target g, free coordinates zero, from one reduced echelon form of
    [d1 | g_1 ... g_N]: the oracle for the integer back-substitution."""
    cols = resolution._truncated_d1_columns(d1, 2)
    nunk = len(cols)
    rows = []
    for i in range(len(cols[0])):
        row = {j: Fraction(col[i]) for j, col in enumerate(cols) if col[i]}
        row.update((nunk + g, Fraction(vec[i])) for g, vec in enumerate(targets) if i < len(vec) and vec[i])
        rows.append(row)
    reduced, pivots = _row_reduce(rows)
    solutions = [[Fraction(0)] * nunk for _ in targets]
    for row, p in zip(reduced, pivots):
        if p < nunk:
            for c, x in row.items():
                if c >= nunk:
                    solutions[c - nunk][p] = x
    return solutions


def test_integer_preimages_match_the_fraction_oracle():
    rng = random.Random(21)
    for _ in range(40):
        dims = DimVector(tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 10))))
        for test in TEST_OBJECTS:
            d1, ev = build_complex(dims, test)
            targets = [g for _, g in _shift_kernel_basis(ev, 1)]
            # a target outside ker d0 too: its candidate must not pass
            targets.append([1] + [0] * (len(targets[0]) - 1))
            solutions = resolution._solve_preimages(d1, targets)
            assert all(type(v) is int for x in solutions for v in x)
            oracle = fraction_solve_preimages(d1, targets)
            assert solutions[:-1] == oracle[:-1]
            terms = resolution._column_terms(d1)
            assert all(resolution._is_preimage(terms, x, g) for x, g in zip(solutions[:-1], targets))
            assert not resolution._is_preimage(terms, solutions[-1], targets[-1])
