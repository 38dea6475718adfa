import json
import random

import pytest

from qautk import cli, resolution
from qautk.dims import DimVector
from qautk.exact_linalg import LatticeBasis, kernel_basis
from qautk.repring import HALF_INTEGRAL, INTEGRAL, RepRingElement
from qautk.resolution import (
    TEST_ALGEBRA,
    TEST_OBJECTS,
    TEST_TRIVIAL,
    EvaluationMap,
    InconsistentComplexError,
    _d1_matrix,
    _differential,
    _row_parities,
    _shift_kernel_basis,
    _source_generators,
    _truncated_d0,
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
    t = ev.t_matrix()
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
    # an evaluation landing in 2Z is reported as non-surjective by the same
    # machinery check_exactness uses
    from qautk.exact_linalg import invariant_factors
    from qautk.resolution import EvaluationMap, _truncated_d0

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
    # kernel_basis (Smith with V) is the second route to ker d0
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
