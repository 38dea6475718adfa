import random

import pytest

from qautk.dims import DimVector
from qautk.repring import HALF_INTEGRAL, INTEGRAL
from qautk.resolution import (
    TEST_ALGEBRA,
    TEST_OBJECTS,
    TEST_TRIVIAL,
    build_complex,
    check_exactness,
    derive_t_action,
)


def test_trivial_test_display():
    d1, ev = build_complex(DimVector.of(2, 3), TEST_TRIVIAL)
    # diagonal ones, last column (-k_1, ..., -k_n, t)^T, last row (-k_j)
    assert d1.entries == (
        ((1,), (), (-2,)),
        ((), (1,), (-3,)),
        ((-2,), (-3,), (0, 1)),
    )
    assert d1.row_parities == (HALF_INTEGRAL, HALF_INTEGRAL, INTEGRAL)
    assert d1.col_parities == (INTEGRAL, INTEGRAL, HALF_INTEGRAL)
    assert ev.target_rank == 1
    assert ev.slot_images == ((2,), (3,), (1,))


def test_algebra_test_display():
    d1, ev = build_complex(DimVector.of(2, 3), TEST_ALGEBRA)
    # diagonal t entries, corner 1
    assert d1.entries == (
        ((0, 1), (), (-2,)),
        ((), (0, 1), (-3,)),
        ((-2,), (-3,), (1,)),
    )
    assert ev.target_rank == 2
    assert ev.slot_images == ((1, 0), (0, 1), (2, 3))


def test_single_block_display():
    d1, _ = build_complex(DimVector.of(2), TEST_TRIVIAL)
    assert d1.entries == (((1,), (-2,)), ((-2,), (0, 1)))


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
            nrows, ncols = d1.shape
            for s in range(ncols):
                column = [d1.entry(slot, s) for slot in range(nrows)]
                assert ev.evaluate(column) == (0,) * ev.target_rank


def test_evaluation_respects_t_action():
    _, ev = build_complex(DimVector.of(2, 3), TEST_ALGEBRA)
    t = ev.t_matrix()
    # degree-raising by one twists the image by the action matrix
    for slot in range(len(ev.slot_images)):
        base = list(ev.slot_images[slot])
        shifted = ev.evaluate(
            [(0, 1) if s == slot else () for s in range(len(ev.slot_images))]
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
    from qautk.resolution import InconsistentComplexError, ModuleMatrix

    # with k = (1,) both slots evaluate to 1, so column j of d1 reads a_j + T b_j = 0
    def solve(entries):
        d1 = ModuleMatrix((INTEGRAL, INTEGRAL), (INTEGRAL, INTEGRAL), entries)
        monkeypatch.setattr(resolution, "_d1_matrix", lambda k, test: d1)
        return derive_t_action(DimVector.of(1), TEST_TRIVIAL)

    assert solve((((1,), (2,)), ((0, 1), (0, 2)))) == -1  # 1 + T = 0 and 2 + 2T = 0
    with pytest.raises(InconsistentComplexError, match="inconsistent"):
        solve((((1,), (2,)), ((0, 1), (0, 1))))  # 1 + T = 0 and 2 + T = 0
    with pytest.raises(InconsistentComplexError, match="not determined"):
        solve((((), ()), ((), ())))  # no constraint on T


def test_checker_flags_non_surjective_evaluation():
    # an evaluation landing in 2Z is reported as non-surjective by the same
    # machinery check_exactness uses
    from qautk.exact_linalg import invariant_factors
    from qautk.resolution import EvaluationMap, _truncated_d0

    ev = EvaluationMap(
        target_rank=1,
        slot_images=((2,),),
        slot_parities=(INTEGRAL,),
        t_action=((3,),),
    )
    factors = invariant_factors(_truncated_d0(ev, 4))
    assert factors[0] != 1


def test_scope_warning_for_small_algebras():
    report = check_exactness(DimVector.of(1), TEST_TRIVIAL, 6)
    assert report.exact
    assert report.warnings and "below 4" in report.warnings[0]
    assert check_exactness(DimVector.of(2), TEST_TRIVIAL, 6).warnings == ()
