import math
import random

import pytest

from qautk import exact_linalg, ktheory
from qautk.dims import DimVector, random_dim_vectors
from qautk.exact_linalg import CertificateError, FgAbelianGroup, IntMatrix
from qautk.ktheory import boundary_matrix, closed_form, k_theory, verify_theorem

from ktheory_oracle import hermite_k_theory

# the verify-wide inputs on which min-pivot Smith once ran for minutes
WIDE_INPUTS = (
    DimVector.parse("1532,8680,8357,4888,2392,2099"),
    DimVector.parse("2,3,8,12,3,3,9,12,3,5,2,4,11,5,8,8,9,8,10,12,4,5,11,11,6,11,8,8,3,8,5"),
)


def test_boundary_single_block():
    assert boundary_matrix(DimVector.of(2)).to_lists() == [[2, -2], [-2, 2]]


def test_boundary_unit_blocks():
    b = boundary_matrix(DimVector.of(1, 1, 1, 1))
    assert (b.rows, b.cols) == (17, 8)
    assert list(b.row(0)) == [1, 0, 0, 0, -1, 0, 0, 0]
    assert list(b.row(16)) == [-1, -1, -1, -1, 1, 1, 1, 1]


def test_boundary_two_blocks():
    b = boundary_matrix(DimVector.of(2, 4))
    assert (b.rows, b.cols) == (5, 4)
    assert list(b.row(4)) == [-2, -4, 2, 4]
    assert b.to_lists()[:4] == [
        [2, 0, -2, 0],
        [4, 0, 0, -2],
        [0, 2, -4, 0],
        [0, 4, 0, -4],
    ]


def test_k_theory_named_values():
    res = k_theory(DimVector.of(1, 1, 1, 1, 1))
    assert res.k0 == FgAbelianGroup(17, ())
    assert res.k1 == FgAbelianGroup(1, ())

    res = k_theory(DimVector.of(2))
    assert res.k0 == FgAbelianGroup(1, (2,))
    assert res.k1 == FgAbelianGroup(1, ())

    res = k_theory(DimVector.of(2, 4))
    assert res.k0 == FgAbelianGroup(2, (2, 2, 2))
    assert res.kernel_generator == (1, 2, 1, 2)


def test_closed_form_values():
    assert closed_form(DimVector.of(1, 2)) == (FgAbelianGroup(2, ()), FgAbelianGroup(1, ()))
    assert closed_form(DimVector.of(3, 3, 3)) == (
        FgAbelianGroup(5, (3,) * 5),
        FgAbelianGroup(1, ()),
    )
    assert closed_form(DimVector.of(1)) == (FgAbelianGroup(1, ()), FgAbelianGroup(1, ()))


def test_scope_warning():
    assert k_theory(DimVector.of(1)).warnings
    assert not k_theory(DimVector.of(2)).warnings


def test_verify_named():
    assert verify_theorem(DimVector.of(1, 1, 1, 1))
    assert verify_theorem(DimVector.of(2))


def test_verify_random_sweep():
    for dims in random_dim_vectors(100, 6, 8, seed=17):
        assert verify_theorem(dims), dims


def test_kernel_generator_structure():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 6)
        dims = DimVector(tuple(rng.randint(1, 8) for _ in range(n)))
        res = k_theory(dims)
        gen = res.kernel_generator
        assert len(gen) == 2 * n
        a = gen[:n]
        assert gen[n:] == a
        for i in range(n):
            for j in range(n):
                assert dims[i] * a[j] == dims[j] * a[i]
        d = dims.gcd
        assert tuple(abs(x) for x in a) == tuple(k // d for k in dims)


def test_cokernel_free_summand():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 5)
        dims = DimVector(tuple(rng.randint(1, 7) for _ in range(n)))
        assert k_theory(dims).k0.free_rank >= 1


def test_scaling_behaviour():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        base = tuple(rng.randint(1, 4) for _ in range(n))
        c = rng.randint(2, 3)
        small = k_theory(DimVector(base))
        big = k_theory(DimVector(tuple(c * k for k in base)))
        assert small.k0.free_rank == big.k0.free_rank
        d = math.gcd(*base) if n > 1 else base[0]
        assert big.k0.torsion == (c * d,) * (2 * n - 1)
        if d > 1:
            assert small.k0.torsion == (d,) * (2 * n - 1)


def dense_boundary_matrix(k):
    """The boundary matrix built densely, row by row: the oracle for the
    sparse builder."""
    n = k.n
    sizes = list(k)
    entries = []
    for i in range(n):
        for a in range(n):
            row = [0] * (2 * n)
            row[i] = sizes[a]
            row[n + a] = -sizes[i]
            entries += row
    entries += [-x for x in sizes] + sizes
    return n * n + 1, 2 * n, entries


def test_sparse_boundary_matches_dense_oracle():
    rng = random.Random(13)
    vectors = [DimVector.of(1), DimVector.of(2, 4)] + [
        DimVector(tuple(rng.randint(1, 15) for _ in range(rng.randint(1, 12)))) for _ in range(40)
    ]
    for k in vectors:
        rows, cols, entries = dense_boundary_matrix(k)
        b = boundary_matrix(k)
        assert (b.rows, b.cols) == (rows, cols)
        assert b.entries == tuple(entries)


def assert_matches_hermite_route(dims):
    k0, k1, kernel = hermite_k_theory(dims)
    res = k_theory(dims)
    assert (res.k0, res.k1, [res.kernel_generator]) == (k0, k1, kernel), dims


def test_certificate_matches_hermite_route_for_every_n_up_to_40():
    rng = random.Random(41)
    for n in range(1, 41):
        for scale in (1, rng.choice((2, 3, 6))):
            top = rng.choice((12, 10**4))
            assert_matches_hermite_route(DimVector(tuple(scale * rng.randint(1, top) for _ in range(n))))


@pytest.mark.parametrize("dims", WIDE_INPUTS, ids=str)
def test_certificate_matches_hermite_route_on_wide_inputs(dims):
    assert_matches_hermite_route(dims)


def test_k_theory_runs_no_hermite_pass(monkeypatch):
    # a cost guard: the certificate is checked by O(n^2) products alone
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("_hermite_pass", "_hnf_engine", "kernel_basis", "invariant_factors", "smith_normal_form"):
        spy(exact_linalg, name)
    spy(ktheory, "kernel_basis")
    assert not hasattr(ktheory, "cokernel")
    for dims in WIDE_INPUTS + (DimVector.of(1), DimVector.of(6, 6, 6), DimVector(tuple(range(1, 41)))):
        k_theory(dims)
    assert calls == []
    hermite_k_theory(DimVector.of(2, 4))  # the spies do see Hermite passes
    assert {"_hermite_pass", "_hnf_engine"} <= set(calls)


def corrupt_boundary(monkeypatch, row, col, delta):
    build = ktheory.boundary_matrix

    def corrupted(k):
        rows = build(k).to_lists()
        rows[row][col] += delta
        return IntMatrix.from_rows(rows)

    monkeypatch.setattr(ktheory, "boundary_matrix", corrupted)


@pytest.mark.parametrize("row, col, delta, step", [
    (0, 0, 1, "step 1 (A = d A'): d = 2 does not divide A[0][0] = 3"),
    (0, 0, 2, "step 2 (A' v = 0): (A' v)[0] = 1"),
    (5, 3, 2, "step 2 (A' v = 0): (A' v)[5] = 1"),
])
def test_corrupted_boundary_is_refused(monkeypatch, row, col, delta, step):
    corrupt_boundary(monkeypatch, row, col, delta)
    with pytest.raises(CertificateError) as info:
        k_theory(DimVector.of(2, 4, 6))
    assert str(info.value) == f"boundary certificate {step}"


def test_wrong_bezout_vector_is_refused(monkeypatch):
    bezout = ktheory._bezout
    monkeypatch.setattr(ktheory, "_bezout", lambda sizes: [bezout(sizes)[0] + 1] + bezout(sizes)[1:])
    with pytest.raises(CertificateError, match=r"step 3 \(Y A' = M\): entry \(0, 0\) is 2, expected 1"):
        k_theory(DimVector.of(1, 2, 3))


def test_bezout_vector():
    rng = random.Random(43)
    for _ in range(200):
        sizes = [rng.randint(1, 10**4) for _ in range(rng.randint(1, 12))]
        beta = ktheory._bezout(sizes)
        assert sum(b * k for b, k in zip(beta, sizes)) == math.gcd(*sizes)
