"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from qautk.dims import DimVector, random_dim_vectors
from qautk.exact_linalg import FgAbelianGroup, IntMatrix, smith_normal_form
from qautk.findim import AlgState, FinDimAlgebra, is_delta_form, qc
from qautk.ktheory import closed_form, k_theory
from qautk.magic import generator_rank_report
from qautk.resolution import TEST_ALGEBRA, TEST_OBJECTS, TEST_TRIVIAL, check_exactness, derive_t_action
from qautk.torsion import (
    Cocycle,
    FiniteGroup,
    block_decomposition,
    extract_torsion_data,
    regular_class_count,
    twisted_group_algebra,
)

SWEEP_SAMPLES = 200
SWEEP_SEED = 0


def all_dim_vectors(max_blocks: int, max_size: int) -> list[DimVector]:
    """Every dimension vector with n <= max_blocks and k_i <= max_size."""
    out: list[DimVector] = []

    def extend(prefix: list[int]):
        if prefix:
            out.append(DimVector(tuple(prefix)))
        if len(prefix) == max_blocks:
            return
        for k in range(1, max_size + 1):
            prefix.append(k)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _sweep_samples():
    return random_dim_vectors(SWEEP_SAMPLES, 6, 8, seed=SWEEP_SEED)


def test_criterion_1_theorem_reproduction_sweep():
    start = time.perf_counter()
    ok = True
    for dims in _sweep_samples():
        result = k_theory(dims)
        expected_k0, expected_k1 = closed_form(dims)
        if result.k0 != expected_k0 or result.k1 != expected_k1:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report("1 (theorem sweep, 200 samples)", ok, f"{elapsed:.2f}s < 30s")


def test_criterion_2_named_instances():
    ok = k_theory(DimVector.of(1, 1, 1, 1)).k0 == FgAbelianGroup(10, ())
    for n in (4, 5, 6):
        dims = DimVector(tuple([1] * n))
        ok = ok and k_theory(dims).k0 == FgAbelianGroup(n * n - 2 * n + 2, ())
        ok = ok and k_theory(dims).k1 == FgAbelianGroup(1, ())
    res2 = k_theory(DimVector.of(2))
    ok = ok and res2.k0 == FgAbelianGroup(1, (2,)) and res2.k1 == FgAbelianGroup(1, ())
    _report("2 (named instances)", ok)


def test_criterion_3_kernel_structure():
    ok = True
    for dims in _sweep_samples():
        result = k_theory(dims)
        if result.k1 != FgAbelianGroup(1, ()):
            ok = False
            break
        d = dims.gcd
        expected = tuple(k // d for k in dims) * 2
        gen = result.kernel_generator
        if gen != expected and gen != tuple(-x for x in expected):
            ok = False
            break
    _report("3 (kernel generator k/d pattern)", ok)


def test_criterion_4_resolution_exactness():
    start = time.perf_counter()
    ok = True
    for dims in all_dim_vectors(4, 4):
        tau = derive_t_action(dims, TEST_TRIVIAL)
        if tau != dims.algebra_dim:
            ok = False
            break
        t_mat = derive_t_action(dims, TEST_ALGEBRA)
        if t_mat.to_lists() != [[a * b for b in dims] for a in dims]:
            ok = False
            break
        for test in TEST_OBJECTS:
            if not check_exactness(dims, test, 12).exact:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report("4 (resolution exactness n<=4, k<=4, D=12)", ok, f"{elapsed:.2f}s < 60s")


def _bareiss_determinant(a: IntMatrix) -> int:
    """Reference determinant by fraction-free (Bareiss) elimination."""
    n = a.rows
    assert a.cols == n
    if n == 0:
        return 1
    m = a.to_lists()
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor_gcds(a: IntMatrix):
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntMatrix.from_rows([[a.at(i, j) for j in cols] for i in rows])
                g = math.gcd(g, _bareiss_determinant(sub))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
        if g == 0:
            break
    return out


def test_criterion_5_snf_property_suite():
    rng = random.Random(2024)
    ok = True
    for _ in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        a = IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        dec = smith_normal_form(a)
        if (dec.U @ a @ dec.V).entries != dec.S.entries:
            ok = False
            break
        if abs(_bareiss_determinant(dec.U)) != 1 or abs(_bareiss_determinant(dec.V)) != 1:
            ok = False
            break
        factors = dec.invariant_factors
        nonzero = [d for d in factors if d]
        if list(factors[: len(nonzero)]) != nonzero or any(d < 0 for d in factors):
            ok = False
            break
        if any(y % x for x, y in zip(nonzero, nonzero[1:])):
            ok = False
            break
        prev = 1
        for k, g in enumerate(_minor_gcds(a)):
            if g == 0:
                if any(d != 0 for d in factors[k:]):
                    ok = False
                break
            if factors[k] != g // prev:
                ok = False
                break
            prev = g
        if not ok:
            break
    _report("5 (SNF property suite, 500 matrices)", ok)


def test_criterion_6_delta_forms():
    ok = True
    for n in range(2, 10):
        res = is_delta_form(FinDimAlgebra.of(*([1] * n)), AlgState.uniform_trace(n))
        if not (res.is_delta_form and res.delta_squared == Fraction(n)):
            ok = False
            break
    res = is_delta_form(
        FinDimAlgebra.of(1, 1), AlgState.commutative([Fraction(1, 3), Fraction(2, 3)])
    )
    ok = ok and not res.is_delta_form and res.witness is not None
    ok = ok and res.witness[1] in (qc(3), qc(Fraction(3, 2)))
    _report("6 (delta-forms on C^n and the rejected state)", ok)


def test_criterion_7_torsion_roundtrip():
    ok = block_decomposition(
        twisted_group_algebra(Cocycle.pauli())
    ) == (2,)
    c2 = FiniteGroup.cyclic(2)
    c3 = FiniteGroup.cyclic(3)
    ok = ok and block_decomposition(twisted_group_algebra(Cocycle.trivial(c2))) == (1, 1)
    ok = ok and block_decomposition(twisted_group_algebra(Cocycle.trivial(c3))) == (1, 1, 1)

    groups = [
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
    rng = random.Random(SWEEP_SEED)
    for group in groups:
        cocycles = [Cocycle.trivial(group)]
        for _ in range(2):
            beta = [rng.randrange(4) for _ in range(group.order)]
            beta[group.identity] = 0
            cocycles.append(Cocycle.coboundary(group, 4, beta))
        for omega_in in cocycles:
            _, omega_out = extract_torsion_data(twisted_group_algebra(omega_in))
            if regular_class_count(omega_out) != regular_class_count(omega_in):
                ok = False
                break
        if not ok:
            break
    for omega_in in (Cocycle.pauli(), Cocycle.bilinear_on_product(2, 4), Cocycle.bilinear_on_product(4, 4)):
        _, omega_out = extract_torsion_data(twisted_group_algebra(omega_in))
        ok = ok and regular_class_count(omega_out) == regular_class_count(omega_in)
    _report("7 (torsion roundtrip, groups of order <= 8)", ok)


def test_criterion_8_abelianization_ranks():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        report = generator_rank_report(n)
        expected = (n - 1) ** 2 + 1
        if not (
            report.full_rank == report.restricted_rank == expected
            and report.full_saturated
            and report.restricted_saturated
        ):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 20.0
    _report("8 (generator ranks over Z, n = 2..6)", ok, f"{elapsed:.2f}s < 20s")
