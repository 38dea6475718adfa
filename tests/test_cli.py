import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qautk
from qautk import cli, exact_linalg, ktheory, magic, resolution, torsion
from qautk.cli import main
from qautk.cyclotomic import Cyclotomic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_ktheory_report(capsys):
    code, payload = run_json(capsys, "ktheory", "--dims", "1,1,1,1")
    assert code == 0
    assert payload["results"]["K0"] == {"free": 10, "torsion": []}
    assert payload["results"]["K1"] == {"free": 1, "torsion": []}
    assert payload["command"] == "ktheory"


def test_closed_form_report(capsys):
    code, payload = run_json(capsys, "closed-form", "--dims", "3,3,3")
    assert code == 0
    assert payload["results"]["K0"] == {"free": 5, "torsion": [3, 3, 3, 3, 3]}


def test_verify_match(capsys):
    code, payload = run_json(capsys, "verify", "--dims", "2,4")
    assert code == 0
    assert payload["results"]["match"] is True
    assert payload["results"]["summary"] == "match: Z^2 + Z_2^3 / Z"


def test_verify_table_output(capsys):
    code, out = run(capsys, "verify", "--dims", "2,4", "--table")
    assert code == 0
    assert "match: Z^2 + Z_2^3 / Z" in out


def test_boundary(capsys):
    code, payload = run_json(capsys, "boundary", "--dims", "2")
    assert code == 0
    assert payload["results"]["matrix"]["entries"] == [[2, -2], [-2, 2]]
    assert payload["results"]["text"].startswith("2 2\n")


def test_resolution_check(capsys):
    code, payload = run_json(capsys, "resolution-check", "--dims", "2,3", "--degree", "8")
    assert code == 0
    assert payload["results"]["C"]["exact"] is True
    assert payload["results"]["A"]["exact"] is True


def test_resolution_check_single_test(capsys):
    code, payload = run_json(capsys, "resolution-check", "--dims", "2", "--test", "A")
    assert code == 0
    assert list(payload["results"].keys()) == ["A"]


def test_snf_identity_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n1 0 0\n0 1 0\n0 0 1\n"))
    code, payload = run_json(capsys, "snf", "--matrix", "-")
    assert code == 0
    assert payload["results"]["invariant_factors"] == [1, 1, 1]


def test_snf_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 4\n6 8\n")
    code, payload = run_json(capsys, "snf", "--matrix", str(path))
    assert code == 0
    assert payload["results"]["invariant_factors"] == [2, 4]


def test_snf_routes_disagree_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "invariant_factors", lambda matrix: (1, 8))
    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n2 4\n6 8\n"))
    code, payload = run_json(capsys, "snf", "--matrix", "-")
    assert code == 1
    assert payload["results"]["invariant_factors"] == [2, 4]
    assert payload["warnings"] == ["MISMATCH: Smith diagonal [2, 4], invariant_factors [1, 8]"]


def corrupt_snf(monkeypatch, **changes):
    """Make cli.smith_normal_form return the true decomposition with the
    given fields replaced; each value maps the true decomposition to the
    corrupted field."""
    true_snf = cli.smith_normal_form

    def corrupted(matrix):
        dec = true_snf(matrix)
        return dataclasses.replace(dec, **{k: f(dec) for k, f in changes.items()})

    monkeypatch.setattr(cli, "smith_normal_form", corrupted)


def scaled(m, c):
    return qautk.IntMatrix(m.rows, m.cols, tuple(c * x for x in m.entries))


@pytest.mark.parametrize("changes, matrix, witness", [
    # one wrong entry of S: the product check names it
    ({"S": lambda d: qautk.IntMatrix(2, 2, (2, 0, 0, 5))}, "2 2\n2 4\n6 8\n",
     "(U A V)[1][1] = 4 but S[1][1] = 5"),
    # 2U A V = 2S holds, but U is not unimodular
    ({"U": lambda d: scaled(d.U, 2), "S": lambda d: scaled(d.S, 2),
      "invariant_factors": lambda d: (4, 8)}, "2 2\n2 4\n6 8\n",
     "U is not unimodular: its Hermite form is not the identity"),
    ({"V": lambda d: scaled(d.V, 3), "S": lambda d: scaled(d.S, 3),
      "invariant_factors": lambda d: (6, 12)}, "2 2\n2 4\n6 8\n",
     "V is not unimodular: its Hermite form is not the identity"),
    # I diag(2, 3) I = diag(2, 3) is a valid product but not a chain
    ({"U": lambda d: qautk.IntMatrix.identity(2), "V": lambda d: qautk.IntMatrix.identity(2),
      "S": lambda d: qautk.IntMatrix(2, 2, (2, 0, 0, 3)), "invariant_factors": lambda d: (2, 3)},
     "2 2\n2 0\n0 3\n", "the diagonal of S breaks the divisibility chain at index 1: [2, 3]"),
    # I A I = A is a valid product, but A is not diagonal
    ({"U": lambda d: qautk.IntMatrix.identity(2), "V": lambda d: qautk.IntMatrix.identity(2),
      "S": lambda d: qautk.IntMatrix(2, 2, (1, 1, 0, 1)), "invariant_factors": lambda d: (1, 1)},
     "2 2\n1 1\n0 1\n", "S[0][1] = 1 is off the diagonal"),
    ({"invariant_factors": lambda d: (1, 8)}, "2 2\n2 4\n6 8\n",
     "invariant factors [1, 8] are not the diagonal of S [2, 4]"),
    ({"U": lambda d: qautk.IntMatrix.identity(3)}, "2 2\n2 4\n6 8\n",
     "U, S, V have shapes [(3, 3), (2, 2), (2, 2)], expected [(2, 2), (2, 2), (2, 2)]"),
])
def test_snf_certificate_failure_exits_1_with_witness(capsys, monkeypatch, changes, matrix, witness):
    corrupt_snf(monkeypatch, **changes)
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix))
    code, payload = run_json(capsys, "snf", "--matrix", "-")
    assert code == 1
    assert payload["warnings"] == [f"CERTIFICATE FAILED: {witness}"]


@pytest.mark.parametrize("n", [30, 60])
def test_snf_random_square_finishes_fast(capsys, monkeypatch, n):
    # min-pivot Smith did not finish 30 x 30 in 100 s
    rng = random.Random(n)
    rows = [" ".join(str(rng.randint(-50, 50)) for _ in range(n)) for _ in range(n)]
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{n} {n}\n" + "\n".join(rows) + "\n"))
    start = time.process_time()
    code, payload = run_json(capsys, "snf", "--matrix", "-")
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["warnings"] == []
    assert payload["results"]["rank"] == n
    assert elapsed < 1.0


@pytest.mark.parametrize("dims", [
    "1532,8680,8357,4888,2392,2099",
    "2,3,8,12,3,3,9,12,3,5,2,4,11,5,8,8,9,8,10,12,4,5,11,11,6,11,8,8,3,8,5",
])
def test_verify_former_runaways_finish_fast(capsys, dims):
    # min-pivot Smith on the whole boundary matrix ran for minutes on these
    start = time.process_time()
    code, payload = run_json(capsys, "verify", "--dims", dims)
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["match"] is True
    assert payload["results"]["computed"] == payload["results"]["expected"]
    assert elapsed < 1.0


def test_snf_bad_matrix(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n1 2 3\n"))
    code = main(["snf", "--matrix", "-", "--json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_delta_form_accept(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "blocks": [1, 1, 1, 1],
        "density": [[["1/4"]], [["1/4"]], [["1/4"]], [["1/4"]]],
    }))
    code, payload = run_json(capsys, "delta-form", "--algebra", str(path))
    assert code == 0
    assert payload["results"]["is_delta_form"] is True
    assert payload["results"]["delta_squared"] == 4
    assert payload["results"]["delta_exact"] == 2


def test_delta_form_reject_with_witness(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "blocks": [1, 1],
        "density": [[["1/3"]], [["2/3"]]],
    }))
    code, payload = run_json(capsys, "delta-form", "--algebra", str(path))
    assert code == 1
    assert payload["results"]["is_delta_form"] is False
    assert payload["results"]["witness"] == {"block": 1, "observed": "3/2", "expected": "3"}


def test_delta_form_matrix_block_with_complex(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "blocks": [2],
        "density": [[["1/2", ["0", "1/8"]], [["0", "-1/8"], "1/2"]]],
    }))
    code, payload = run_json(capsys, "delta-form", "--algebra", str(path))
    assert code == 0
    assert payload["results"]["is_delta_form"] is True


def test_delta_form_float_rejected(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"blocks": [1], "density": [[[0.5]]]}))
    code = main(["delta-form", "--algebra", str(path), "--json"])
    assert code == 2


@pytest.mark.parametrize("digits, delta", [(400, 1e200), (700, None)])
def test_delta_form_with_huge_delta_squared(capsys, monkeypatch, digits, delta):
    # delta^2 = 10^n + 1 / (1 - 10^-n) is far beyond the float range; delta
    # is the float nearest its root, or null when that overflows
    tiny, nearly_one = f"1e-{digits}", "0." + "9" * digits
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"blocks": [2], "density": [[[tiny, "0"], ["0", nearly_one]]]})))
    code = main(["delta-form", "--algebra", "-", "--json"])  # returns: no OverflowError escapes
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    results = json.loads(captured.out)["results"]
    expected = 1 / Fraction(tiny) + 1 / Fraction(nearly_one)
    assert results["is_delta_form"] is True
    assert results["delta_squared"] == f"{expected.numerator}/{expected.denominator}"
    assert results["delta"] == delta
    assert results["delta_exact"] is None


def test_delta_form_with_huge_witness_is_rejected(capsys, monkeypatch):
    tiny, nearly_one = "1e-400", "0." + "9" * 400
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"blocks": [1, 1], "density": [[[tiny]], [[nearly_one]]]})))
    code = main(["delta-form", "--algebra", "-", "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    results = json.loads(captured.out)["results"]
    assert results["is_delta_form"] is False
    assert results["delta_squared"] is None and results["delta"] is None
    assert results["witness"] == {"block": 1, "observed": str(1 / Fraction(nearly_one)), "expected": str(10 ** 400)}


def test_dense_delta_form_within_budget(capsys, monkeypatch):
    # one dense k = 30 block (A A* + I) / tr over Q(i): about 25 s of CPU on
    # a shared 2-vCPU host by Faddeev-LeVerrier, about 0.4 s by LDL*
    k = 30
    rng = random.Random(30)
    a = [[complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
    q = [[sum(a[i][p] * a[j][p].conjugate() for p in range(k)) + (i == j) for j in range(k)] for i in range(k)]
    trace = sum(int(q[i][i].real) for i in range(k))
    density = [[[f"{int(z.real)}/{trace}", f"{int(z.imag)}/{trace}"] for z in row] for row in q]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"blocks": [k], "density": [density]})))
    start = time.process_time()
    code, payload = run_json(capsys, "delta-form", "--algebra", "-")
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["is_delta_form"] is True
    assert elapsed < 3.0


def test_twisted_group_and_extract_roundtrip(capsys, tmp_path):
    code, payload = run_json(capsys, "twisted-group", "--group", "C2xC2", "--cocycle", "pauli")
    assert code == 0
    assert payload["results"]["blocks"] == [2]
    assert payload["results"]["regular_classes"] == 1
    algebra_path = tmp_path / "algebra.json"
    algebra_path.write_text(json.dumps(payload["results"]["algebra"]))
    code, payload = run_json(capsys, "extract-torsion", "--algebra", str(algebra_path))
    assert code == 0
    assert payload["results"]["group"]["order"] == 4
    assert payload["results"]["regular_classes"] == 1
    assert payload["results"]["blocks"] == [2]


def test_s5_twisted_group_and_extract_within_budget(capsys, monkeypatch):
    # order 120: the n^3 axiom checks and the dense center system took
    # 13 s and 32 s here; Light's test and the sparse elimination take about 1 s and 3 s
    start = time.process_time()
    code, payload = run_json(capsys, "twisted-group", "--group", "S5", "--cocycle", "trivial")
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["blocks"] == [1, 1, 4, 4, 5, 5, 6]
    assert payload["results"]["regular_classes"] == 7
    assert elapsed < 2.0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload["results"]["algebra"])))
    start = time.process_time()
    code, payload = run_json(capsys, "extract-torsion", "--algebra", "-")
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["blocks"] == [1, 1, 4, 4, 5, 5, 6]
    assert payload["results"]["regular_classes"] == 7
    assert elapsed < 5.0


def test_d60_extract_torsion_within_budget(capsys, monkeypatch):
    # order 120: about 2.4 s of CPU on a shared 2-vCPU host while validate
    # and the extraction multiplied Cyclotomic roots of unity and both trace
    # forms were full Grams; about 0.6 s on exponents and graded cells
    code, payload = run_json(capsys, "twisted-group", "--group", "D60", "--cocycle", "trivial")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload["results"]["algebra"])))
    start = time.process_time()
    code, payload = run_json(capsys, "extract-torsion", "--algebra", "-")
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["blocks"] == [1] * 4 + [2] * 29
    assert payload["results"]["regular_classes"] == 33
    assert elapsed < 1.5


def test_monomial_algebra_is_checked_and_extracted_without_cyclotomic_products(capsys, monkeypatch):
    # S4 x C2 (order 48) on the basis d'_s = zeta_6^(r_s) d_s: every cell is
    # one root of unity, so validate and extract_torsion_data read exponents
    group = torsion.FiniteGroup.direct_product(torsion.FiniteGroup.symmetric(4), torsion.FiniteGroup.cyclic(2))
    n, m, inv = group.order, 6, group.inv
    rng = random.Random(48)
    r = [rng.randrange(m) for _ in range(n)]
    algebra = {
        "group": group.to_dict(),
        "basis": [f"d{s}" for s in range(n)],
        "grading": list(range(n)),
        "root_order": m,
        "mult": [[[[group.mul(s, t), {"exp": (r[s] + r[t] - r[group.mul(s, t)]) % m}]] for t in range(n)] for s in range(n)],
        "star": [[[inv(s), {"exp": (-r[s] - r[inv(s)]) % m}]] for s in range(n)],
    }
    depth, products = [0], {"inside": 0, "outside": 0}
    mul = Cyclotomic.__mul__

    def counting_mul(self, other):
        products["inside" if depth[0] else "outside"] += 1
        return mul(self, other)

    def spied(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(torsion.GradedAlgebra, "validate", spied(torsion.GradedAlgebra.validate))
    monkeypatch.setattr(cli, "extract_torsion_data", spied(cli.extract_torsion_data))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(algebra)))
    code, payload = run_json(capsys, "extract-torsion", "--algebra", "-")
    assert code == 0
    assert payload["results"]["blocks"] == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    assert products["inside"] == 0
    assert products["outside"] > 0  # block_decomposition still multiplies: the spy sees products


def test_twisted_group_named_groups(capsys):
    code, payload = run_json(capsys, "twisted-group", "--group", "S3", "--cocycle", "trivial")
    assert code == 0
    assert payload["results"]["blocks"] == [1, 1, 2]
    code, payload = run_json(capsys, "twisted-group", "--group", "Q8", "--cocycle", "trivial")
    assert code == 0
    assert payload["results"]["blocks"] == [1, 1, 1, 1, 2]


def test_twisted_group_bilinear(capsys):
    code, payload = run_json(capsys, "twisted-group", "--cocycle", "bilinear:2x2")
    assert code == 0
    assert payload["results"]["blocks"] == [2]


def test_unknown_group_is_input_error(capsys):
    assert main(["twisted-group", "--group", "E8", "--cocycle", "trivial", "--json"]) == 2
    assert main(["twisted-group", "--cocycle", "trivial", "--json"]) == 2


def test_magic_rank(capsys):
    code, payload = run_json(capsys, "magic-rank", "--n", "4")
    assert code == 0
    assert payload["results"]["full_rank"] == 10
    assert payload["results"]["restricted_rank"] == 10
    assert payload["results"]["match"] is True


def test_sweep(capsys):
    code, payload = run_json(
        capsys, "sweep", "--max-n", "4", "--max-k", "5", "--samples", "8", "--seed", "1"
    )
    assert code == 0
    assert payload["results"]["all_passed"] is True
    assert payload["results"]["samples"] == 8


def test_sweep_default_gate(capsys):
    # the CI gate: default sweep over n <= 5, k <= 6 must exit 0
    code, payload = run_json(capsys, "sweep", "--max-n", "5", "--max-k", "6")
    assert code == 0
    assert payload["results"]["all_passed"] is True
    assert payload["results"]["resolution_checked"] is True


def test_sweep_skip_resolution(capsys):
    code, payload = run_json(
        capsys, "sweep", "--max-n", "6", "--max-k", "8", "--samples", "30",
        "--seed", "2", "--skip-resolution",
    )
    assert code == 0
    assert payload["results"]["resolution_checked"] is False


def test_bad_dims_exit_2(capsys):
    assert main(["ktheory", "--dims", "abc", "--json"]) == 2
    assert main(["ktheory", "--dims", "0,2", "--json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["twisted-group", "--cocycle", "bilinear:0x2"],
        ["resolution-check", "--dims", "2,3", "--degree", "1"],
        ["magic-rank", "--n", "3", "--max-n", "0"],
        ["sweep", "--max-n", "0", "--samples", "1"],
    ],
)
def test_library_value_error_exits_2(capsys, argv):
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _c2_algebra(cell=(), value=None):
    """The C2 group algebra as extract-torsion JSON, with one entry replaced
    when ``cell``, a path of keys and list indices into the JSON, is given."""
    data = {
        "group": {"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
        "basis": ["d0", "d1"],
        "grading": [0, 1],
        "root_order": 4,
        "mult": [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[0, 1]]]],
        "star": [[[0, 1]], [[1, 1]]],
    }
    if cell:
        target = data
        for key in cell[:-1]:
            target = target[key]
        target[cell[-1]] = value
    return data


_C2_COCYCLE = {
    "group": {"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]},
    "root_order": 2,
    "values": [[0, 0], [0, 0]],
}


@pytest.mark.parametrize(
    "argv, stdin, needle",
    [
        (["delta-form"], {"blocks": 2, "density": [[[1]]]}, "blocks must be a JSON list"),
        (["delta-form"], {"blocks": [2], "density": 5}, "density must be a JSON list"),
        (["delta-form"], {"blocks": [2], "density": [5]}, "density block must be a JSON list"),
        (["delta-form"], {"blocks": [1], "density": [[5]]}, "density row must be a JSON list"),
        (["delta-form"], {"blocks": [None], "density": [[[1]]]}, "block sizes must be integers"),
        (["delta-form"], {"blocks": [2.5], "density": [[[1]]]}, "block sizes must be integers"),
        (["delta-form"], {"blocks": [True], "density": [[[1]]]}, "block sizes must be integers"),
        (["delta-form"], {"blocks": [1], "density": [[[{"re": "1", "im": [1, 2]}]]]}, "invalid density entry"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 0, 0, 0), 2), "basis index 2"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 1, 0, 0), -1), "basis index -1"),
        (["extract-torsion"], _c2_algebra(("star", 1, 0, 0), -1), "basis index -1"),
        (["extract-torsion"], _c2_algebra(("star", 0, 0, 0), 2), "basis index 2"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 0, 0, 1), {"exp": 1.5}), "exponent"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 0, 0, 1), {"exp": True}), "exponent"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 0, 0, 1), {"coeffs": [0.1, 0]}), "exact"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 0, 0, 1), {"coeffs": [True, 0]}), "rational"),
        (["sweep", "--max-n", "0"], None, "--max-n"),
        (["sweep", "--max-k", "0"], None, "--max-k"),
        (["sweep", "--samples", "0"], None, "--samples"),
        (["sweep", "--samples", "-1"], None, "--samples"),
        (["magic-rank", "--n", "8"], None, "--max-n"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 1, 0, 0), 1.5), "got 1.5"),
        (["extract-torsion"], _c2_algebra(("mult", 0, 1, 0, 0), True), "got True"),
        (["extract-torsion"], _c2_algebra(("star", 1, 0, 0), 1.0), "got 1.0"),
        (["extract-torsion"], _c2_algebra(("grading", 1), 1.9), "got 1.9"),
        (["extract-torsion"], _c2_algebra(("root_order",), 4.7), "got 4.7"),
        (["extract-torsion"], _c2_algebra(("group", "table", 0, 1), 1.0), "got 1.0"),
        (["extract-torsion"], _c2_algebra(("group", "identity"), "0"), "got '0'"),
        (["twisted-group", "--cocycle", "-"], _C2_COCYCLE | {"root_order": 2.5}, "got 2.5"),
        (["twisted-group", "--cocycle", "-"], _C2_COCYCLE | {"values": [[0, 0], [0, False]]}, "got False"),
        (["twisted-group", "--group", "-", "--cocycle", "trivial"], {"table": [[0, True], [True, 0]]}, "got True"),
        (["twisted-group", "--group", "-", "--cocycle", "trivial"], _C2_COCYCLE["group"] | {"order": 5}, "group order 5"),
        (["twisted-group", "--cocycle", "-"], _C2_COCYCLE | {"group": _C2_COCYCLE["group"] | {"order": 1}}, "group order 1"),
        (["extract-torsion"], _c2_algebra(("group", "order"), 3), "group order 3"),
        (["extract-torsion"], _c2_algebra(("star", 1, 0, 1), 0), "zero coefficients must be dropped"),
        (["extract-torsion"], _c2_algebra(("star", 1, 0, 1), 2), "not involutive"),
        (["extract-torsion"], _c2_algebra(("star", 1, 0, 1), {"exp": 1}), "not anti-multiplicative"),
        (
            ["extract-torsion"],
            _c2_algebra(("mult",), [[[[0, 1]], [[1, 2]]], [[[1, 2]], [[0, 1]]]]),
            "not associative at (0, 0, 1)",
        ),
        (["twisted-group", "--group", "C4", "--cocycle", "pauli"], None, "lives on another group than --group"),
    ],
)
def test_malformed_input_exits_2(capsys, monkeypatch, argv, stdin, needle):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
        if "-" not in argv:
            argv = argv + ["--algebra", "-"]
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["extract-torsion"], _c2_algebra(("mult", 0, 1, 0, 1), "1/0")),
        (["extract-torsion"], _c2_algebra(("mult", 0, 1, 0, 1), {"coeffs": ["1/0", 0]})),
        (["extract-torsion"], _c2_algebra(("star", 1, 0, 1), {"coeffs": [0, "-2/0"]})),
        (["delta-form"], {"blocks": [1], "density": [[["1/0"]]]}),
        (["delta-form"], {"blocks": [1], "density": [[[["1/0", 0]]]]}),
        (["delta-form"], {"blocks": [1], "density": [[[[1, "-3/0"]]]]}),
    ],
)
def test_zero_denominator_exits_2(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    assert main(argv + ["--algebra", "-", "--json"]) == 2  # returns: no ZeroDivisionError escapes
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "/0" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["twisted-group", "--group", "S3", "--cocycle", "trivial"],
        ["extract-torsion", "--algebra", "-"],
    ],
)
def test_block_count_mismatch_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_c2_algebra())))
    monkeypatch.setattr("qautk.cli.regular_class_count", lambda cocycle: 7)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["results"]["regular_classes"] == 7
    assert payload["warnings"] == [
        f"block count mismatch: 7 regular classes, {len(payload['results']['blocks'])} blocks"
    ]


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(qautk.__file__).resolve().parents[1]))
    check = "import qautk.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)


def test_report_roundtrip_determinism(capsys):
    # re-running the echoed inputs reproduces the results exactly
    code, first = run_json(capsys, "ktheory", "--dims", "2,4")
    assert code == 0
    dims = first["inputs"]["dims"]
    code, second = run_json(capsys, "ktheory", "--dims", dims)
    assert code == 0
    assert first["results"] == second["results"]
    assert first["warnings"] == second["warnings"]


def test_scope_warning_surfaces(capsys):
    code, payload = run_json(capsys, "ktheory", "--dims", "1")
    assert code == 0
    assert payload["warnings"]
    assert "below 4" in payload["warnings"][0]


def test_sweep_checks_canonical_delta_form(capsys, monkeypatch):
    import qautk.cli as cli

    seen = []
    derive = cli.derive_t_action

    def spy(k, test):
        seen.append(test)
        return derive(k, test)

    monkeypatch.setattr("qautk.cli.derive_t_action", spy)
    code, payload = run_json(
        capsys, "sweep", "--max-n", "4", "--max-k", "5", "--samples", "6", "--seed", "3",
        "--skip-resolution",
    )
    assert code == 0 and payload["results"]["all_passed"] is True
    assert seen == ["C"] * 6


def test_sweep_records_delta_form_mismatch(capsys, monkeypatch):
    from qautk.dims import random_dim_vectors

    monkeypatch.setattr("qautk.cli.derive_t_action", lambda k, test: k.algebra_dim + 1)
    code, payload = run_json(
        capsys, "sweep", "--max-n", "3", "--max-k", "4", "--samples", "3", "--seed", "5",
        "--skip-resolution",
    )
    assert code == 1
    assert payload["results"]["failures"] == [
        {
            "dims": str(dims),
            "stage": "delta-form",
            "reproducer": f"qautk resolution-check --dims {dims} --degree 12 --test C",
        }
        for dims in random_dim_vectors(3, 3, 4, seed=5)
    ]


def test_sweep_records_k_theory_error_with_a_reproducer(capsys, monkeypatch):
    from qautk.dims import random_dim_vectors

    samples = random_dim_vectors(4, 3, 4, seed=6)

    def verify(dims):
        if dims == samples[1]:
            raise RuntimeError("kernel generator does not satisfy the boundary")
        return dims != samples[2]

    monkeypatch.setattr("qautk.cli.verify_theorem", verify)
    code, payload = run_json(
        capsys, "sweep", "--max-n", "3", "--max-k", "4", "--samples", "4", "--seed", "6",
        "--skip-resolution",
    )
    assert code == 1
    assert payload["results"]["samples"] == 4  # the run went on past the error
    assert payload["results"]["failures"] == [
        {
            "dims": str(samples[1]),
            "stage": "verify",
            "reproducer": f"qautk verify --dims {samples[1]}",
            "error": "kernel generator does not satisfy the boundary",
        },
        {"dims": str(samples[2]), "stage": "verify", "reproducer": f"qautk verify --dims {samples[2]}"},
    ]


def test_sweep_resolution_failure_carries_a_reproducer(capsys, monkeypatch):
    import qautk.cli as cli
    from qautk.dims import random_dim_vectors

    check = cli.check_exactness

    def only_c_fails(dims, test, degree):
        report = check(dims, test, degree)
        return dataclasses.replace(report, uncovered=(0, 0)) if test == "C" else report

    monkeypatch.setattr("qautk.cli.check_exactness", only_c_fails)
    code, payload = run_json(
        capsys, "sweep", "--max-n", "3", "--max-k", "4", "--samples", "2", "--seed", "7", "--degree", "9",
    )
    assert code == 1
    assert payload["results"]["failures"] == [
        {
            "dims": str(dims),
            "stage": "resolution-C",
            "reproducer": f"qautk resolution-check --dims {dims} --degree 9 --test C",
        }
        for dims in random_dim_vectors(2, 3, 4, seed=7)
    ]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # --max-n exists on both subcommands with different defaults (7 and 5)
    argvs = [
        ["magic-rank", "--n", "3", "--max-n", "4"],
        ["sweep", "--samples", "2", "--seed", "3", "--skip-resolution"],
        ["magic-rank", "--n", "3"],
        ["resolution-check", "--dims", "2", "--test", "A", "--degree", "5"],
        ["resolution-check", "--dims", "2"],
    ]

    def payload(argv):
        code, out = run(capsys, *argv, "--json")
        data = json.loads(out)
        del data["elapsed_seconds"]
        return code, data

    reused = [payload(argv) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(payload(argv))
    assert reused == fresh
    assert reused[2][1]["inputs"]["max_n"] == 7
    assert reused[4][1]["inputs"] == {"dims": "2", "test": "both", "degree": 12}


@pytest.mark.parametrize("text", ["2 2\n1 2 x 4\n", "-1 2\n", "2 -2\n", "1 1\n1.5\n", "3\n", ""])
def test_snf_malformed_text_exits_2(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["snf", "--matrix", "-", "--json"]) == 2
    assert "error" in capsys.readouterr().err


def test_integer_path_builds_no_dense_rows(capsys, monkeypatch):
    # the producers build sparse rows and the engines read them: no dense
    # row, entries tuple or dense-built matrix on the way, and the
    # exactness certificate sees integers only
    dense = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            dense.append(name)
            return fn(*args, **kwargs)
        return wrapper

    M = exact_linalg.IntMatrix
    monkeypatch.setattr(M, "entries", property(spy("entries", M.entries.fget)))
    # __new__ is the dense constructor
    for name in ("row", "to_lists", "to_text", "__new__"):
        monkeypatch.setattr(M, name, spy(name, getattr(M, name)))
    monkeypatch.setattr(exact_linalg, "_sparse", spy("_sparse", exact_linalg._sparse))
    solve = resolution._solve_preimages
    seen = []

    def integer_only(d1, targets):
        assert not any(isinstance(v, Fraction) for g in targets for v in g)
        solutions = solve(d1, targets)
        assert all(type(v) is int for x in solutions for v in x)
        seen.append(len(targets))
        return solutions

    monkeypatch.setattr(resolution, "_solve_preimages", integer_only)
    dims = ",".join(str(k) for k in random.Random(40).choices(range(1, 13), k=40))
    for argv in (["verify", "--dims", dims], ["magic-rank", "--n", "6"], ["resolution-check", "--dims", dims]):
        code, _ = run_json(capsys, *argv)
        assert code == 0, argv
    assert dense == []
    assert len(seen) == 2


def _corrupt_boundary(monkeypatch):
    build = ktheory.boundary_matrix

    def corrupted(k):  # one wrong entry: A[0][0] = k_1 + 1
        rows = build(k).to_lists()
        rows[0][0] += 1
        return qautk.IntMatrix.from_rows(rows)

    monkeypatch.setattr(ktheory, "boundary_matrix", corrupted)


def _corrupt_bezout(monkeypatch):
    bezout = ktheory._bezout
    monkeypatch.setattr(ktheory, "_bezout", lambda sizes: [bezout(sizes)[0] - 1] + bezout(sizes)[1:])


def _corrupt_minor(monkeypatch):
    minor = magic._minor

    def doubled(n):  # determinant ±2
        rows = minor(n).to_lists()
        return qautk.IntMatrix.from_rows([[2 * x for x in rows[0]]] + rows[1:])

    monkeypatch.setattr(magic, "_minor", doubled)


@pytest.mark.parametrize("corrupt, argv, warning", [
    (_corrupt_boundary, ["verify", "--dims", "2,3"], "boundary certificate step 2 (A' v = 0): (A' v)[0] = 2"),
    (_corrupt_boundary, ["ktheory", "--dims", "2,3"], "boundary certificate step 2 (A' v = 0): (A' v)[0] = 2"),
    (_corrupt_boundary, ["verify", "--dims", "4,6"], "boundary certificate step 1 (A = d A'): d = 2 does not divide A[0][0] = 5"),
    (_corrupt_bezout, ["verify", "--dims", "2,3"], "boundary certificate step 3 (Y A' = M): entry (0, 0) is -1, expected 1"),
    (_corrupt_bezout, ["ktheory", "--dims", "2,3"], "boundary certificate step 3 (Y A' = M): entry (0, 0) is -1, expected 1"),
    (_corrupt_minor, ["magic-rank", "--n", "4"], "the (n-1)^2+1 magic minor is not unimodular: invariant factors [1, 1, 1, 1, 1, 1, 1, 1, 1, 2]"),
])
def test_failed_certificate_exits_1_with_the_step(capsys, monkeypatch, corrupt, argv, warning):
    corrupt(monkeypatch)
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["warnings"] == [f"CERTIFICATE FAILED: {warning}"]
    assert payload["results"] == {}


def test_boundary_builds_only_the_matrix(capsys, monkeypatch):
    def refuse(dims):
        raise AssertionError("boundary must not run k_theory")

    monkeypatch.setattr(cli, "k_theory", refuse)
    code, out = run(capsys, "boundary", "--dims", "2,4", "--json")
    assert code == 0
    assert json.loads(out)["results"]["text"] == "5 4\n2 0 -2 0\n4 0 0 -2\n0 2 -4 0\n0 4 0 -4\n-2 -4 2 4\n"


@pytest.mark.parametrize("dims, token", [
    ("1,,2", "''"), ("1_0,3", "'1_0'"), ("3,٣", "'٣'"), ("+3", "'+3'"), ("-3", "'-3'"),
    ("03", "'03'"), ("1 2", "'1 2'"), ("", "''"), ("2,", "''"), ("2,3\t", "'3\\t'"), ("²", "'²'"),
])
@pytest.mark.parametrize("command", ["verify", "ktheory", "closed-form", "boundary", "resolution-check"])
def test_dims_grammar_is_strict(capsys, command, dims, token):
    assert main([command, "--dims", dims, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: invalid block size {token} in dimension vector")


def test_dims_fields_may_carry_spaces(capsys):
    code, payload = run_json(capsys, "verify", "--dims", " 2 , 4 ")
    assert code == 0
    assert payload["results"]["summary"] == "match: Z^2 + Z_2^3 / Z"


def test_magic_rank_n_20_within_budget(capsys):
    start = time.process_time()
    code, payload = run_json(capsys, "magic-rank", "--n", "20", "--max-n", "20")
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["full_rank"] == payload["results"]["expected_rank"] == 362
    assert elapsed < 0.1


def test_verify_n_320_within_budget(capsys):
    # the Hermite passes took 4.8-7.8 s here, the certificate about 0.25 s
    dims = ",".join(str(6 * (1 + i % 12)) for i in range(320))
    start = time.process_time()
    code, payload = run_json(capsys, "verify", "--dims", dims)
    elapsed = time.process_time() - start
    assert code == 0
    assert payload["results"]["summary"] == "match: Z^101762 + Z_6^639 / Z"
    assert elapsed < 0.5
