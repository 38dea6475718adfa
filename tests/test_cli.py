import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qautk
from qautk import cli
from qautk.cli import main


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
    assert payload["warnings"] == ["MISMATCH: Smith diagonal [2, 4], Hermite-modular route [1, 8]"]


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
