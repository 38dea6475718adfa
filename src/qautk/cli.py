"""Command-line surface: every computation as a subcommand.

Exit codes: 0 on success (and on verified checks), 1 when a verification
fails (theorem mismatch, non-exact complex, rank mismatch, rejected
delta-form, block count mismatch, two Smith routes that disagree), 2 on
malformed input.  Reports go to standard output as JSON when piped or with
--json, and as a readable table on a terminal or with --table.  All numbers
in JSON are exact: integers beyond 2^53 become decimal strings and
rationals are "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .dims import DimVector, random_dim_vectors
from .exact_linalg import FgAbelianGroup, IntMatrix, invariant_factors, smith_normal_form
from .findim import AlgState, ComplexRational, FinDimAlgebra, is_delta_form
from .ktheory import closed_form, k_theory, verify_theorem
from .magic import generator_rank_report
from .resolution import TEST_ALGEBRA, TEST_OBJECTS, TEST_TRIVIAL, check_exactness, derive_t_action
from .torsion import (
    Cocycle,
    FiniteGroup,
    GradedAlgebra,
    block_decomposition,
    extract_torsion_data,
    regular_class_count,
    twisted_group_algebra,
)

_JSON_INT_LIMIT = 2 ** 53


class InputError(ValueError):
    """User-facing input problem; exits with status 2."""


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict
    warnings: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "results": _jsonable(self.results),
            "warnings": list(self.warnings),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


def _jsonable(x):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x if abs(x) < _JSON_INT_LIMIT else str(x)
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return _jsonable(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, str):
        return x
    if isinstance(x, FgAbelianGroup):
        return {"free": x.free_rank, "torsion": [_jsonable(t) for t in x.torsion]}
    if isinstance(x, IntMatrix):
        return {"rows": x.rows, "cols": x.cols, "entries": [_jsonable(list(x.row(i))) for i in range(x.rows)]}
    if isinstance(x, ComplexRational):
        return str(x)
    if isinstance(x, DimVector):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


def _render_table(payload, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(payload, dict):
        if set(payload) == {"rows", "cols", "entries"}:
            lines.append(f"{pad}{payload['rows']} x {payload['cols']}")
            for row in payload["entries"]:
                lines.append(pad + "  " + " ".join(str(x) for x in row))
            return lines
        for key, value in payload.items():
            if isinstance(value, dict) or (
                isinstance(value, list) and value and isinstance(value[0], (dict, list))
            ):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_table(value, indent + 1))
            elif isinstance(value, str) and "\n" in value:
                lines.append(f"{pad}{key}:")
                lines.extend(f"{pad}  {row}" for row in value.rstrip("\n").split("\n"))
            else:
                lines.append(f"{pad}{key}: {_scalar_str(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_render_table(value, indent))
            else:
                lines.append(f"{pad}{_scalar_str(value)}")
    else:
        lines.append(f"{pad}{_scalar_str(payload)}")
    return lines


def _scalar_str(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_str(v) for v in value) + "]"
    if value is None:
        return "(none)"
    return str(value)


def _emit(report: RunReport, args) -> None:
    payload = report.to_payload()
    as_json = args.json or (not args.table and not sys.stdout.isatty())
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_render_table(payload)))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_json(path: str):
    text = _read_source(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, warnings, exit_code)
# ---------------------------------------------------------------------------

def _cmd_ktheory(args):
    dims = DimVector.parse(args.dims)
    result = k_theory(dims)
    results = {
        "K0": result.k0,
        "K1": result.k1,
        "K0_describe": result.k0.describe(),
        "K1_describe": result.k1.describe(),
        "kernel_generator": list(result.kernel_generator),
        "d": dims.gcd,
    }
    return results, list(result.warnings), 0


def _cmd_closed_form(args):
    dims = DimVector.parse(args.dims)
    k0, k1 = closed_form(dims)
    warn = dims.scope_warning()
    results = {
        "K0": k0,
        "K1": k1,
        "K0_describe": k0.describe(),
        "K1_describe": k1.describe(),
        "d": dims.gcd,
    }
    return results, [warn] if warn else [], 0


def _cmd_verify(args):
    dims = DimVector.parse(args.dims)
    result = k_theory(dims)
    expected_k0, expected_k1 = closed_form(dims)
    match = result.k0 == expected_k0 and result.k1 == expected_k1
    summary = (
        f"match: {expected_k0.describe()} / {expected_k1.describe()}"
        if match
        else (
            f"MISMATCH: computed {result.k0.describe()} / {result.k1.describe()}, "
            f"expected {expected_k0.describe()} / {expected_k1.describe()}"
        )
    )
    results = {
        "match": match,
        "computed": {"K0": result.k0, "K1": result.k1},
        "expected": {"K0": expected_k0, "K1": expected_k1},
        "summary": summary,
    }
    return results, list(result.warnings), 0 if match else 1


def _cmd_boundary(args):
    dims = DimVector.parse(args.dims)
    matrix = k_theory(dims).boundary
    results = {"matrix": matrix, "text": matrix.to_text()}
    return results, [], 0


def _cmd_resolution_check(args):
    dims = DimVector.parse(args.dims)
    tests = TEST_OBJECTS if args.test == "both" else (args.test,)
    results = {}
    warnings: list[str] = []
    ok = True
    for test in tests:
        report = check_exactness(dims, test, args.degree)
        results[test] = {
            "exact": report.exact,
            "d1_injective": report.d1_injective,
            "kernel_covered": report.kernel_covered,
            "d0_surjective": report.d0_surjective,
            "degree_bound": report.degree_bound,
            "certified_degree": report.certified_degree,
            "all_degrees": report.all_degrees,
        }
        if report.uncovered is not None:
            degree, slot = report.uncovered
            results[test]["uncovered"] = {"degree": degree, "slot": slot}
        for w in report.warnings:
            if w not in warnings:
                warnings.append(w)
        ok = ok and report.exact
    return results, warnings, 0 if ok else 1


def _cmd_snf(args):
    matrix = IntMatrix.from_text(_read_source(args.matrix))
    dec = smith_normal_form(matrix)
    results = {
        "invariant_factors": list(dec.invariant_factors),
        "rank": dec.rank,
        "S": dec.S,
        "U": dec.U,
        "V": dec.V,
    }
    # second route: Smith modulo the pivot product of the Hermite rows
    modular = invariant_factors(matrix)
    if modular != dec.invariant_factors:
        warning = (
            f"MISMATCH: Smith diagonal {list(dec.invariant_factors)}, "
            f"Hermite-modular route {list(modular)}"
        )
        return results, [warning], 1
    return results, [], 0


def _parse_qc_entry(value) -> ComplexRational:
    if isinstance(value, bool):
        raise InputError(f"invalid density entry {value!r}")
    if isinstance(value, int):
        return ComplexRational.of(value)
    if isinstance(value, float):
        raise InputError("density entries must be exact: use \"p/q\" strings, not floats")
    if isinstance(value, str):
        try:
            return ComplexRational.of(Fraction(value))
        except ValueError:
            raise InputError(f"cannot parse rational {value!r}") from None
    if isinstance(value, list) and len(value) == 2:
        re = _parse_qc_entry(value[0])
        im = _parse_qc_entry(value[1])
        if not (re.is_real() and im.is_real()):
            raise InputError(f"invalid complex entry {value!r}")
        return ComplexRational(re.re, im.re)
    raise InputError(f"invalid density entry {value!r}")


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {value!r}")
    return value


def _cmd_delta_form(args):
    data = _read_json(args.algebra)
    if not isinstance(data, dict) or "blocks" not in data or "density" not in data:
        raise InputError('delta-form input must be {"blocks": [...], "density": [...]}')
    blocks = _json_list(data["blocks"], "blocks")
    for size in blocks:
        if isinstance(size, bool) or not isinstance(size, int):
            raise InputError(f"block sizes must be integers, got {size!r}")
    algebra = FinDimAlgebra.of(*blocks)
    density = [
        [
            [_parse_qc_entry(x) for x in _json_list(row, "density row")]
            for row in _json_list(block, "density block")
        ]
        for block in _json_list(data["density"], "density")
    ]
    state = AlgState(algebra, density)
    outcome = is_delta_form(algebra, state)
    results = {
        "blocks": blocks,
        "is_delta_form": outcome.is_delta_form,
        "delta_squared": outcome.delta_squared,
        "delta": outcome.delta,
        "delta_exact": outcome.delta_exact(),
    }
    if outcome.witness is not None:
        block, observed, expected = outcome.witness
        results["witness"] = {
            "block": block,
            "observed": observed,
            "expected": expected,
        }
    return results, [], 0 if outcome.is_delta_form else 1


_GROUP_BUILDERS = {
    "Q8": FiniteGroup.quaternion,
}


def _parse_group_name(part: str) -> FiniteGroup:
    if part in _GROUP_BUILDERS:
        return _GROUP_BUILDERS[part]()
    if len(part) >= 2 and part[0] in "CSD" and part[1:].isdigit():
        size = int(part[1:])
        if size < 1:
            raise InputError(f"invalid group size in {part!r}")
        if part[0] == "C":
            return FiniteGroup.cyclic(size)
        if part[0] == "S":
            if size > 5:
                raise InputError("symmetric groups are capped at S5 here")
            return FiniteGroup.symmetric(size)
        return FiniteGroup.dihedral(size)
    raise InputError(
        f"unknown group name {part!r}: use C<n>, S<n>, D<n>, Q8, or products like C2xC2"
    )


def _parse_group_spec(spec: str) -> FiniteGroup:
    if all(ch.isalnum() for ch in spec.replace("x", "")) and not spec.endswith(".json"):
        parts = spec.split("x")
        if all(p and (p in _GROUP_BUILDERS or (p[0] in "CSD" and p[1:].isdigit())) for p in parts):
            group = _parse_group_name(parts[0])
            for part in parts[1:]:
                group = FiniteGroup.direct_product(group, _parse_group_name(part))
            return group
    return FiniteGroup.from_dict(_read_json(spec))


def _parse_cocycle_spec(spec: str, group: FiniteGroup | None) -> Cocycle:
    if spec == "trivial":
        if group is None:
            raise InputError("--group is required for the trivial cocycle")
        return Cocycle.trivial(group)
    if spec == "pauli":
        cocycle = Cocycle.pauli()
    elif spec.startswith("bilinear:"):
        try:
            a, b = (int(x) for x in spec[len("bilinear:"):].split("x"))
        except ValueError:
            raise InputError("bilinear cocycle spec is bilinear:<a>x<b>") from None
        cocycle = Cocycle.bilinear_on_product(a, b)
    else:
        cocycle = Cocycle.from_dict(_read_json(spec))
    if group is not None and group.table != cocycle.group.table:
        raise InputError(f"cocycle {spec} lives on another group than --group")
    return cocycle


def _compare_block_counts(classes: int, blocks) -> tuple[list[str], int]:
    """Warnings and exit code of the check that the regular class count and
    the Wedderburn block count agree."""
    if classes == len(blocks):
        return [], 0
    return [f"block count mismatch: {classes} regular classes, {len(blocks)} blocks"], 1


def _cmd_twisted_group(args):
    group = _parse_group_spec(args.group) if args.group else None
    cocycle = _parse_cocycle_spec(args.cocycle, group)
    algebra = twisted_group_algebra(cocycle)
    blocks = block_decomposition(algebra)
    classes = regular_class_count(cocycle)
    results = {
        "dim": algebra.dim,
        "regular_classes": classes,
        "blocks": list(blocks),
        "algebra": algebra.to_dict(),
    }
    warnings, code = _compare_block_counts(classes, blocks)
    return results, warnings, code


def _cmd_extract_torsion(args):
    algebra = GradedAlgebra.from_dict(_read_json(args.algebra))
    subgroup, cocycle = extract_torsion_data(algebra)
    blocks = block_decomposition(algebra)
    classes = regular_class_count(cocycle)
    results = {
        "group": subgroup.to_dict(),
        "cocycle_root_order": cocycle.root_order,
        "cocycle_values": [list(row) for row in cocycle.table],
        "regular_classes": classes,
        "blocks": list(blocks),
    }
    warnings, code = _compare_block_counts(classes, blocks)
    return results, warnings, code


def _cmd_magic_rank(args):
    if args.n < 1:
        raise InputError("n must be at least 1")
    if args.n > args.max_n:
        raise InputError(
            f"--n {args.n} exceeds --max-n {args.max_n} ({args.n}! rows); raise --max-n to allow it"
        )
    report = generator_rank_report(args.n, max_n=args.max_n)
    match = (
        report.ranks_agree
        and report.full_saturated
        and report.restricted_saturated
        and (args.n < 2 or report.full_rank == report.expected_rank)
    )
    results = {
        "n": args.n,
        "full_rank": report.full_rank,
        "restricted_rank": report.restricted_rank,
        "expected_rank": report.expected_rank,
        "saturated": report.full_saturated and report.restricted_saturated,
        "match": match,
    }
    return results, [], 0 if match else 1


def _cmd_sweep(args):
    for flag in ("max_n", "max_k", "samples"):
        if getattr(args, flag) < 1:
            raise InputError(f"--{flag.replace('_', '-')} must be at least 1, got {getattr(args, flag)}")
    samples = random_dim_vectors(args.samples, args.max_n, args.max_k, seed=args.seed)
    failures = []
    warnings: list[str] = []
    for dims in samples:
        verify = {"dims": str(dims), "stage": "verify", "reproducer": f"qautk verify --dims {dims}"}
        try:
            verified = verify_theorem(dims)
        except RuntimeError as exc:  # an internal consistency check of k_theory
            failures.append({**verify, "error": str(exc)})
            continue
        if not verified:
            failures.append(verify)
            continue
        rerun = f"qautk resolution-check --dims {dims} --degree {args.degree} --test"
        # the canonical delta-form has delta^2 = sum k_i^2, the t-action on C
        algebra = FinDimAlgebra(dims)
        delta_squared = is_delta_form(algebra, AlgState.canonical(algebra)).delta_squared
        if not delta_squared == dims.algebra_dim == derive_t_action(dims, TEST_TRIVIAL):
            failures.append({"dims": str(dims), "stage": "delta-form", "reproducer": f"{rerun} {TEST_TRIVIAL}"})
        if not args.skip_resolution:
            for test in TEST_OBJECTS:
                report = check_exactness(dims, test, args.degree)
                if not report.exact:
                    failures.append({"dims": str(dims), "stage": f"resolution-{test}", "reproducer": f"{rerun} {test}"})
        w = dims.scope_warning()
        if w and w not in warnings:
            warnings.append(w)
    results = {
        "samples": len(samples),
        "max_n": args.max_n,
        "max_k": args.max_k,
        "seed": args.seed,
        "resolution_checked": not args.skip_resolution,
        "failures": failures,
        "all_passed": not failures,
    }
    return results, warnings, 0 if not failures else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Parsing leaves it unchanged: every
    call gets a fresh namespace, and no default is a mutable object."""
    parser = argparse.ArgumentParser(
        prog="qautk",
        description=(
            "Exact K-theory of quantum automorphism groups: boundary matrices, "
            "Smith normal forms, resolution exactness, delta-forms, twisted "
            "group algebras, and magic-unitary rank counts."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="force JSON output")
        p.add_argument("--table", action="store_true", help="force table output")
        return p

    p = add("ktheory", _cmd_ktheory, "K-groups from the boundary matrix")
    p.add_argument("--dims", required=True, help="comma-separated block sizes, e.g. 1,1,1,1")

    p = add("closed-form", _cmd_closed_form, "K-groups from the closed form")
    p.add_argument("--dims", required=True)

    p = add("verify", _cmd_verify, "compare the two K-theory routes (exit 1 on mismatch)")
    p.add_argument("--dims", required=True)

    p = add("boundary", _cmd_boundary, "print the boundary matrix")
    p.add_argument("--dims", required=True)

    p = add("resolution-check", _cmd_resolution_check, "certify exactness of the induced complexes")
    p.add_argument("--dims", required=True)
    p.add_argument("--test", choices=[TEST_TRIVIAL, TEST_ALGEBRA, "both"], default="both")
    p.add_argument("--degree", type=int, default=12, help="truncation degree bound (default 12)")

    p = add("snf", _cmd_snf, "Smith normal form of a matrix in text format")
    p.add_argument("--matrix", required=True, help="path to matrix text, or - for stdin")

    p = add("delta-form", _cmd_delta_form, "test whether a state is a delta-form (exit 1 if not)")
    p.add_argument("--algebra", required=True, help="path to JSON {blocks, density}, or - for stdin")

    p = add("twisted-group", _cmd_twisted_group, "build a twisted group algebra and decompose it (exit 1 on block count mismatch)")
    p.add_argument("--group", help="C<n>, S<n>, D<n>, Q8, products like C2xC2, or a JSON file")
    p.add_argument("--cocycle", required=True, help="trivial, pauli, bilinear:<a>x<b>, or a JSON file")

    p = add("extract-torsion", _cmd_extract_torsion, "recover (subgroup, cocycle) from a graded algebra (exit 1 on block count mismatch)")
    p.add_argument("--algebra", required=True, help="path to graded-algebra JSON, or - for stdin")

    p = add("magic-rank", _cmd_magic_rank, "integer ranks of the generator families (exit 1 on mismatch)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-n", type=int, default=7, help="cap on n (default 7)")

    p = add("sweep", _cmd_sweep, "randomized theorem + exactness sweep (exit 1 on any failure)")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-k", type=int, default=6)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--skip-resolution", action="store_true", help="only run the K-theory comparison")

    return parser


def _echo_inputs(args) -> dict:
    skip = {"handler", "command", "json", "table"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        results, warnings, code = args.handler(args)
    except ValueError as exc:  # InputError and every library input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = RunReport(
        command=args.command,
        inputs=_echo_inputs(args),
        results=results,
        warnings=warnings,
        elapsed_seconds=time.perf_counter() - start,
    )
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
