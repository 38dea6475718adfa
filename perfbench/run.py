"""Closed-loop benchmark of the qautk command line.

    python3 perfbench/run.py --workload integer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client, one thread: each op is one ``qautk.cli.main(argv)`` call made
in-process with stdin and stdout redirected to memory, and the next op is
sent when it returns.  Every answer is checked by an oracle that does not use
qautk (see oracles.py).  An op that is still running at the workload's
deadline is abandoned, counted as failed, and costs the time it ran.

Times are CPU seconds of the benchmark process (``time.process_time``).
The work is single-threaded and does no I/O, so on an idle machine they
equal wall time; on a shared host they leave out the time the process
waits for a core.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes an untraced pass and a
traced pass over the same ops and reports the per-layer metrics.  Failed
ops (with their stdin) and, when traced, all spans are written to
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("integer", "graded", "delta")

# Per-op deadline in CPU seconds.  On graded and delta it is several times
# the slowest op of the seed commit (10.6 s and 3 s).  On integer it is
# about twice the slowest resolution-check (1.1 s); verify ops whose Smith
# coefficients explode form a continuous tail that no deadline clears.
DEADLINE_S = {"integer": 2.0, "graded": 40.0, "delta": 30.0}

# Seconds one round took at the seed commit; a run makes
# round(--seconds / ROUND_S) rounds, at least one.
ROUND_S = {"integer": 25.0, "graded": 28.0, "delta": 25.0}

SETUP_REPEATS = 5

SUBCOMMANDS = ("verify", "resolution-check", "magic-rank", "twisted-group", "extract-torsion", "delta-form")


class Deadline(BaseException):
    """Raised inside an op when its CPU-time deadline passes."""


class _Alarm:
    armed = False


def _on_alarm(signum, frame):
    if _Alarm.armed:
        _Alarm.armed = False
        raise Deadline


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, seconds: int):
    """Import the CLI, generate the ops and run the warm-up ops."""
    sys.path.insert(0, str(SRC))
    import qautk.cli as cli

    rounds = max(1, round(seconds / ROUND_S[workload]))
    ops = workloads.generate(workload, seed, rounds)
    for op in workloads.warmup(workload):
        result = run_op(cli, op, DEADLINE_S[workload])
        if result["failure"]:
            raise RuntimeError(f"warm-up op failed: {op.reproducer()}: {result['failure']}")
    return cli, ops


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, seconds: int) -> list[float]:
    """CPU time of fresh processes that only set up, as a CLI user pays it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = _children_cpu()
        subprocess.run(argv, check=True, timeout=170, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(_children_cpu() - start)
    return times


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


def run_op(cli, op: workloads.Op, deadline: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(op.stdin)
    code, failure, timed_out = None, None, False
    gc.collect()
    wall = time.perf_counter()
    start = time.process_time()
    _Alarm.armed = True
    signal.setitimer(signal.ITIMER_PROF, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Deadline:
        timed_out = True
        failure = f"abandoned at the {deadline:g} s deadline"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        failure = f"raised {type(exc).__name__}: {exc}"
    finally:
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)
    elapsed = time.process_time() - start
    wall = time.perf_counter() - wall
    sys.stdin = sys.__stdin__
    text = out.getvalue()
    payload = {}
    if failure is None:
        if code == 2:
            failure = f"refused valid input: {err.getvalue().strip()[:300]}"
        else:
            with contextlib.suppress(json.JSONDecodeError):
                payload = json.loads(text)
            failure = oracles.check(op.command, dict(op.expect), code, payload)
    payload.pop("elapsed_seconds", None)
    return {
        "latency": elapsed,
        "wall": wall,
        "failure": failure,
        "timed_out": timed_out,
        "bytes": len(text.encode()),
        "answer": (code, payload),
    }


def run_pass(cli, ops, deadline: float, tracer: spans.Tracer | None = None) -> list[dict]:
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(cli, op, deadline))
    return results


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it; the maximum when there are fewer than 11 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def summarize(ops, results) -> dict:
    latencies = [r["latency"] for r in results]
    good = sum(1 for r in results if r["failure"] is None)
    pct, tail_s = tail(latencies)
    by_cmd: dict[str, list[float]] = {c: [] for c in SUBCOMMANDS}
    for op, r in zip(ops, results):
        by_cmd[op.command].append(r["latency"])
    keys = Counter(op.key() for op in ops)
    return {
        "ops": len(ops),
        "failed": len(ops) - good,
        "timed_out": sum(r["timed_out"] for r in results),
        "wrong": sum(1 for r in results if r["failure"] and not r["timed_out"]),
        "busy_s": sum(latencies),
        "wall_s": sum(r["wall"] for r in results),
        "ops_per_s": good / sum(latencies),
        "p50_ms": 1000 * statistics.median(latencies),
        "tail_pct": pct,
        "tail_ms": 1000 * tail_s,
        "by_cmd": {c: (1000 * statistics.median(v) if v else 0.0, len(v)) for c, v in by_cmd.items()},
        "repeat_share": sum(c - 1 for c in keys.values()) / len(ops),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: spans.Tracer, plain: dict, traced: dict, traced_results) -> dict:
    totals = tracer.layer_totals()
    c, m = tracer.counters, tracer.maxima

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def self_s(name):
        return totals[name]["self_s"] if name in totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in (
        "exact_linalg.invariant_factors", "exact_linalg.kernel_basis", "exact_linalg.LatticeBasis.build",
        "exact_linalg.LatticeBasis.contains", "findim.qc_inverse", "findim.qc_matmul",
        "cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse",
    ):
        out[f"{name}.calls"] = metric(calls(name), "count")
    for name in (
        "exact_linalg.invariant_factors", "exact_linalg.kernel_basis", "exact_linalg.cokernel",
        "exact_linalg.LatticeBasis.build", "exact_linalg.LatticeBasis.contains",
        "ktheory.boundary_matrix", "ktheory.k_theory", "ktheory.closed_form",
        "resolution.derive_t_action", "resolution.build_complex", "resolution.check_exactness",
        "magic.evaluation_matrix", "magic.generator_rank_report",
        "findim.AlgState.init", "findim.gns_gram", "findim.qc_inverse", "findim.qc_matmul",
        "findim.mu_mu_star", "findim.is_delta_form",
        "torsion.FiniteGroup.init", "torsion.Cocycle.init", "torsion.GradedAlgebra.init",
        "torsion.GradedAlgebra.from_dict", "torsion.GradedAlgebra.to_dict",
        "torsion.twisted_group_algebra", "torsion.center_dimension", "torsion.block_decomposition",
        "torsion.extract_torsion_data", "torsion.regular_class_count",
        "cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse", "cli.main",
    ):
        out[f"{name}.self_s"] = metric(self_s(name), "s")
    inv = "exact_linalg.invariant_factors"
    out[f"{inv}.in_cells"] = metric(int(c[f"{inv}.in_cells"]), "count")
    out[f"{inv}.in_bits_max"] = metric(m[f"{inv}.in_bits_max"], "bits")
    out["exact_linalg.kernel_basis.out_bits_max"] = metric(m["exact_linalg.kernel_basis.out_bits_max"], "bits")
    contains = "exact_linalg.LatticeBasis.contains"
    out[f"{contains}.hit_ratio"] = metric(ratio(c[f"{contains}.hits"], calls(contains)), "1")
    out["magic.evaluation_matrix.rows"] = metric(int(c["magic.evaluation_matrix.rows"]), "count")
    out["findim.is_delta_form.accept_ratio"] = metric(
        ratio(c["findim.is_delta_form.accepts"], calls("findim.is_delta_form")), "1")
    out["cyclotomic.degree_max"] = metric(m["cyclotomic.degree_max"], "count")
    out["cli.output_bytes"] = metric(sum(r["bytes"] for r in traced_results), "bytes")

    out["op_p50_ms"] = metric(plain["p50_ms"], "ms")
    out["op_tail_ms"] = metric(plain["tail_ms"], "ms")
    for cmd, (p50, _) in plain["by_cmd"].items():
        out[f"{cmd}.p50_ms"] = metric(p50, "ms")
    out["fail_ratio"] = metric(plain["failed"] / plain["ops"], "1")
    out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out["repeat_share"] = metric(plain["repeat_share"], "1")
    out["trace.ops_per_s"] = metric(traced["ops_per_s"], "op/s")
    out["trace.overhead"] = metric(plain["ops_per_s"] / traced["ops_per_s"] - 1, "1")
    cyclo_calls = sum(calls(n) for n in spans.ROLLED_UP)
    out["trace.cyclotomic_overhead_s"] = metric(cyclo_calls * spans.wrapper_cost_s(), "s")
    covered = sum(rec["self_s"] for rec in tracer.layer_totals().values())
    out["trace.coverage"] = metric(covered / traced["wall_s"], "1")
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def write_out(name: str, ops, results, tracer: spans.Tracer | None) -> Path:
    OUT.mkdir(exist_ok=True)
    doc = {
        "failures": [
            {"index": i, "tier": op.tier, "reproducer": op.reproducer(), "stdin": op.stdin,
             "reason": r["failure"], "latency_s": r["latency"]}
            for i, (op, r) in enumerate(zip(ops, results))
            if r["failure"]
        ],
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["rollups"] = [[parent, name, count, total] for (parent, name), (count, total) in tracer.rollups.items()]
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def report_failures(ops, results, label: str) -> None:
    for op, r in zip(ops, results):
        if r["failure"]:
            print(f"{label} failed op [{op.tier}] {op.reproducer()}: {r['failure']}")


def run(args) -> int:
    workload = args.workload
    setup_times = measure_setup(workload, args.seed, args.seconds)
    signal.signal(signal.SIGPROF, _on_alarm)
    cli, ops = set_up(workload, args.seed, args.seconds)
    deadline = DEADLINE_S[workload]

    results = run_pass(cli, ops, deadline)
    plain = summarize(ops, results)
    report_failures(ops, results, "untraced")
    name = f"{workload}-seed{args.seed}-trace{args.trace}"
    correct = plain["wrong"] == 0

    print(f"workload {workload}: {plain['ops']} ops, closed loop, 1 client, deadline {deadline:g} s")
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_results = run_pass(cli, ops, deadline, tracer)
        finally:
            tracer.uninstall()
        traced = summarize(ops, traced_results)
        report_failures(ops, traced_results, "traced")
        same = [a["answer"] for a in results] == [b["answer"] for b in traced_results]
        print(f"traced answers identical to untraced: {same}")
        correct = correct and traced["wrong"] == 0
        metrics = layer_metrics(tracer, plain, traced, traced_results)
        path = write_out(name, ops, traced_results, tracer)
        attempted, failed = 2 * plain["ops"], plain["failed"] + traced["failed"]
        notes = {}
    else:
        n = plain["ops"]
        metrics = {
            "ops_per_s": metric(plain["ops_per_s"], "op/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
        notes = {
            "ops_per_s": f"{n - plain['failed']} correct ops in {plain['busy_s']:.2f} s",
            "setup_s": f"median of {SETUP_REPEATS}",
        }
        path = write_out(name, ops, results, None)
        attempted, failed = n, plain["failed"]
        # the rest of the end-to-end rows; too noisy across runs to bound,
        # so traced runs report them as per-layer metrics
        print(f"  op_p50_ms {plain['p50_ms']:.6g} ms (n={n})")
        print(f"  op_tail_ms {plain['tail_ms']:.6g} ms (p{plain['tail_pct']:.1f}, n={n})")
        print(f"  fail_ratio {plain['failed'] / n:.6g} 1 ({plain['failed']} of {n}, "
              f"{plain['timed_out']} abandoned at the deadline)")
        print(f"  peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.6g} MB")
        print(f"  repeat_share {plain['repeat_share']:.6g} 1")
        for cmd, (p50, count) in plain["by_cmd"].items():
            if count:
                print(f"  {cmd}.p50_ms {p50:.6g} ms (n={count})")
    for key, rec in metrics.items():
        note = f" ({notes[key]})" if key in notes else ""
        print(f"  {key} {rec['value']:.6g} {rec['unit']}{note}")
    print(f"  details in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        print()
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qautk" / "cli.py").is_file():
        print(f"error: {SRC / 'qautk'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        signal.signal(signal.SIGPROF, _on_alarm)
        set_up(args.workload, args.seed, args.seconds)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
