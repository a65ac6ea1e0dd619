"""End-to-end benchmark of the NXDomain reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study|ingest|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` runs the workload untraced and prints its end-to-end
metrics.  ``--trace 1`` first runs the untraced workload in a child
process (for the tracing overhead and the identity check), then runs it
again in this process with timing wrappers around every layer call,
dumps the spans under ``.perfbench_out/`` and prints the per-layer
metrics.  ``--workload all`` runs each workload in its own process and
prints every metric by name and unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("study", "ingest", "serve")
#: Set-ups per untraced run; ``setup_s`` reports their median (plus
#: the one-off import time).
SETUP_REPEATS = 3


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--result-file",
        help="also write the full untraced result here (used by --trace 1)",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        fail(f"program sources not found under {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))


def child_command(args: argparse.Namespace, workload: str, trace: int) -> List[str]:
    return [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]


def run_child(command: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(command, capture_output=True, text=True, timeout=900)


# -- one workload -------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    import statistics

    import layers
    import workloads
    from repro.passivedns.spill import atomic_write_bytes

    imports_s = time.perf_counter() - PROCESS_START
    workdir = TMP_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return run_traced(args, workdir)
        setups = []
        workload = None
        for _ in range(SETUP_REPEATS):
            del workload  # never hold two set-ups at once
            gc.collect()
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = imports_s + statistics.median(setups)
        outcome = workload.run(args.seconds, tracer=None)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": workloads.peak_rss_mb(),
            "primary_p50_ms": outcome.primary_p50_ms,
            "throughput_per_s": outcome.throughput_per_s,
            "side_p50_ms": outcome.side_p50_ms,
        }
        if args.result_file:
            # Before the clean-up below: the file may sit in TMP_DIR.
            result = {
                "metrics": metrics,
                "named": outcome.named,
                "headline_s": outcome.headline_s,
                "hashes": outcome.hashes,
                "problems": outcome.problems,
            }
            atomic_write_bytes(Path(args.result_file), json.dumps(result).encode())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()  # left alone while another run still uses it
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, value in outcome.named.items():
        print(f"{args.workload} {name} = {value:.6g}")
    correct = not outcome.problems
    units = layers.units("end_to_end")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_traced(args: argparse.Namespace, workdir: Path) -> int:
    import layers
    import workloads
    from tracing import Tracer, wrapper_cost_s

    result_file = workdir / "untraced.json"
    command = child_command(args, args.workload, 0) + ["--result-file", str(result_file)]
    child = run_child(command)
    if child.returncode != 0 or not result_file.is_file():
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        untraced = None
    else:
        untraced = json.loads(result_file.read_text(encoding="utf-8"))

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        outcome = workload.run(args.seconds, tracer=tracer)
    units = outcome.units
    summary = tracer.summary()

    problems = list(outcome.problems)
    if untraced is None:
        problems.append("untraced child run failed")
        untraced = {"named": {}, "headline_s": outcome.headline_s, "hashes": {}}
    problems += untraced.get("problems", [])
    for key, digest in outcome.hashes.items():
        other = untraced["hashes"].get(key)
        if other is not None and other != digest:
            problems.append(f"traced {key} hash {digest} != untraced {other}")

    values: Dict[str, float] = {name: 0.0 for name in layers.per_layer_names()}
    values.update(layers.span_metrics(summary, units))
    values["database.add_batch_rows"] = (
        tracer.counters.get("database.add_batch_rows", 0) / units
    )
    values.update(outcome.layer)
    values.update(untraced["named"])
    # The wrappers' cost, estimated: the traced-minus-untraced difference
    # of two runs would drown in the host's run-to-run drift.
    values["trace_overhead_frac"] = (
        tracer.calls / units * wrapper_cost_s() / untraced["headline_s"]
    )
    findings: Dict[str, Any] = {
        "measured_overhead_frac": outcome.headline_s / untraced["headline_s"] - 1.0,
    }
    if args.workload == "study":
        root = summary.get("study.full_report", {"incl_s": 0.0, "self_s": 0.0})
        values["study.unattributed_s"] = root["self_s"] / units
        values["study.attributed_frac"] = 1.0 - root["self_s"] / root["incl_s"]
        findings["study.full_report"] = tracer.breakdown("study.full_report")
        findings["trace.generate"] = tracer.breakdown("trace.generate")
        if values["study.attributed_frac"] < 0.9:
            problems.append(
                f"only {values['study.attributed_frac']:.1%} of study_s is "
                "attributed to named spans (gate: 90%)"
            )
    else:
        findings["pipeline.checkpoint"] = tracer.breakdown("pipeline.checkpoint")
        findings["database.spill_commit"] = tracer.breakdown("database.spill_commit")
        findings["server.serve"] = tracer.breakdown("server.serve")
    unknown = sorted(set(values) - set(layers.per_layer_names()))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in layers.units("per_layer").items()
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(
        OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json",
        {
            "workload": args.workload,
            "seed": args.seed,
            "units": units,
            "metrics": {name: m["value"] for name, m in metrics.items()},
            "unreported_spans": unknown,
            "findings": findings,
            "problems": problems,
        },
    )
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- all workloads ------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; every metric by name and unit."""
    import layers

    units = layers.units("per_layer")
    units.update(layers.units("end_to_end"))
    correct = True
    attempted = failed = 0
    combined: Dict[str, Dict[str, Any]] = {}
    # The children clean up their own directories only, never this one.
    results = TMP_DIR / f"all-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOAD_NAMES:
            result_file = results / f"{workload}.json"
            command = child_command(args, workload, args.trace)
            if not args.trace:
                command += ["--result-file", str(result_file)]
            child = run_child(command)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                correct = False
                sys.stdout.write(child.stdout)
                sys.stderr.write(child.stderr)
                if not lines:
                    continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"== {workload}")
            rows = {name: m["value"] for name, m in result["metrics"].items()}
            if result_file.is_file():
                rows.update(json.loads(result_file.read_text())["named"])
            for name, value in rows.items():
                print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")
                combined[f"{workload}.{name}"] = {
                    "value": value,
                    "unit": units.get(name, ""),
                }
    finally:
        shutil.rmtree(results, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": combined,
            }
        )
    )
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
