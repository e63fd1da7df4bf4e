"""bench_e2e: the repository's end-to-end benchmark.

Three ways in (``README.md`` has the tables and the reasons):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, as the gate drives it.  The last line of
    standard output is one JSON object: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — every end-to-end metric of
    ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  Exit 0 only when every correctness check passed.

``run.py [--seed N] [--workload NAME] [--runs R] [--smoke]``
    The report: each workload in its own process, untraced then traced;
    prints every metric by name with its unit, writes the result JSON
    (``--out``) and the spans (``--trace-out``).

``run.py --compare A.json B.json``
    Judges result file B against A with each metric's own bound and
    direction; exit 2 when any metric is worse.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: The constraint set each workload works on.  The traced tour depends only
#: on it, so the report runs one tour per set, not one per workload.
CONSTRAINT_SET = {"cold_wlc": "wlc", "cold_wls": "wls", "drift_wlc": "wlc",
                  "warm_stream": "wls", "warm_summarize": "wls",
                  "regen_verify": "wls"}


def units(section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def with_units(values: Dict[str, float], section: str) -> Dict[str, Dict[str, object]]:
    declared = units(section)
    if set(values) != set(declared):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json:"
            f" missing {sorted(set(declared) - set(values))},"
            f" undeclared {sorted(set(values) - set(declared))}")
    return {name: {"value": float(values[name]), "unit": declared[name]}
            for name in declared}


# ---------------------------------------------------------------------- #
# one run of one workload
# ---------------------------------------------------------------------- #
def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``bench_e2e/.work`` (inside the checkout)."""
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=BENCH_DIR / ".work"))


def import_program() -> bool:
    """Put ``src/`` on the path; False (and a message) if it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as error:
        print(f"bench_e2e: cannot import the program under test: {error}",
              file=sys.stderr)
        return False
    return True


def run_one(args: argparse.Namespace) -> int:
    if not import_program():
        return 3
    import inputs
    import workloads

    import_s = time.perf_counter() - PROCESS_STARTED
    work_dir = scratch_dir("run-")
    ctx = workloads.Context(
        sizing=inputs.SMOKE if args.smoke else inputs.FULL, smoke=args.smoke,
        seconds=args.seconds, seed=args.seed,
        which=CONSTRAINT_SET[args.workload], work_dir=work_dir,
        prepare_dir=args.prepare_dir, inject=args.inject)
    try:
        if args.trace:
            import layers
            from spans import Tracer

            tracer = Tracer()
            metrics = with_units(layers.tour(ctx, tracer), "per_layer")
            tracer.write(args.trace_out)
        else:
            measured = workloads.WORKLOADS[args.workload](ctx)
            metrics = with_units(end_to_end(measured, import_s), "end_to_end")
            if args.samples_out:
                args.samples_out.write_text(json.dumps(measured.samples_s))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in ctx.tally.failures:
        print(f"bench_e2e: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }))
    return 0 if ctx.tally.failed == 0 else 1


def end_to_end(measured: "workloads.Measured", import_s: float) -> Dict[str, float]:
    from repro import evaluate_on_summary

    fidelity = evaluate_on_summary(measured.prepared.constraints,
                                   measured.summary, measured.prepared.schema)
    return {
        "setup_s": import_s + measured.prepared.prepare_s + measured.setup_rest_s,
        "op_p50_ms": 1e3 * statistics.median(measured.samples_s),
        "throughput_per_s": measured.work / measured.busy_s,
        "peak_rss_mb": measured.peak_rss_kb / 1024.0,
        "cc_within_1pct": fidelity.fraction_within(0.01),
        "summary_bytes": measured.summary.nbytes(),
    }


# ---------------------------------------------------------------------- #
# the report: every workload untraced, then one traced tour per input set
# ---------------------------------------------------------------------- #
def report(args: argparse.Namespace) -> int:
    if not import_program():
        return 3
    import inputs

    names = [args.workload] if args.workload else WORKLOAD_NAMES
    result_path = args.out or BENCH_DIR / "out" / "result.json"
    spans_path = args.trace_out or BENCH_DIR / "out" / "spans.jsonl"
    for path in (result_path, spans_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    prepare_dir = scratch_dir("prepare-")
    try:
        # Extract each constraint set once, here, so that every workload
        # process loads it and none carries the client database in its RSS.
        for which in sorted({CONSTRAINT_SET[name] for name in names}):
            inputs.prepare(inputs.SMOKE if args.smoke else inputs.FULL, which,
                           prepare_dir)
        workloads = {name: untraced_runs(args, name, prepare_dir)
                     for name in names}
        layers = layer_tours(args, names, prepare_dir, spans_path)
    finally:
        shutil.rmtree(prepare_dir, ignore_errors=True)
    result_path.write_text(json.dumps({
        "format": 1, "smoke": args.smoke, "seed": args.seed,
        "seconds": args.seconds, "environment": environment(),
        "workloads": workloads, "layers": layers,
    }, indent=1, sort_keys=True) + "\n")
    print(f"\nresult: {result_path}\nspans:  {spans_path}")
    failed = sum(entry["failed"] for entry in (*workloads.values(),
                                               *layers.values()))
    return 1 if failed else 0


def untraced_runs(args: argparse.Namespace, name: str,
                  prepare_dir: Path) -> Dict[str, object]:
    """``--runs`` gate-protocol runs of one workload, printed as one block."""
    entry = {"constraint_set": CONSTRAINT_SET[name], "end_to_end": {},
             "attempted": 0, "failed": 0}
    samples_path = prepare_dir / "samples.json"
    samples: List[float] = []
    for run in range(args.runs):
        line = child_run(args, name, args.seed + run, prepare_dir,
                         ["--trace", "0", "--samples-out", str(samples_path)])
        if samples_path.exists():
            samples += json.loads(samples_path.read_text())
            samples_path.unlink()
        entry["attempted"] += line["attempted"]
        entry["failed"] += line["failed"]
        for metric, reading in line.get("metrics", {}).items():
            entry["end_to_end"].setdefault(metric, []).append(reading["value"])
    entry["tail"] = tail(samples)
    print_rows(f"{name}: {entry['failed']} of {entry['attempted']}"
               f" operations and checks failed", "end_to_end",
               {metric: statistics.median(values)
                for metric, values in entry["end_to_end"].items()})
    print("  operation latency tail: {percentile} = {ms} ms"
          " ({samples} samples)".format(**entry["tail"]))
    return entry


def layer_tours(args: argparse.Namespace, names: List[str], prepare_dir: Path,
                spans_path: Path) -> Dict[str, Dict[str, object]]:
    """One traced tour per constraint set; all spans into ``spans_path``."""
    tours: Dict[str, Dict[str, object]] = {}
    part = prepare_dir / "spans.part"
    with spans_path.open("w") as all_spans:
        for name in names:
            which = CONSTRAINT_SET[name]
            if which in tours:
                continue
            line = child_run(args, name, args.seed, prepare_dir,
                             ["--trace", "1", "--trace-out", str(part)])
            tours[which] = {
                "attempted": line["attempted"], "failed": line["failed"],
                "metrics": {metric: reading["value"] for metric, reading
                            in line.get("metrics", {}).items()}}
            if part.exists():
                for span in part.read_text().splitlines():
                    all_spans.write(json.dumps(
                        {"constraint_set": which, **json.loads(span)}) + "\n")
                part.unlink()
            print_rows(f"layer tour on {which}: {line['failed']} of"
                       f" {line['attempted']} checks failed", "per_layer",
                       tours[which]["metrics"])
    return tours


def tail(samples: List[float]) -> Dict[str, object]:
    """The highest percentile with at least ten samples beyond it.

    Information for the reader, not a gated metric: on the slow workloads a
    run holds three samples, and no percentile of three is a measurement.
    """
    for percent in (99, 95, 90, 75):
        if len(samples) * (100 - percent) >= 1000:
            value = statistics.quantiles(samples, n=100, method="inclusive")[percent - 1]
            return {"percentile": f"p{percent}", "ms": round(1e3 * value, 3),
                    "samples": len(samples)}
    return {"percentile": "none supported", "ms": "-", "samples": len(samples)}


def child_run(args: argparse.Namespace, name: str, seed: int, prepare_dir: Path,
              mode: List[str]) -> Dict[str, object]:
    """One workload process in the gate's protocol; its result line."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--prepare-dir", str(prepare_dir), *mode]
    if args.smoke:
        command.append("--smoke")
    if args.inject:
        command += ["--inject", args.inject]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1}
    return json.loads(lines[-1])


def print_rows(title: str, section: str, values: Dict[str, float]) -> None:
    print(f"\n== {title}")
    for metric, unit in units(section).items():
        if metric in values:
            print(f"  {metric:<36} {values[metric]:>14.6g} {unit}")


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="sizes every timed loop (fixed counts, see README)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in the gate's protocol; omit for the report")
    parser.add_argument("--runs", type=int, default=1,
                        help="report: untraced runs per workload (seeds seed..)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes; results are not comparable")
    parser.add_argument("--out", type=Path, help="report: result JSON path")
    parser.add_argument("--trace-out", type=Path, help="spans JSONL path")
    parser.add_argument("--samples-out", type=Path,
                        help="one run: also write the raw latency samples")
    parser.add_argument("--prepare-dir", type=Path,
                        help="share extracted constraint sets between runs")
    parser.add_argument("--inject", choices=("corrupt_shard",),
                        help="fault injection, for the benchmark's own test")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], SPEC)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
