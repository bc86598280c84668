"""Whole-stack host-time benchmark of the Fabric / Fabric++ simulator.

One command measures every layer from outside, through public functions::

    python3 benchmarks/e2e/run.py --workload all --reps 5 --out results.json
    python3 benchmarks/e2e/run.py --compare before.json after.json

Each workload is run ``--reps`` times untraced, every run in its own
fresh child process (``child.py``), one at a time, for the end-to-end
metrics; then once traced for the per-layer metrics. The traced run must
produce the same ``metrics_sha256`` as the untraced ones. The simulator
is a batch job, so the benchmark reports work per host second at a
stated input size. README.md explains every metric.

The benchmark driver calls the same file as::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

which keeps starting untraced runs until ``S`` host seconds have passed
(at least three), or with ``--trace 1`` makes one untraced and one
traced run, and prints one JSON object as the last line of its output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

import compare as comparison  # noqa: E402 - sibling module
import workloads  # noqa: E402

#: A child that has not finished by then is stuck (the driver allows 180 s
#: for a whole invocation).
CHILD_TIMEOUT_S = 170
#: Fewest untraced runs a median is taken over.
MIN_REPS = 3

HOST_METRICS = ("setup_s", "run_s", "sim_tx_per_cpu_s", "peak_rss_mb")


class BenchmarkError(Exception):
    """A child run failed or broke a correctness check."""


def load_definitions() -> Dict:
    """BENCHMARK.json: the names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(
    workload: str,
    seed: int,
    trace: bool = False,
    duration: Optional[float] = None,
    trace_out: Optional[str] = None,
) -> Dict:
    """One run of ``workload`` in a fresh process; returns its report."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if duration is not None:
        command += ["--duration", repr(duration)]
    if trace:
        command.append("--trace")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited with {done.returncode}\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: List[float], unit: str) -> Dict:
    """Median, quartiles and sample count of one metric's runs."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def block_of(runs: List[Dict], units: Dict[str, str]) -> Dict:
    """One workload's block of the results file, from its untraced runs.

    Failed checks are reported in ``checks``, never raised: the caller
    decides the exit code.
    """
    first = runs[0]
    checks = {name: all(run["checks"][name] for run in runs) for name in first["checks"]}
    checks["same_hash_every_run"] = len({run["metrics_sha256"] for run in runs}) == 1
    end_to_end = {
        name: summarise([run["host"][name] for run in runs], units[name])
        for name in HOST_METRICS
    }
    for name in first["simulated"]:
        end_to_end[name] = summarise([run["simulated"][name] for run in runs], units[name])
    return {
        "duration": first["duration"],
        "end_to_end": end_to_end,
        "metrics_sha256": first["metrics_sha256"],
        "fired": first["fired"],
        "resolved": first["resolved"],
        "latency_samples": first["latency_samples"],
        "checks": checks,
        "details": [line for run in runs for line in run["details"]],
    }


def add_traced(block: Dict, run: Dict) -> None:
    """Fold the traced run's per-layer numbers and checks into ``block``."""
    layers = run["per_layer"]
    layers["bench.trace_overhead_ratio"] = (
        run["host"]["run_s"] / block["end_to_end"]["run_s"]["median"]
    )
    block["checks"].update(run["checks"])
    block["checks"]["traced_hash_equals_untraced"] = (
        run["metrics_sha256"] == block["metrics_sha256"]
    )
    block["details"].extend(run["details"])
    block["per_layer"] = layers
    block["traced_host"] = run["host"]


def measure(
    names: List[str],
    seed: int,
    definitions: Dict,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
    traced: bool = True,
    duration: Optional[float] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, Dict]:
    """Run each workload in ``names`` untraced ``reps`` times (or for
    ``seconds`` host seconds, at least ``MIN_REPS`` times), then once
    traced. Returns the ``workloads`` part of the results file.

    Untraced runs go round-robin over the workloads, still one at a
    time, so that a workload's repetitions are spread over the whole
    session: this kind of machine slows down by up to 40% for ~15 s at a
    time, and back-to-back repetitions would all sit inside one burst.
    """
    units = {m["name"]: m["unit"] for m in definitions["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in definitions["per_layer"]})
    fewest = reps if reps is not None else MIN_REPS
    deadline = time.perf_counter() + (seconds or 0.0)
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    rounds = 0
    while rounds < fewest or time.perf_counter() < deadline:
        for name in names:
            runs[name].append(run_child(name, seed, duration=duration))
        rounds += 1
    blocks = {name: block_of(runs[name], units) for name in names}
    if traced:
        for name in names:
            add_traced(blocks[name], run_child(
                name, seed, trace=True, duration=duration, trace_out=trace_out))
    return blocks


# -- printing ----------------------------------------------------------------------


def print_block(name: str, seed: int, block: Dict, definitions: Dict) -> None:
    """Every metric by name with unit, median, quartiles and sample
    count; then the correctness verdicts."""
    host = {m["name"]: m for m in definitions["end_to_end"]}
    reps = block["end_to_end"]["run_s"]["n"]
    print(f"== {name}: seed {seed}, {block['duration']:g} simulated s, "
          f"{reps} untraced run(s) ==")
    print("end-to-end (host = this machine's time, simulated = model time)")
    for metric, summary in block["end_to_end"].items():
        if metric in host:
            note = f"host, {host[metric]['better']} is better"
        else:
            note = "simulated, exact for a fixed seed"
            if "latency" in metric:
                note += f", {block['latency_samples']} latency samples"
        print(f"  {metric:<26} {summary['median']:>12.6g} {summary['unit']:<6} "
              f"q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  "
              f"n={summary['n']}  ({note})")
    if "per_layer" in block:
        traced = block["traced_host"]
        whole = traced["setup_s"] + traced["run_s"]
        print(f"per-layer (one traced run: set-up {traced['setup_s']:.3f} s + "
              f"run {traced['run_s']:.3f} s; n=1)")
        units = {m["name"]: m["unit"] for m in definitions["per_layer"]}
        for metric, value in block["per_layer"].items():
            unit = units.get(metric, "")
            if metric.endswith(".self_s"):
                print(f"  {metric:<48} {value:>12.6f} {unit:<9} {value / whole:6.1%} of traced time")
            else:
                print(f"  {metric:<48} {value:>12.6g} {unit}")
    print("checks")
    for check, held in block["checks"].items():
        print(f"  {check:<32} {'ok' if held else 'FAILED'}")
    for line in block["details"]:
        print(f"    {line}")


def machine() -> Dict:
    """What the numbers were measured on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


# -- entry points ------------------------------------------------------------------


def driver_line(block: Dict, definitions: Dict, trace: bool) -> Dict:
    """The one-line result the benchmark driver reads."""
    if trace:
        values = dict(block["per_layer"])
        values.update(
            (name, summary["median"])
            for name, summary in block["end_to_end"].items()
            if name.startswith("simulated_")
        )
        wanted = definitions["per_layer"]
    else:
        values = {name: s["median"] for name, s in block["end_to_end"].items()}
        wanted = definitions["end_to_end"]
    runs = block["end_to_end"]["run_s"]["n"]
    return {
        "correct": all(block["checks"].values()),
        # Operations are fired transactions; one that never resolves failed.
        "attempted": block["fired"] * runs,
        "failed": (block["fired"] - block["resolved"]) * runs,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-stack host-time benchmark (see benchmarks/e2e/README.md)."
    )
    names = [w.name for w in workloads.WORKLOADS]
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced runs per workload (default 5; never "
                             "publish numbers from fewer than 3)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", metavar="RESULTS.json",
                        help="write every number to this file (input of --compare)")
    parser.add_argument("--trace-out", metavar="SPANS.json",
                        help="write the traced run's spans (one workload only)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge B against A: host metrics within 10%%, the rest exact")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: host seconds to keep measuring for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer")
    args = parser.parse_args(argv)
    definitions = load_definitions()

    if args.compare:
        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            lines, failed = comparison.compare(json.load(a), json.load(b), definitions)
        print("\n".join(lines))
        print("RESULT: " + ("regression or mismatch" if failed else "no regression"))
        return 1 if failed else 0

    driver_mode = args.seconds is not None or args.trace is not None
    selected = names if args.workload == "all" else [args.workload]
    if (driver_mode or args.trace_out) and len(selected) != 1:
        parser.error("--seconds/--trace/--trace-out take exactly one --workload")
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    if args.trace == 1:
        how = dict(reps=1)
    elif driver_mode:
        how = dict(seconds=args.seconds, traced=False)
    else:
        how = dict(reps=args.reps, trace_out=args.trace_out)
    try:
        blocks = measure(selected, args.seed, definitions, **how)
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    results = {"schema": 1, "seed": args.seed, "machine": machine(), "workloads": blocks}
    for name, block in blocks.items():
        print_block(name, args.seed, block, definitions)
    ok = all(held for block in blocks.values() for held in block["checks"].values())

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("RESULT: " + ("all checks passed" if ok else "CHECKS FAILED"))
    if driver_mode:
        print(json.dumps(driver_line(blocks[selected[0]], definitions, trace=args.trace == 1)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
