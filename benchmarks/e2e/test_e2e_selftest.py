"""Self-test of the whole-stack benchmark (not part of tier-1).

Run explicitly::

    python -m pytest benchmarks/e2e -q

One 1-simulated-second pass of every workload (a fresh child process per
run, as in the real benchmark) checks the output schema, the traced ==
untraced hash, the vanilla-skips-core rule, and that ``--compare`` flags
a 20% slowdown, a one-transaction simulated drift, a failed check and
anything missing from one side.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 42
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SIMULATED = (
    "simulated_committed_tps",
    "simulated_failed_share",
    "simulated_latency_p50_s",
    "simulated_latency_p99_s",
)


@pytest.fixture(scope="module")
def definitions():
    return run.load_definitions()


@pytest.fixture(scope="module")
def results(definitions):
    """One short untraced + one traced run of every workload."""
    names = [w.name for w in workloads.WORKLOADS]
    blocks = run.measure(names, SEED, definitions, reps=1, duration=1.0)
    return {"schema": 1, "seed": SEED, "machine": run.machine(), "workloads": blocks}


def test_benchmark_json_meets_the_driver_contract(definitions):
    assert set(definitions) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert definitions["paths"] == ["benchmarks/e2e"]
    assert 1 <= definitions["run_seconds"] <= 60
    assert [w["name"] for w in definitions["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    for entry in definitions["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in definitions[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in definitions["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in definitions["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in definitions["end_to_end"] + definitions["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in definitions["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in definitions["end_to_end"])
    assert len(definitions["per_layer"]) <= 128


def test_output_schema(results, definitions):
    end_to_end = {m["name"] for m in definitions["end_to_end"]}
    per_layer = {m["name"] for m in definitions["per_layer"]}
    assert end_to_end == set(run.HOST_METRICS)
    for block in results["workloads"].values():
        assert set(block["end_to_end"]) == end_to_end | set(SIMULATED)
        for summary in block["end_to_end"].values():
            assert set(summary) == {"unit", "median", "q1", "q3", "n", "values"}
            assert summary["median"] > 0 or summary["unit"] == "ratio"
        assert set(block["per_layer"]) | set(SIMULATED) == per_layer
        assert re.fullmatch(r"[0-9a-f]{64}", block["metrics_sha256"])
        # The driver's result lines carry exactly the declared metrics.
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            line = run.driver_line(block, definitions, trace=trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert set(line["metrics"]) == wanted
            assert line["correct"] is True and line["attempted"] >= 1
            assert line["failed"] == 0


def test_every_check_passes_and_hashes_match(results):
    for name, block in results["workloads"].items():
        assert all(block["checks"].values()), (name, block["checks"], block["details"])
        assert block["checks"]["traced_hash_equals_untraced"]
        assert block["checks"]["trace_closes_within_1pct"]
        assert block["fired"] == block["resolved"] > 0


def test_vanilla_workloads_never_enter_core(results):
    for spec in workloads.WORKLOADS:
        layers = results["workloads"][spec.name]["per_layer"]
        core = {k: v for k, v in layers.items() if k.startswith(("core.", "graphalgo."))}
        if spec.is_vanilla:
            assert not any(core.values()), (spec.name, core)
        else:
            assert layers["core.reorder.calls"] > 0
            assert layers["core.build_conflict_graph.pairs"] > 0


def test_counts_are_consistent(results):
    for block in results["workloads"].values():
        layers = block["per_layer"]
        assert layers["sim.events"] >= layers["sim.process_resumes"] > 0
        assert layers["workloads.next_invocation.calls"] == block["fired"]
        assert layers["crypto.verify.calls"] > 0
        assert 0 < layers["crypto.verify.distinct_ratio"] <= 1


def test_compare_accepts_identical_results(results, definitions):
    lines, failed = compare.compare(results, copy.deepcopy(results), definitions)
    assert not failed, lines


def scaled(results, workload, metric, factor):
    """A copy of ``results`` with every run of one host metric scaled."""
    edited = copy.deepcopy(results)
    summary = edited["workloads"][workload]["end_to_end"][metric]
    for key in ("median", "q1", "q3"):
        summary[key] *= factor
    summary["values"] = [value * factor for value in summary["values"]]
    return edited


def test_compare_flags_a_20_percent_slowdown(results, definitions):
    slower = scaled(results, "blank-fabric", "run_s", 1.20)
    lines, failed = compare.compare(results, slower, definitions)
    assert failed
    assert any("WORSE" in line and "run_s" in line for line in lines)
    # Within the bound, and 20% better, are both fine.
    assert not compare.compare(results, scaled(results, "blank-fabric", "run_s", 1.05), definitions)[1]
    assert not compare.compare(results, scaled(results, "blank-fabric", "run_s", 0.80), definitions)[1]


def test_compare_gives_setup_s_an_absolute_floor(results, definitions):
    setup = results["workloads"]["blank-fabric"]["end_to_end"]["setup_s"]["median"]
    assert setup < 0.01  # sub-millisecond build: +50% is still noise
    assert not compare.compare(
        results, scaled(results, "blank-fabric", "setup_s", 1.5), definitions)[1]
    lines, failed = compare.compare(
        results, scaled(results, "blank-fabric", "setup_s", 1.0 + 0.06 / setup), definitions)
    assert failed and any("WORSE" in line and "setup_s" in line for line in lines)


def test_compare_flags_a_one_transaction_drift(results, definitions):
    drifted = copy.deepcopy(results)
    block = drifted["workloads"]["custom-hot-fabric"]
    summary = block["end_to_end"]["simulated_committed_tps"]
    summary["median"] += 1.0 / block["duration"]
    lines, failed = compare.compare(results, drifted, definitions)
    assert failed
    assert any("simulated_committed_tps" in line and "exact" in line for line in lines)


def test_compare_flags_a_failed_check(results, definitions):
    broken = copy.deepcopy(results)
    broken["workloads"]["smallbank-fabricpp"]["checks"]["invariants_hold"] = False
    for a, b in ((results, broken), (broken, results)):
        lines, failed = compare.compare(a, b, definitions)
        assert failed
        assert any("invariants_hold" in line for line in lines)


def test_compare_flags_whatever_one_side_lacks(results, definitions):
    def drop(path):
        edited = copy.deepcopy(results)
        node = edited["workloads"]
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return edited

    for path in (
        ("ycsb-sharded4-lockless",),
        ("blank-fabric", "end_to_end", "run_s"),
        ("blank-fabric", "end_to_end", "simulated_committed_tps"),
        ("custom-hot-fabricpp", "per_layer", "core.reorder.calls"),
    ):
        for a, b in ((results, drop(path)), (drop(path), results)):
            lines, failed = compare.compare(a, b, definitions)
            assert failed, path
            assert any("MISMATCH" in line and "missing" in line for line in lines), path


def test_compare_cli_exit_code(results, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results))
    drifted = copy.deepcopy(results)
    drifted["workloads"]["blank-fabric"]["metrics_sha256"] = "0" * 64
    b.write_text(json.dumps(drifted))
    assert run.main(["--compare", str(a), str(a)]) == 0
    assert run.main(["--compare", str(a), str(b)]) == 1
