"""Tests for the command-line interface."""

import pytest

from repro.bench.results import ResultSet
from repro.cli import (
    build_parser,
    config_from_args,
    main,
    workload_ref_from_args,
)
from repro.errors import ConfigError
from repro.workloads.blank import BlankWorkload
from repro.workloads.custom import CustomWorkload
from repro.workloads.smallbank import SmallbankWorkload


def parse(argv):
    return build_parser().parse_args(argv)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        parse([])


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        parse(["run", "--workload", "tpcc"])


def test_workload_selection():
    assert isinstance(
        workload_ref_from_args(parse(["run", "--workload", "smallbank"])).build(),
        SmallbankWorkload,
    )
    assert isinstance(
        workload_ref_from_args(parse(["run", "--workload", "custom"])).build(),
        CustomWorkload,
    )
    assert isinstance(
        workload_ref_from_args(parse(["run", "--workload", "blank"])).build(),
        BlankWorkload,
    )


def test_smallbank_knobs_forwarded():
    args = parse(
        ["run", "--workload", "smallbank", "--users", "500",
         "--prob-write", "0.5", "--s-value", "1.2"]
    )
    workload = workload_ref_from_args(args).build()
    assert workload.params.num_users == 500
    assert workload.params.prob_write == 0.5
    assert workload.params.s_value == 1.2


def test_custom_knobs_forwarded():
    args = parse(
        ["run", "--workload", "custom", "--accounts", "2000", "--rw", "4",
         "--hr", "0.2", "--hw", "0.05", "--hss", "0.02"]
    )
    workload = workload_ref_from_args(args).build()
    assert workload.params.num_accounts == 2000
    assert workload.params.reads_writes == 4
    assert workload.params.prob_hot_read == 0.2


def test_system_flag_builds_fabricpp():
    vanilla = config_from_args(parse(["run", "--system", "fabric"]))
    fabricpp = config_from_args(parse(["run", "--system", "fabric++"]))
    assert not vanilla.is_fabric_plus_plus
    assert fabricpp.is_fabric_plus_plus


def test_network_knobs_forwarded():
    config = config_from_args(
        parse(["run", "--block-size", "256", "--clients", "2",
               "--channels", "3", "--client-rate", "100"])
    )
    assert config.batch.max_transactions == 256
    assert config.clients_per_channel == 2
    assert config.channels == 3
    assert config.num_channels == 1
    assert config.client_rate == 100


def test_run_command_end_to_end(capsys):
    exit_code = main(
        ["run", "--workload", "blank", "--clients", "1",
         "--client-rate", "50", "--duration", "2", "--block-size", "32"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Fabric / blank" in output
    assert "successful_tps" in output


def test_compare_command_end_to_end(tmp_path, capsys):
    saved = tmp_path / "compare.json"
    exit_code = main(
        ["compare", "--workload", "custom", "--accounts", "500",
         "--clients", "1", "--client-rate", "100", "--duration", "2",
         "--block-size", "64", "--json", str(saved)]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Fabric vs Fabric++" in output
    assert "improvement" in output
    # --json is the full result set: it reloads and reports the same factor.
    results = ResultSet.from_json(saved.read_text())
    assert list(results) == ["Fabric", "Fabric++"]
    assert f"improvement: {results.improvement_factor():.2f}x" in output


def test_caliper_command_end_to_end(capsys):
    exit_code = main(
        ["caliper", "--workload", "blank", "--clients", "1",
         "--rate", "50", "--duration", "3"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Caliper report" in output
    assert "avg_latency" in output


def test_verify_ledger_command(tmp_path, capsys):
    from dataclasses import replace

    from repro.core.batch_cutter import BatchCutConfig
    from repro.fabric.config import FabricConfig
    from repro.fabric.network import FabricNetwork
    from repro.ledger.export import save_ledger

    config = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=50.0,
        batch=BatchCutConfig(max_transactions=16),
    )
    network = FabricNetwork(config, BlankWorkload())
    network.run(duration=1.0, drain=4.0)
    path = tmp_path / "ledger.json"
    save_ledger(path, network.reference_peer.channels["ch0"].ledger)

    assert main(["verify-ledger", str(path)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_verify_ledger_detects_tampering(tmp_path, capsys):
    import json
    from dataclasses import replace

    from repro.core.batch_cutter import BatchCutConfig
    from repro.fabric.config import FabricConfig
    from repro.fabric.network import FabricNetwork
    from repro.ledger.export import save_ledger

    config = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=50.0,
        batch=BatchCutConfig(max_transactions=16),
    )
    network = FabricNetwork(config, BlankWorkload())
    network.run(duration=1.0, drain=4.0)
    path = tmp_path / "ledger.json"
    save_ledger(path, network.reference_peer.channels["ch0"].ledger)
    payload = json.loads(path.read_text())
    payload["blocks"][0]["data_hash"] = "00" * 32
    path.write_text(json.dumps(payload))

    assert main(["verify-ledger", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def _sweep_argv(tmp_path, jobs):
    return [
        "sweep", "--workload", "custom", "--accounts", "400",
        "--clients", "1", "--client-rate", "100", "--duration", "1",
        "--block-size", "32", "--sweep", "block-size=16,32",
        "--jobs", str(jobs), "--cache-dir", str(tmp_path / "cache"),
    ]


def _table_lines(output):
    """The deterministic part of sweep output (drop the timing summary)."""
    return [line for line in output.splitlines() if "point(s):" not in line]


def test_sweep_command_parallel_matches_serial(tmp_path, capsys):
    assert main(_sweep_argv(tmp_path / "serial", jobs=1)) == 0
    serial = capsys.readouterr().out
    assert main(_sweep_argv(tmp_path / "parallel", jobs=2)) == 0
    parallel = capsys.readouterr().out
    assert _table_lines(parallel) == _table_lines(serial)
    assert "sweep / custom" in serial
    assert "improvement per grid point" in serial


def test_sweep_command_second_run_hits_cache(tmp_path, capsys):
    assert main(_sweep_argv(tmp_path, jobs=2)) == 0
    first = capsys.readouterr().out
    assert "4 point(s): 4 simulated, 0 from cache" in first
    assert main(_sweep_argv(tmp_path, jobs=2)) == 0
    second = capsys.readouterr().out
    assert "4 point(s): 0 simulated, 4 from cache" in second
    assert _table_lines(second) == _table_lines(first)


def test_sweep_command_no_cache(tmp_path, capsys):
    argv = _sweep_argv(tmp_path, jobs=1) + ["--no-cache"]
    assert main(argv) == 0
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert "4 simulated, 0 from cache" in output
    assert not (tmp_path / "cache").exists()


def test_sweep_command_single_system(tmp_path, capsys):
    argv = _sweep_argv(tmp_path, jobs=1) + ["--systems", "fabric"]
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert "improvement per grid point" not in output
    assert "2 point(s)" in output


def test_sweep_command_rejects_bad_axis(tmp_path, capsys):
    argv = _sweep_argv(tmp_path, jobs=1)
    argv[argv.index("block-size=16,32")] = "warp-speed=9"
    assert main(argv) == 2
    assert "bad --sweep" in capsys.readouterr().err


def test_sweep_command_rejects_bad_system(tmp_path, capsys):
    argv = _sweep_argv(tmp_path, jobs=1) + ["--systems", "fabric,quorum"]
    assert main(argv) == 2
    assert "unknown system" in capsys.readouterr().err


def test_drain_flag_forwarded():
    args = parse(["run", "--drain", "7.5"])
    assert args.drain == 7.5
    args = parse(["sweep", "--drain", "0"])
    assert args.drain == 0.0


def test_ycsb_workload_via_cli():
    args = parse(["run", "--workload", "ycsb", "--ycsb-preset", "b",
                  "--records", "500"])
    workload = workload_ref_from_args(args).build()
    from repro.workloads.ycsb import YcsbWorkload

    assert isinstance(workload, YcsbWorkload)
    assert workload.params.num_records == 500
    assert workload.params.mix == {"read": 0.95, "update": 0.05}


# -- fault-injection flags ------------------------------------------------------


def test_default_run_has_zero_fault_schedule():
    config = config_from_args(parse(["run"]))
    assert config.faults.is_zero
    assert config.endorsement_policy is None


def test_crash_and_stall_flags_build_schedule():
    config = config_from_args(
        parse(
            ["run", "--crash", "peer1.OrgA@0.5+0.7", "--crash",
             "peer0.OrgB@1.0+0.2", "--stall", "1.5+0.3"]
        )
    )
    faults = config.faults
    assert len(faults.crashes) == 2
    assert faults.crashes[0].peer == "peer1.OrgA"
    assert faults.crashes[0].at == 0.5
    assert faults.crashes[0].duration == 0.7
    assert faults.stalls[0].at == 1.5
    # A deadline is defaulted in so the schedule validates.
    assert faults.endorsement_timeout > 0
    config.validate()


def test_drop_and_jitter_flags_forwarded():
    config = config_from_args(
        parse(["run", "--drop-rate", "0.05", "--jitter", "0.002",
               "--endorse-timeout", "0.1", "--endorse-retries", "5"])
    )
    assert config.faults.drop_probability == 0.05
    assert config.faults.jitter_mean == 0.002
    assert config.faults.endorsement_timeout == 0.1
    assert config.faults.max_endorsement_retries == 5


def test_bad_crash_spec_is_a_clean_error(capsys):
    exit_code = main(["run", "--crash", "nonsense"])
    assert exit_code == 2
    assert "bad --crash" in capsys.readouterr().err


def test_policy_and_resubmit_flags_forwarded():
    config = config_from_args(
        parse(["run", "--policy", "outof:1", "--max-resubmits", "4"])
    )
    assert config.endorsement_policy == "outof:1"
    assert config.max_resubmits == 4
    assert config_from_args(
        parse(["run", "--max-resubmits", "-1"])
    ).max_resubmits is None


def test_run_command_with_faults_end_to_end(tmp_path, capsys):
    ledger_path = tmp_path / "faulty-ledger.json"
    exit_code = main(
        ["run", "--workload", "smallbank", "--users", "300",
         "--clients", "2", "--client-rate", "100", "--block-size", "32",
         "--duration", "1.5", "--policy", "outof:1",
         "--crash", "peer1.OrgA@0.4+0.5",
         "--export-ledger", str(ledger_path)]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "fault events:" in output
    assert "crash" in output and "recover" in output
    assert ledger_path.exists()
    # The exported ledger of the faulty run verifies clean.
    assert main(["verify-ledger", str(ledger_path)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_verify_ledger_reports_block_index(tmp_path, capsys):
    import json

    ledger_path = tmp_path / "ledger.json"
    exit_code = main(
        ["run", "--workload", "smallbank", "--users", "300",
         "--clients", "2", "--client-rate", "100", "--block-size", "32",
         "--duration", "1.5", "--export-ledger", str(ledger_path)]
    )
    assert exit_code == 0
    capsys.readouterr()
    payload = json.loads(ledger_path.read_text())
    assert len(payload["blocks"]) >= 2
    del payload["blocks"][1]["transactions"][0]["rwset"]
    ledger_path.write_text(json.dumps(payload))
    assert main(["verify-ledger", str(ledger_path)]) == 1
    assert "block index 1" in capsys.readouterr().out


def test_verify_ledger_truncated_file(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"schema_version": 1, "blocks": [{')
    assert main(["verify-ledger", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_sweep_drop_rate_axis(tmp_path, capsys):
    exit_code = main(
        ["sweep", "--workload", "smallbank", "--users", "200",
         "--clients", "1", "--client-rate", "60", "--block-size", "32",
         "--duration", "1.0", "--systems", "fabric",
         "--sweep", "drop-rate=0.0,0.05", "--no-cache"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "drop-rate" in output


def test_run_command_with_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    exit_code = main(
        ["run", "--workload", "smallbank", "--users", "200", "--clients", "1",
         "--client-rate", "80", "--duration", "1", "--drain", "1",
         "--block-size", "32", "--trace", str(path)]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "wrote Chrome trace" in output
    assert "cost attribution" in output
    assert "crypto + network share" in output
    from repro.trace import validate_chrome_trace_file

    counts = validate_chrome_trace_file(path)
    assert counts["X"] > 0 and counts["b"] == counts["e"]


def test_profile_command_end_to_end(tmp_path, capsys):
    path = tmp_path / "profile.json"
    exit_code = main(
        ["profile", "--workload", "smallbank", "--users", "200",
         "--clients", "1", "--client-rate", "80", "--duration", "1",
         "--drain", "1", "--block-size", "32", "--trace", str(path)]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Fabric cost attribution" in output
    assert "Fabric++ cost attribution" in output
    assert "profile summary" in output
    assert "crypto_network_share" in output
    from repro.trace import validate_chrome_trace_file

    for suffix in ("fabric", "fabricpp"):
        assert validate_chrome_trace_file(f"{path}.{suffix}")["X"] > 0


def test_profile_command_without_trace_writes_no_files(tmp_path, capsys):
    exit_code = main(
        ["profile", "--workload", "blank", "--clients", "1",
         "--client-rate", "50", "--duration", "1", "--drain", "1",
         "--block-size", "32"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "profile summary" in output
    assert "wrote" not in output


# -- faults files, replicated ordering, chaos -------------------------------


def _schedule_file(tmp_path, schedule):
    import json
    from dataclasses import asdict

    path = tmp_path / "faults.json"
    path.write_text(json.dumps(asdict(schedule)))
    return str(path)


def test_faults_file_round_trips(tmp_path):
    from repro.faults import CrashWindow, FaultSchedule, StallWindow

    schedule = FaultSchedule(
        crashes=(CrashWindow("peer1.OrgA", 0.5, 0.7),),
        stalls=(StallWindow(1.0, 0.2),),
        drop_probability=0.02,
        endorsement_timeout=0.1,
    )
    config = config_from_args(
        parse(["run", "--faults-file", _schedule_file(tmp_path, schedule)])
    )
    assert config.faults == schedule


def test_partial_faults_file_gets_default_deadline(tmp_path):
    import json

    path = tmp_path / "partial.json"
    path.write_text(
        json.dumps(
            {"crashes": [{"peer": "peer1.OrgA", "at": 0.5, "duration": 0.7}]}
        )
    )
    config = config_from_args(parse(["run", "--faults-file", str(path)]))
    # Same defaulting as the inline --crash flag: a deadline is filled in
    # so clients facing a dead endorser cannot hang.
    assert config.faults.endorsement_timeout > 0
    config.validate()


def test_faults_file_conflicts_with_inline_flags(capsys):
    exit_code = main(
        ["run", "--faults-file", "x.json", "--crash", "peer1.OrgA@0.5+0.7",
         "--duration", "1"]
    )
    assert exit_code == 2
    assert "--faults-file cannot be combined" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", ["{not json", '["list"]', '{"crashes": [{"bogus": 1}]}']
)
def test_bad_faults_file_is_a_clean_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    exit_code = main(["run", "--faults-file", str(path), "--duration", "1"])
    assert exit_code == 2
    assert str(path) in capsys.readouterr().err


def test_missing_faults_file_is_a_clean_error(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    exit_code = main(["run", "--faults-file", path, "--duration", "1"])
    assert exit_code == 2
    assert path in capsys.readouterr().err


def test_unknown_faults_file_key_is_named_in_the_error(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text('{"drop_probabilty": 0.1}')
    exit_code = main(["run", "--faults-file", str(path), "--duration", "1"])
    err = capsys.readouterr().err
    assert exit_code == 2
    assert "drop_probabilty" in err
    assert str(path) in err


def test_faults_file_unknown_peer_fails_fast_with_name_and_path(tmp_path):
    """A typo'd peer in a --faults-file must surface at parse time,
    naming both the offending peer and the file it came from."""
    from repro.faults import CrashWindow, FaultSchedule

    schedule = FaultSchedule(
        crashes=(CrashWindow("peer9.OrgZ", 0.5, 0.7),),
        endorsement_timeout=0.1,
    )
    path = _schedule_file(tmp_path, schedule)
    with pytest.raises(ConfigError) as excinfo:
        config_from_args(parse(["run", "--faults-file", path]))
    message = str(excinfo.value)
    assert "peer9.OrgZ" in message
    assert path in message
    assert "known peers" in message


def test_faults_file_unknown_peer_exits_cleanly(tmp_path, capsys):
    from repro.faults import CrashWindow, FaultSchedule

    schedule = FaultSchedule(
        crashes=(CrashWindow("peer0.OrgA.ch9", 0.5, 0.7),),
        endorsement_timeout=0.1,
    )
    path = _schedule_file(tmp_path, schedule)
    exit_code = main(
        ["run", "--faults-file", path, "--channels", "2", "--duration", "1"]
    )
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "peer0.OrgA.ch9" in err
    assert path in err


def test_faults_file_qualified_peer_accepted_in_sharded_config(tmp_path):
    from repro.faults import CrashWindow, FaultSchedule

    schedule = FaultSchedule(
        crashes=(CrashWindow("peer0.OrgA.ch1", 0.5, 0.7),),
        endorsement_timeout=0.1,
    )
    path = _schedule_file(tmp_path, schedule)
    config = config_from_args(
        parse(["run", "--faults-file", path, "--channels", "2"])
    )
    assert config.faults == schedule


def test_faults_file_round_trips_misbehaviors(tmp_path):
    from repro.faults import FaultSchedule, MisbehaviorSpec

    schedule = FaultSchedule(
        misbehaviors=(
            MisbehaviorSpec(kind="resubmit_storm", fraction=0.5, storm_cap=16),
        )
    )
    config = config_from_args(
        parse(["run", "--faults-file", _schedule_file(tmp_path, schedule)])
    )
    assert config.faults == schedule


def test_orderer_nodes_flag_forwarded():
    config = config_from_args(parse(["run", "--orderer-nodes", "3"]))
    assert config.orderer_nodes == 3
    assert config_from_args(parse(["run"])).orderer_nodes == 1


def test_orderer_nodes_is_sweepable():
    from repro.cli import SWEEPABLE

    assert "orderer-nodes" in SWEEPABLE


def test_run_command_with_replicated_orderer(capsys):
    exit_code = main(
        ["run", "--workload", "smallbank", "--users", "200", "--clients", "2",
         "--client-rate", "80", "--duration", "1", "--drain", "3",
         "--block-size", "32", "--orderer-nodes", "3"]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "consensus" in output


def test_chaos_command_end_to_end(tmp_path, capsys):
    import json

    report = tmp_path / "chaos.json"
    exit_code = main(
        ["chaos", "--seeds", "2", "--duration", "1.2", "--drain", "4",
         "--report", str(report)]
    )
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "PASS" in output
    assert "2/2 seeds passed" in output
    payload = json.loads(report.read_text())
    assert payload["passed"] == 2 and payload["failed"] == 0
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        assert all(run["invariants"].values())
        assert run["liveness"] and run["converged"]
