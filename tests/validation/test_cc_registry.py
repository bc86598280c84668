"""The CC-strategy registry and its plumbing: registration API, config
threading (``cc_strategy``, and the retired ``validation_scheduler`` in
stored configs), CLI flag, sweep axis, cache fingerprint, and
ValidationStats serialisation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.cache import spec_fingerprint
from repro.bench.results import config_from_dict, config_to_dict
from repro.dataform import load_dataclass
from repro.bench.spec import ExperimentSpec
from repro.cli import SWEEPABLE, build_parser, config_from_args
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import TxOutcome, ValidationStats
from repro.fabric.network import FabricNetwork
from repro.trace import Tracer
from repro.validation import policies, registry
from repro.validation.registry import (
    StrategyInfo,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.workloads.registry import WorkloadRef


def parse(argv):
    return build_parser().parse_args(argv)


# -- registry API ----------------------------------------------------------


def test_builtin_strategies_are_registered():
    assert set(strategy_names()) >= {
        "depaware", "dependency", "lockless", "serial"
    }
    assert strategy_names() == tuple(sorted(strategy_names()))


def test_get_strategy_returns_info_with_description():
    info = get_strategy("lockless")
    assert isinstance(info, StrategyInfo)
    assert info.name == "lockless"
    assert info.description
    assert info.divergence  # lockless documents its abort-set divergence


def test_equivalent_strategies_declare_no_divergence():
    # Only OCC decides differently from Fabric's rule, and it says so.
    for name in strategy_names():
        info = get_strategy(name)
        diverges = info.decision is not policies.mvcc_live_state
        assert bool(info.divergence) == diverges, name


def test_get_strategy_rejects_unknown_name():
    with pytest.raises(ConfigError, match="optimistic"):
        get_strategy("optimistic")


def test_register_strategy_rejects_duplicates():
    with pytest.raises(ConfigError, match="serial"):
        register_strategy(
            "serial",
            schedule=policies.arrival_order,
            decision=policies.mvcc_live_state,
            cost=policies.AssumedPool,
            description="imposter",
        )


def test_a_new_strategy_is_only_policies(monkeypatch):
    """The seam: a strategy written here, in a few lines, gets fetch,
    locking, commit, spans and stats from the skeleton."""
    monkeypatch.setattr(registry, "_STRATEGIES", dict(registry._STRATEGIES))

    def odd_positions_abort(peer, channel, block, pending_writes):
        fabric_rule = policies.mvcc_live_state(
            peer, channel, block, pending_writes
        )
        return lambda index, tx: (
            TxOutcome.ABORT_MVCC if index % 2 else fabric_rule(index, tx)
        )

    register_strategy(
        "odd-aborts",
        schedule=policies.arrival_order,
        decision=odd_positions_abort,
        cost=policies.AssumedPool,
        divergence="aborts every odd block position",
    )
    config = FabricConfig(
        batch=BatchCutConfig(max_transactions=32),
        clients_per_channel=2,
        client_rate=120.0,
        seed=7,
        cc_strategy="odd-aborts",
    ).with_vanilla()
    config.validate()
    workload = WorkloadRef(
        "smallbank", {"num_users": 300, "prob_write": 0.95, "s_value": 1.0}, seed=7
    ).build()
    tracer = Tracer()
    network = FabricNetwork(config, workload, tracer=tracer)
    metrics = network.run(duration=0.5, drain=2.0)

    ledger = network.reference_peer.channels["ch0"].ledger
    assert ledger.height >= 3
    assert metrics.successful > 0
    for peer in network.peers:
        assert peer.channels["ch0"].ledger.height == ledger.height
    for block in ledger:
        for index, tx in enumerate(block.transactions):
            if index % 2:
                assert block.validity[tx.tx_id] is False
                assert tx.failure_reason == "abort_mvcc"
    tx_count = sum(len(block) for block in ledger)

    prefix = f"{network.reference_peer.name}/"
    spans = [s for s in tracer.spans() if s.track.startswith(prefix)]
    block_spans = [s for s in spans if s.name == "block.validate"]
    assert len(block_spans) == ledger.height
    assert {s.args["strategy"] for s in block_spans} == {"odd-aborts"}
    assert sum(s.args["committed"] for s in block_spans) == metrics.successful
    assert sum(s.name == "tx.validate" for s in spans) == tx_count

    stats = metrics.validation
    assert stats.strategy == "odd-aborts"
    assert stats.blocks == ledger.height
    assert stats.txs == tx_count
    assert stats.critical_path_total == tx_count  # arrival order


# -- config threading ------------------------------------------------------


def stored_config(**overrides):
    """A config dict as an earlier build's results JSON / cache wrote it."""
    data = config_to_dict(FabricConfig())
    data.update(overrides)
    return data


def test_default_config_resolves_to_serial():
    config = FabricConfig()
    config.validate()
    assert config.cc_strategy == "serial"
    assert not hasattr(config, "validation_scheduler")
    assert not hasattr(config, "resolved_cc_strategy")


def test_cc_strategy_overrides_resolution():
    config = replace(FabricConfig(), cc_strategy="lockless")
    config.validate()
    assert config.cc_strategy == "lockless"
    assert config_from_dict(config_to_dict(config)) == config


def test_serial_cc_strategy_defers_to_legacy_scheduler_knob():
    # Builds before the knob was retired stored it next to cc_strategy;
    # such results files and cache entries must still load.
    config = config_from_dict(stored_config(validation_scheduler="dependency"))
    config.validate()
    assert config.cc_strategy == "dependency"
    default = config_from_dict(stored_config(validation_scheduler="serial"))
    assert default == FabricConfig()


def test_config_rejects_unknown_cc_strategy():
    config = replace(FabricConfig(), cc_strategy="optimistic")
    with pytest.raises(ConfigError, match="cc_strategy"):
        config.validate()


def test_config_rejects_conflicting_cc_knobs():
    data = stored_config(
        cc_strategy="lockless", validation_scheduler="dependency"
    )
    with pytest.raises(ConfigError, match="lockless") as excinfo:
        config_from_dict(data)
    assert "dependency" in str(excinfo.value)


def test_matching_cc_knobs_are_not_a_conflict():
    data = stored_config(
        cc_strategy="dependency", validation_scheduler="dependency"
    )
    assert config_from_dict(data).cc_strategy == "dependency"


# -- CLI -------------------------------------------------------------------


def test_cli_forwards_cc_strategy():
    config = config_from_args(parse(["run", "--cc-strategy", "lockless"]))
    assert config.cc_strategy == "lockless"


def test_cli_default_cc_strategy_keeps_legacy_validator():
    config = config_from_args(parse(["run"]))
    assert config.cc_strategy == "serial"
    assert not config.uses_validation_pipeline


def test_cli_rejects_unknown_cc_strategy():
    with pytest.raises(SystemExit):
        parse(["run", "--cc-strategy", "optimistic"])


def test_cc_strategy_is_sweepable():
    assert "cc-strategy" in SWEEPABLE
    field, caster = SWEEPABLE["cc-strategy"]
    assert field == "cc_strategy"
    assert caster("lockless") == "lockless"


# -- cache fingerprint -----------------------------------------------------


def small_spec(config):
    return ExperimentSpec(
        config=config, workload=WorkloadRef("blank"), duration=1.0
    )


def test_fingerprint_distinguishes_cc_strategies():
    base = replace(
        FabricConfig(),
        clients_per_channel=1,
        client_rate=100.0,
        batch=BatchCutConfig(max_transactions=32),
    )
    variants = [replace(base, cc_strategy=name) for name in strategy_names()]
    fingerprints = [spec_fingerprint(small_spec(c)) for c in variants]
    assert len(set(fingerprints)) == len(fingerprints)


# -- ValidationStats serialisation -----------------------------------------


def test_validation_stats_strategy_round_trip():
    stats = ValidationStats(
        workers=2, scheduler="lockless", pipeline_depth=1, strategy="lockless"
    )
    data = stats.to_dict()
    assert data["strategy"] == "lockless"
    assert load_dataclass(ValidationStats, data) == stats


def test_validation_stats_strategy_defaults_to_scheduler_on_old_snapshots():
    stats = ValidationStats(workers=4, scheduler="dependency", pipeline_depth=2)
    data = stats.to_dict()
    del data["strategy"]  # snapshot written before the field existed
    restored = load_dataclass(ValidationStats, data)
    assert restored.strategy == ""  # the field default; summary falls back
    assert restored.summary(duration=1.0)["strategy"] == "dependency"
