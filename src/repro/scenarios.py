"""Named overload scenarios: traffic shape x faults x misbehaving clients.

Each :class:`Scenario` is a fully described stress situation — an
open-loop arrival process, a backpressure configuration, a fault
schedule (possibly including misbehaving-client populations) and a
workload — under a short, fast-to-simulate network. Scenarios are
seeded: ``scenario.spec(seed)`` derives every random stream (workload,
clients, traffic, misbehavior populations) from one integer through
independent salted streams, so the same ``(name, seed, system)`` triple
always reproduces the same run bit-for-bit.

``run_scenario`` executes one scenario and then holds it to the same
standard as the chaos harness: the five consensus safety invariants
(:data:`repro.chaos.INVARIANT_NAMES`) plus liveness — every fired
proposal resolved (committed, aborted, or explicitly shed as
``overload_rejected``; never silently dropped) and nothing left queued
inside the ordering service. Overload may degrade throughput; it must
never corrupt the chain or lose a resolution.

The CLI front end is ``python -m repro scenario <name>`` (see
:mod:`repro.cli`); ``docs/scenarios.md`` catalogues the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.bench.harness import run_experiment_with_network
from repro.bench.spec import ExperimentSpec
from repro.chaos import InvariantReport
from repro.core.batch_cutter import BatchCutConfig
from repro.errors import ConfigError
from repro.fabric.config import (
    BackpressureConfig,
    FabricConfig,
    PopulationConfig,
)
from repro.fabric.metrics import OverloadStats, SagaStats, TxOutcome
from repro.faults import FaultSchedule, MisbehaviorSpec, RetryPolicy
from repro.sim.distributions import mix_seed
from repro.traffic import ArrivalProcess
from repro.workloads.registry import WorkloadRef

#: Salt separating scenario randomness from every other seeded stream.
SCENARIO_SEED_SALT = 0x5CE0


@dataclass(frozen=True)
class Scenario:
    """One named, seeded stress situation.

    ``config`` and ``workload`` carry placeholder seeds; :meth:`spec`
    re-derives both from the caller's seed through independent salted
    streams.
    """

    name: str
    description: str
    config: FabricConfig
    workload: WorkloadRef
    duration: float = 1.0
    drain: float = 3.0

    def spec(self, seed: int = 0, system: str = "fabric") -> ExperimentSpec:
        """The experiment spec one ``(seed, system)`` instance runs."""
        if system not in ("fabric", "fabric++"):
            raise ConfigError(
                f"unknown system {system!r}: expected 'fabric' or 'fabric++'"
            )
        config = replace(
            self.config, seed=mix_seed(seed, SCENARIO_SEED_SALT, 1)
        )
        config = (
            config.with_fabric_plus_plus()
            if system == "fabric++"
            else config.with_vanilla()
        )
        workload = WorkloadRef(
            self.workload.name,
            dict(self.workload.params),
            seed=mix_seed(seed, SCENARIO_SEED_SALT, 2),
        )
        return ExperimentSpec(
            config=config,
            workload=workload,
            duration=self.duration,
            drain=self.drain,
            label=f"scenario:{self.name}",
            params={"scenario": self.name, "seed": seed, "system": system},
        )


# -- the suite ------------------------------------------------------------------
#
# Small blocks, two clients and modest rates keep every scenario fast
# enough to sweep across many seeds in tests and CI while still driving
# the behavior the scenario is named for (queues filling, shed paths
# firing, storms bursting). The overload scenarios deliberately offer
# more load than the endorsement stage can absorb, so admission control
# actually rejects work.

_BATCH = BatchCutConfig(max_transactions=64)


def _smallbank(users: int = 1000, s_value: float = 0.0) -> WorkloadRef:
    return WorkloadRef(
        "smallbank", {"num_users": users, "prob_write": 0.95, "s_value": s_value}
    )


def _config(**overrides) -> FabricConfig:
    overrides.setdefault("client_rate", 120.0)
    return replace(
        FabricConfig(), batch=_BATCH, clients_per_channel=2, **overrides
    )


_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="calm-baseline",
        description="closed-loop control: steady paced clients, no faults",
        config=_config(),
        workload=_smallbank(),
    ),
    Scenario(
        name="poisson-steady",
        description="open-loop Poisson arrivals at a sustainable rate",
        config=_config(
            client_rate=150.0, traffic=ArrivalProcess(kind="poisson")
        ),
        workload=_smallbank(),
    ),
    Scenario(
        name="diurnal-wave",
        description="sinusoidal load wave (thinned Poisson), peak ~2x trough",
        config=_config(
            traffic=ArrivalProcess(kind="diurnal", period=1.0, amplitude=0.8)
        ),
        workload=_smallbank(),
        duration=2.0,
    ),
    Scenario(
        name="flash-crowd",
        description="6x arrival spike mid-run against bounded queues",
        config=_config(
            client_rate=100.0,
            traffic=ArrivalProcess(
                kind="flash", flash_at=0.4, flash_duration=0.4, flash_factor=6.0
            ),
            backpressure=BackpressureConfig(
                orderer_queue_limit=256,
                endorse_queue_limit=96,
                delivery_backlog_limit=8,
            ),
        ),
        workload=_smallbank(),
    ),
    Scenario(
        name="heavy-tail-thinkers",
        description="Pareto interarrivals: long idle gaps, dense bursts",
        config=_config(
            traffic=ArrivalProcess(kind="heavy_tail", pareto_shape=1.5)
        ),
        workload=_smallbank(),
    ),
    Scenario(
        name="overload-shed",
        description="sustained 5x overload; admission control must shed",
        config=_config(
            client_rate=700.0,
            traffic=ArrivalProcess(kind="poisson"),
            backpressure=BackpressureConfig(
                orderer_queue_limit=128,
                endorse_queue_limit=48,
                delivery_backlog_limit=4,
                retry=RetryPolicy(max_retries=2, base=0.01, factor=2.0, jitter=0.5),
            ),
        ),
        workload=_smallbank(),
    ),
    Scenario(
        name="resubmit-storm",
        description="half the clients resubmit every failure 3x, capped",
        config=_config(
            client_rate=150.0,
            traffic=ArrivalProcess(kind="poisson"),
            backpressure=BackpressureConfig(
                orderer_queue_limit=256, endorse_queue_limit=96
            ),
            faults=FaultSchedule(
                misbehaviors=(
                    MisbehaviorSpec(
                        kind="resubmit_storm",
                        fraction=0.5,
                        storm_factor=3,
                        storm_cap=60,
                    ),
                )
            ),
        ),
        workload=_smallbank(users=300, s_value=1.0),
    ),
    Scenario(
        name="channel-shards",
        description="4 sharded channels, Zipf client affinity, 10% sagas",
        config=_config(
            channels=4,
            client_rate=100.0,
            cross_channel_fraction=0.1,
            population=PopulationConfig(accounts=1_000_000, zipf_s=1.0),
        ),
        workload=_smallbank(users=500, s_value=1.0),
    ),
    Scenario(
        name="stale-replay",
        description="half the clients replay stale reads after a hold",
        config=_config(
            faults=FaultSchedule(
                misbehaviors=(
                    MisbehaviorSpec(
                        kind="stale_replay", fraction=0.5, rate=0.5, hold_time=0.2
                    ),
                )
            ),
        ),
        workload=_smallbank(users=300, s_value=1.0),
    ),
    Scenario(
        name="oversized-flood",
        description="half the clients pad rw-sets past the endorsed form",
        config=_config(
            backpressure=BackpressureConfig(
                orderer_queue_limit=256, endorse_queue_limit=96
            ),
            faults=FaultSchedule(
                misbehaviors=(
                    MisbehaviorSpec(
                        kind="oversized_rwset", fraction=0.5, rate=0.5, padding=48
                    ),
                )
            ),
        ),
        workload=_smallbank(users=300, s_value=1.0),
    ),
)

_REGISTRY: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in _SCENARIOS
}


def scenario_names() -> List[str]:
    """Every registered scenario name, in catalogue order."""
    return [scenario.name for scenario in _SCENARIOS]


def get_scenario(name: str) -> Scenario:
    """The scenario registered under ``name``.

    Raises :class:`ConfigError` listing the known names otherwise.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ConfigError(
            f"unknown scenario {name!r}: expected one of {known}"
        ) from None


def scenario_specs(
    name: str, seeds, system: str = "fabric"
) -> List[ExperimentSpec]:
    """One spec per seed — sweep-engine food (``run_sweep(specs)``)."""
    scenario = get_scenario(name)
    return [scenario.spec(seed, system=system) for seed in seeds]


# -- invariant-checked execution ------------------------------------------------


@dataclass(kw_only=True)
class ScenarioReport(InvariantReport):
    """A scenario run's report: its name, system and overload counters."""

    scenario: str
    system: str
    shed: int = 0
    client_retries: int = 0
    endorse_rejections: int = 0
    orderer_rejections: int = 0
    queue_depth_peak: int = 0
    #: Cross-channel saga counters (sharded scenarios only; 0 otherwise).
    saga_started: int = 0
    saga_half_committed: int = 0

    @classmethod
    def _counters(cls, network) -> Dict[str, object]:
        metrics = network.metrics
        overload = metrics.overload or OverloadStats()
        sagas = network.saga.stats if network.saga is not None else SagaStats()
        return {
            "shed": metrics.outcomes.get(TxOutcome.OVERLOAD_REJECTED, 0),
            "client_retries": overload.client_retries,
            "endorse_rejections": overload.endorse_rejections,
            "orderer_rejections": overload.orderer_rejections,
            "queue_depth_peak": overload.queue_depth_peak,
            "saga_started": sagas.started,
            "saga_half_committed": sagas.half_committed,
        }


def run_scenario(
    name: str,
    seed: int = 0,
    system: str = "fabric",
    max_convergence_rounds: int = 40,
) -> ScenarioReport:
    """Execute one scenario run and check every invariant.

    Deterministic: the same arguments always yield the same report.
    """
    spec = get_scenario(name).spec(seed, system=system)
    _result, network = run_experiment_with_network(spec)
    return ScenarioReport.from_network(
        network, seed, max_convergence_rounds, scenario=name, system=system
    )
