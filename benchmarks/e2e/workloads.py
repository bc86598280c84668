"""The five fixed workloads of the whole-stack benchmark.

Every workload runs the paper's Table 5 system configuration (1024-tx
blocks, 2 orgs x 2 peers, 4 closed-loop paced clients x 512 tx/s with
``client_window=512`` — simulated load, not host load) and differs only
in the feature flags and the chaincode workload, so each one routes the
host's time through a different set of ``repro`` layers. Why each one is
in the set is recorded once, in ``/BENCHMARK.json`` (README.md has the
longer form).

``repro`` is imported inside :func:`build` only: the orchestrating
process lists names and durations without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Simulated seconds the network keeps running after clients stop, so
#: every fired transaction resolves (``fired == resolved`` is checked).
DRAIN = 3.0

_CUSTOM_HOT = dict(
    num_accounts=10_000,
    reads_writes=8,
    prob_hot_read=0.40,
    prob_hot_write=0.10,
    # 2% rather than the headline 1% cell of Figure 9: at 1% Fabric++
    # is bistable in this simulator (committed throughput differs by
    # ~70% between seeds), so no cross-seed spread could meet a bound.
    hot_set_fraction=0.02,
)


@dataclass(frozen=True)
class E2EWorkload:
    """One benchmark workload: what to build and for how long to run it."""

    name: str
    #: Simulated seconds clients fire for (sized so one run is 3-5 host
    #: seconds and commits >= 1000 transactions).
    duration: float
    #: ``fabric`` (vanilla) or ``fabric++``.
    system: str
    #: Registered ``repro.workloads`` name and its parameters.
    workload: str
    params: Dict[str, object]
    #: Extra ``FabricConfig`` fields on top of the Table 5 defaults.
    config: Dict[str, object]

    @property
    def is_vanilla(self) -> bool:
        """Vanilla runs must never enter ``repro.core`` / ``graphalgo``."""
        return self.system == "fabric"


WORKLOADS: Tuple[E2EWorkload, ...] = (
    E2EWorkload(
        name="blank-fabric",
        duration=20.0,
        system="fabric",
        workload="blank",
        params={},
        config={},
    ),
    E2EWorkload(
        name="smallbank-fabricpp",
        duration=8.0,
        system="fabric++",
        workload="smallbank",
        params=dict(num_users=100_000, prob_write=0.95, s_value=0.0),
        config={},
    ),
    E2EWorkload(
        name="custom-hot-fabricpp",
        duration=5.0,
        system="fabric++",
        workload="custom",
        params=_CUSTOM_HOT,
        config={},
    ),
    E2EWorkload(
        name="custom-hot-fabric",
        duration=18.0,
        system="fabric",
        workload="custom",
        params=_CUSTOM_HOT,
        config={},
    ),
    E2EWorkload(
        name="ycsb-sharded4-lockless",
        duration=3.0,
        system="fabric++",
        workload="ycsb",
        params=dict(preset="a", num_records=10_000, s_value=0.99),
        config=dict(channels=4, cc_strategy="lockless", streaming_metrics=True),
    ),
)

BY_NAME: Dict[str, E2EWorkload] = {w.name: w for w in WORKLOADS}


def build(name: str, seed: int):
    """The ``(FabricConfig, WorkloadRef)`` pair workload ``name`` runs.

    ``seed`` feeds both the network seed and the workload seed; the
    program itself only ever sees the built config and workload.
    """
    from repro.core.batch_cutter import BatchCutConfig
    from repro.fabric.config import FabricConfig
    from repro.workloads.registry import WorkloadRef

    spec = BY_NAME[name]
    config = FabricConfig(
        batch=BatchCutConfig(max_transactions=1024), seed=seed, **spec.config
    )
    if not spec.is_vanilla:
        config = config.with_fabric_plus_plus()
    return config, WorkloadRef(spec.workload, spec.params, seed)
