"""The concurrency-control strategy registry — the CC zoo.

The peer's validation/commit stage is the seam where database-style
concurrency control pays off, and several papers propose competing
schemes. A *strategy* is a named choice of the three policies in
:mod:`repro.validation.policies` plus one flag; the block loop itself
is :class:`repro.validation.validator.BlockValidator`, the same for all:

==============  =================  ===================  ==========  ==========
strategy        schedule           decision             cost        write lock
==============  =================  ===================  ==========  ==========
``serial``      arrival order      MVCC, live state     configured  vanilla
``dependency``  topological waves  MVCC, live state     lanes       vanilla
``lockless``    arrival order      OCC, block snapshot  assumed     never
``depaware``    dataflow           MVCC, live state     lanes       vanilla
==============  =================  ===================  ==========  ==========

``serial``, ``dependency`` and ``depaware`` are outcome-equivalent: the
committed ledger and every per-transaction outcome match the serial
baseline bit for bit. ``lockless`` intentionally diverges on
write-write races; :data:`StrategyInfo.divergence` documents the bound
and the oracle test (``tests/validation/test_cc_oracle.py``) pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, Tuple

from repro.errors import ConfigError
from repro.validation import policies

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.peer import Peer


@dataclass(frozen=True)
class StrategyInfo:
    """A registered concurrency-control strategy: three policies, one flag."""

    name: str
    #: When each transaction is checked (``policies.arrival_order`` ...).
    schedule: Callable[..., Generator]
    #: Against what it is checked (``policies.mvcc_live_state`` ...).
    decision: Callable[..., policies.Decide]
    #: Who provides the verification parallelism (``policies.AssumedPool``,
    #: ``policies.WorkerLanes`` or a function of the peer choosing one).
    cost: Callable[["Peer"], object]
    #: Whether vanilla Fabric's exclusive write lock is held over the
    #: commit section (Fabric++ never takes it).
    write_lock: bool = True
    #: One-line description for ``--help`` and docs.
    description: str = ""
    #: Empty string == outcome-equivalent to the serial baseline
    #: (identical committed ledger and per-tx outcomes). Otherwise a
    #: short statement of the intentional, pinned divergence.
    divergence: str = ""


_STRATEGIES: Dict[str, StrategyInfo] = {}


def register_strategy(name: str, **policy) -> None:
    """Register the CC strategy ``name``; the keywords are the fields of
    :class:`StrategyInfo` (``schedule``, ``decision`` and ``cost`` are
    required)."""
    if name in _STRATEGIES:
        raise ConfigError(f"cc strategy {name!r} is already registered")
    _STRATEGIES[name] = StrategyInfo(name=name, **policy)


def strategy_names() -> Tuple[str, ...]:
    """The registered strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))


def get_strategy(name: str) -> StrategyInfo:
    """Look up a registered strategy, raising :class:`ConfigError`."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        known = ", ".join(strategy_names())
        raise ConfigError(
            f"unknown cc strategy {name!r}; known: {known}"
        ) from None


register_strategy(
    "serial",
    schedule=policies.arrival_order,
    decision=policies.mvcc_live_state,
    cost=policies.configured_cost,
    description=(
        "Fabric's in-order validation; on modelled verify lanes with a "
        "verify-ahead stage when validation_workers/pipeline_depth are set"
    ),
)
register_strategy(
    "dependency",
    schedule=policies.topological_waves,
    decision=policies.mvcc_live_state,
    cost=policies.WorkerLanes,
    description=(
        "topological MVCC waves over the intra-block conflict graph on "
        "modelled verify lanes (outcome-identical to serial)"
    ),
)
# After Meir et al., *Lockless Transaction Isolation in Hyperledger
# Fabric*: no exclusive write lock is ever taken — not even on vanilla
# Fabric, so endorsements no longer queue behind block validation, which
# is where it beats serial's committed TPS under low contention. It keeps
# serial's assumed cost, so that throughput differences come from
# concurrency control and not from a different cost model.
register_strategy(
    "lockless",
    schedule=policies.arrival_order,
    decision=policies.occ_block_snapshot,
    cost=policies.AssumedPool,
    write_lock=False,
    description=(
        "OCC validation against the block-start snapshot, no exclusive "
        "write lock, first-committer-wins write-write aborts "
        "(Meir et al., arXiv:1911.12711)"
    ),
    divergence=(
        "blocks containing intra-block write-write races resolve them "
        "first-committer-wins (abort_occ_ww) instead of "
        "last-writer-wins; all other blocks are outcome-identical"
    ),
)
register_strategy(
    "depaware",
    schedule=policies.dataflow,
    decision=policies.mvcc_live_state,
    cost=policies.WorkerLanes,
    description=(
        "conflict-graph dataflow execution: transactions validate as "
        "soon as their dependencies resolve and commit out of arrival "
        "order, serializably (Kaul et al., arXiv:2509.07425)"
    ),
)
