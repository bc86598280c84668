"""Cross-channel transactions as sagas — honestly non-atomic.

Fabric offers no atomic commit across channels: a business intent that
must touch two chains is, in practice, two independent transactions plus
application-level compensation (the saga pattern). This module models
exactly that and nothing more:

- with probability ``cross_channel_fraction`` a client's next intent
  becomes a saga: its *home leg* runs on the client's own channel and a
  *remote leg* runs on a partner channel picked from a seeded stream;
- both legs travel the full pipeline of their channel independently —
  endorsement, ordering, validation — and each terminates in its
  channel's own outcome counters (the per-channel sub-transaction
  outcomes stay honest);
- there is **no coordinator, no lock, no rollback**. When the legs
  split one-commit/one-abort the committed leg stays committed and the
  saga terminates as :attr:`~repro.fabric.metrics.TxOutcome.
  SAGA_HALF_COMMITTED` at the fleet level — the half-done state a real
  cross-channel deployment must reconcile out-of-band.

Within any single channel each leg is an ordinary transaction, so the
chaos invariants (exactly-once commit per channel, no committed loss)
hold unchanged; a saga can never double-commit a leg.

All saga randomness — the per-client decision draw, the partner-channel
pick and the remote-leg invocation draws — comes from dedicated streams
salted with :data:`~repro.fabric.config.SAGA_SEED_SALT`, so enabling
sagas never perturbs the workload streams of any client.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fabric.config import SAGA_SEED_SALT
from repro.fabric.metrics import SagaStats, TxOutcome
from repro.sim.distributions import Rng, mix_seed


class _Saga:
    """One in-flight saga: the terminal outcomes of its two legs."""

    __slots__ = ("outcomes",)

    def __init__(self) -> None:
        self.outcomes: List[TxOutcome] = []


class _ClientStreams:
    """The two seeded streams one home client draws sagas from."""

    __slots__ = ("decision", "legs", "channel")

    def __init__(self, decision: Rng, legs: Rng, channel: int) -> None:
        self.decision = decision
        self.legs = legs
        self.channel = channel


class SagaRouter:
    """Turns a fraction of fired intents into two-channel sagas.

    Wired by :class:`~repro.channels.network.ShardedNetwork`: every
    client of a saga-enabled fleet gets ``client.saga_router = router``;
    the client consults :meth:`take` once per fresh intent and reports
    every terminal outcome through :meth:`on_outcome`.
    """

    def __init__(self, fraction: float, seed: int, runtimes) -> None:
        self.fraction = fraction
        self.runtimes = list(runtimes)
        self.stats = SagaStats()
        #: Fleet-level terminal facts: one timestamped
        #: ``TxOutcome.SAGA_HALF_COMMITTED`` per half-committed saga, in
        #: the runtimes' kind of sample store — merged into the fleet
        #: total after the per-channel metrics.
        self.metrics = self.runtimes[0].metrics.empty_like()
        #: This router's seeded streams, in construction order (the
        #: fleet's checkpoint RNG digest covers them).
        self.rng_streams = self.metrics.seeded_streams()
        self._legs: Dict[str, _Saga] = {}
        self._streams: Dict[str, _ClientStreams] = {}
        for channel_index, runtime in enumerate(self.runtimes):
            for client_index, client in enumerate(runtime.clients):
                streams = _ClientStreams(
                    decision=Rng(
                        mix_seed(
                            seed, SAGA_SEED_SALT, channel_index, client_index, 0
                        )
                    ),
                    legs=Rng(
                        mix_seed(
                            seed, SAGA_SEED_SALT, channel_index, client_index, 1
                        )
                    ),
                    channel=channel_index,
                )
                self._streams[client.identity.name] = streams
                self.rng_streams += [streams.decision, streams.legs]
                client.saga_router = self

    # -- client hooks --------------------------------------------------------

    def take(self, client, invocation) -> bool:
        """Decide whether ``client``'s next intent becomes a saga.

        Returns False (and draws exactly one decision) for local
        intents. For sagas, fires the home leg through ``client`` —
        reusing the invocation the client already drew, so its workload
        stream is identical either way — and the remote leg through the
        partner channel's gateway client (client 0), with the remote
        invocation drawn from this router's own stream.
        """
        streams = self._streams[client.identity.name]
        if streams.decision.random() >= self.fraction:
            return False
        home = streams.channel
        partner = streams.legs.randint(0, len(self.runtimes) - 2)
        if partner >= home:
            partner += 1
        remote_runtime = self.runtimes[partner]
        gateway = remote_runtime.clients[0]
        remote_workload = remote_runtime.workloads[remote_runtime.channels[0]]

        saga = _Saga()
        self.stats.started += 1
        home_tx = client.fire_invocation(invocation)
        self._legs[home_tx] = saga
        remote_invocation = remote_workload.next_invocation(streams.legs)
        remote_tx = gateway.fire_invocation(remote_invocation)
        self._legs[remote_tx] = saga
        return True

    def on_outcome(self, tx_id: Optional[str], outcome: TxOutcome, now: float) -> None:
        """Record one leg's terminal outcome; classify finished sagas."""
        saga = self._legs.pop(tx_id, None) if tx_id is not None else None
        if saga is None:
            return
        saga.outcomes.append(outcome)
        if len(saga.outcomes) < 2:
            return
        committed = sum(1 for leg in saga.outcomes if leg.is_success)
        if committed == 2:
            self.stats.committed += 1
        elif committed == 1:
            self.stats.half_committed += 1
            self.metrics.record_outcome(TxOutcome.SAGA_HALF_COMMITTED, now=now)
        else:
            self.stats.aborted += 1

    @property
    def unresolved_legs(self) -> int:
        """Legs still awaiting a terminal outcome (0 after a full drain)."""
        return len(self._legs)
