"""Peers: endorsement (simulation phase), validation, and commit.

Each peer runs a local Fabric instance: per channel it keeps a ledger, a
current-state database, and — in the vanilla configuration — the
readers-writer lock that serialises chaincode simulation against block
validation (paper Section 4.2.1). Fabric++ drops the lock and instead
version-checks every read against the block height observed when the
simulation started (Section 5.2.1), aborting provably stale simulations
immediately.

The peer's CPU is a shared :class:`~repro.sim.resources.Resource`;
endorsement execution, signing, and block validation all consume it, which
is what makes channels and clients compete for resources in the scaling
experiments (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Mapping, Optional, Tuple

from repro.crypto.identity import Identity, IdentityRegistry
from repro.crypto.signing import sign, verify
from repro.errors import ConfigError
from repro.fabric.chaincode import ChaincodeRegistry, ChaincodeStub
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import PipelineMetrics, TxOutcome
from repro.fabric.policy import EndorsementPolicy
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Endorsement, Proposal, Transaction, endorsement_payload
from repro.ledger.block import Block
from repro.ledger.ledger import Ledger
from repro.ledger.state_db import StateDatabase, Version
from repro.sim.engine import Environment, Process
from repro.sim.resources import Resource, RWLock, Store
from repro.trace.tracer import ASYNC, Tracer
from repro.validation import VALIDATE_PRIORITY, VerifyWorkerPool, build_validator

#: CPU scheduling bands within a peer: validation (``VALIDATE_PRIORITY``)
#: preempts endorsement.
_ENDORSE_PRIORITY = 10


@dataclass(slots=True)
class EndorseReply:
    """An endorser's answer to a proposal."""

    endorsement: Optional[Endorsement]
    #: Set when a Fabric++ simulation aborted on a stale read.
    early_aborted: bool = False
    #: The key that triggered the stale-read abort, if any.
    stale_key: Optional[str] = None
    #: Set when the endorser was crashed — a connection-refused answer.
    down: bool = False
    #: Set when the endorser shed the proposal at its admission cap
    #: (backpressure runs; the client retries with backoff or sheds).
    rejected: bool = False


class PeerChannelState:
    """A peer's per-channel stores and queues."""

    def __init__(self, env: Environment, chaincodes: ChaincodeRegistry) -> None:
        self.state = StateDatabase()
        self.ledger = Ledger()
        self.lock = RWLock(env)
        self.incoming_blocks = Store(env)
        self.chaincodes = chaincodes
        #: Reorder buffer for out-of-order gossip arrivals. Lives here
        #: (not in the validator generator) so crash handling can drop it
        #: and recovery catch-up can advance past it.
        self.pending_blocks: Dict[int, Block] = {}
        #: True while the validator is mid-block; catch-up replay must
        #: not splice blocks underneath it.
        self.validating = False


class Peer:
    """One peer node hosting endorsement and validation for its channels."""

    def __init__(
        self,
        env: Environment,
        identity: Identity,
        config: FabricConfig,
        registry: IdentityRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.identity = identity
        self.config = config
        self.registry = registry
        self.tracer = tracer
        self.cpu = Resource(env, config.cores_per_peer)
        self.channels: Dict[str, PeerChannelState] = {}
        #: Straggler knob: all of this peer's simulated CPU durations are
        #: multiplied by this factor (1.0 = nominal hardware). Lets tests
        #: and experiments model a slow peer without touching the global
        #: cost model.
        self.speed_factor = 1.0
        #: Test hook: transforms the simulated rwset before signing, to
        #: model a byzantine endorser (Appendix A.3.1).
        self.byzantine_rwset_hook: Optional[
            Callable[[ReadWriteSet], ReadWriteSet]
        ] = None
        #: True while this peer is crashed: it refuses endorsements,
        #: abandons in-flight work at the next scheduling point, and
        #: discards delivered blocks (recovery replays them).
        self.crashed = False
        #: Set on exactly one peer per network: the peer whose commits
        #: drive metrics and client notifications.
        self.is_reference = False
        self._notify: Optional[Callable[[str, TxOutcome], None]] = None
        self._metrics: Optional[PipelineMetrics] = None
        #: Per channel, the ``(policy, registry)`` verdict key: the
        #: endorsement policy to check, and the object a passing verdict
        #: is memoised under (see :meth:`join_channel`).
        self._verdict_keys: Dict[
            str, Tuple[EndorsementPolicy, IdentityRegistry]
        ] = {}
        #: Backpressure: concurrent endorsement requests, always counted
        #: and checked against ``config.backpressure.endorse_queue_limit``
        #: when that bound is set. ``overload`` is the shared
        #: OverloadStats, attached by the network on backpressure runs.
        self._endorse_inflight = 0
        self.overload = None
        self._verify_pool: Optional[VerifyWorkerPool] = None

    @property
    def name(self) -> str:
        """The peer's identity name (e.g. ``peer0.orgA``)."""
        return self.identity.name

    @property
    def org(self) -> str:
        """The organization hosting this peer."""
        return self.identity.org

    # -- channel management ----------------------------------------------------

    def join_channel(
        self,
        channel: str,
        chaincodes: ChaincodeRegistry,
        policy: EndorsementPolicy,
        initial_state: Optional[Mapping[str, object]] = None,
        genesis: Optional[StateDatabase] = None,
        verdict_key: Optional[Tuple[EndorsementPolicy, IdentityRegistry]] = None,
    ) -> None:
        """Join ``channel``, installing chaincodes and seeding state.

        ``initial_state`` is a key -> value mapping to load. ``genesis`` is
        an already populated store (built once per channel by the network)
        that this peer starts from a copy of instead; the copy shares the
        genesis layer and keeps this peer's writes to itself.

        ``verdict_key`` is the ``(policy, registry)`` pair the network
        builds once and hands to every peer of the channel. The endorsement
        verdict is a pure function of the transaction and that pair, so a
        transaction that passed on one peer passes on every peer holding
        the same key object, and the host evaluates it once. Without one,
        this peer gets a key of its own and shares no verdicts.
        """
        if channel in self.channels:
            raise ConfigError(f"{self.name} already joined channel {channel!r}")
        if verdict_key is None:
            verdict_key = (policy, self.registry)
        elif verdict_key[0] is not policy or verdict_key[1] is not self.registry:
            raise ConfigError(
                f"{self.name}: verdict key of channel {channel!r} names "
                "another policy or registry"
            )
        state = PeerChannelState(self.env, chaincodes)
        if genesis is not None:
            state.state = genesis.copy()
        elif initial_state:
            state.state.populate(initial_state)
        self.channels[channel] = state
        self._verdict_keys[channel] = verdict_key
        self.env.process(
            build_validator(self, channel),
            name=f"{self.name}/{channel}/validator",
        )

    def attach_reference_hooks(
        self,
        notify: Callable[[str, TxOutcome], None],
        metrics: PipelineMetrics,
    ) -> None:
        """Make this peer the network's reference peer for accounting."""
        self.is_reference = True
        self._notify = notify
        self._metrics = metrics

    # -- simulation phase (endorsement) ----------------------------------------

    def endorse(self, channel: str, proposal: Proposal) -> Process:
        """Simulate ``proposal``; returns a process firing an EndorseReply."""
        return self.env.process(
            self._endorse_process(channel, proposal),
            name=f"{self.name}/endorse/{proposal.proposal_id}",
        )

    def _endorse_process(self, channel: str, proposal: Proposal) -> Generator:
        limit = self.config.backpressure.endorse_queue_limit
        if limit > 0 and self._endorse_inflight >= limit:
            # Admission control: shed the proposal instead of queueing it
            # on the peer CPU behind an unbounded backlog.
            if self.overload is not None:
                self.overload.endorse_rejections += 1
            return EndorseReply(None, rejected=True)
        self._endorse_inflight += 1
        # The peak is an endorse-bound statistic: a run that bounds only
        # the orderer queue also carries OverloadStats, and keeps it at 0.
        if (
            limit > 0
            and self.overload is not None
            and self._endorse_inflight > self.overload.endorse_inflight_peak
        ):
            self.overload.endorse_inflight_peak = self._endorse_inflight
        try:
            return (yield from self._endorse_inner(channel, proposal))
        finally:
            self._endorse_inflight -= 1

    def _endorse_inner(self, channel: str, proposal: Proposal) -> Generator:
        pcs = self.channels[channel]
        costs = self.config.costs
        tracer = self.tracer
        endorse_start = self.env.now
        if self.crashed:
            # Connection refused: the client learns quickly that this
            # endorser is gone (its own network hops model the latency).
            return EndorseReply(None, down=True)

        chaincode = pcs.chaincodes.lookup(proposal.chaincode)
        op_count = chaincode.operation_count(proposal.function, proposal.args)
        execution_time = max(1, op_count) * costs.chaincode_op * self.speed_factor

        vanilla = not self.config.early_abort_simulation
        if vanilla:
            # Vanilla: the whole simulation holds the shared read lock.
            # While a block validates (exclusive write lock), simulations
            # queue here — the coupling Section 4.2.1 describes. Acquired
            # before the CPU so lock waiters never pin a core (and cannot
            # deadlock against the validator's CPU demand).
            yield pcs.lock.acquire_read()
        holds_read_lock = vanilla
        try:
            # Endorsement runs in the peer's low-priority worker band so a
            # proposal flood cannot starve block validation.
            yield self.cpu.request(priority=_ENDORSE_PRIORITY)
            try:
                if self.crashed:
                    # The peer died while this request queued for its
                    # CPU: in-flight endorsement work is dropped.
                    return EndorseReply(None, down=True)
                # The chaincode's reads observe the state at the start of
                # its execution; the rwset is fixed from this instant on.
                stub = ChaincodeStub(pcs.state)
                chaincode.invoke(stub, proposal.function, proposal.args)
                yield execution_time  # bare-delay sleep
                if tracer is not None:
                    tracer.charge("logic", execution_time, count=stub.operations)
                if self.crashed:
                    return EndorseReply(None, down=True)
                if vanilla:
                    # Under the read lock no block could commit meanwhile,
                    # so the rwset is consistent at release time.
                    pcs.lock.release_read()
                    holds_read_lock = False
                else:
                    # Fabric++: lock-free simulation ran concurrently with
                    # validation; re-check every read against the live
                    # store (the version-number comparison of Figure 6)
                    # and abort as soon as staleness is proven — the
                    # signing cost and the whole downstream pipeline are
                    # saved, and the client learns immediately.
                    key = pcs.state.first_stale(stub.rwset.reads, {})
                    if key is not None:
                        if tracer is not None:
                            tracer.span(
                                "peer.endorse",
                                cat="endorse",
                                track=f"endorse/{self.name}",
                                start=endorse_start,
                                tx_id=proposal.proposal_id,
                                mode=ASYNC,
                                ops=stub.operations,
                                early_abort=True,
                                stale_key=key,
                            )
                        return EndorseReply(
                            None, early_aborted=True, stale_key=key
                        )
                rwset = stub.rwset
                if self.byzantine_rwset_hook is not None:
                    rwset = self.byzantine_rwset_hook(rwset)
                yield costs.endorse_sign * self.speed_factor
                if tracer is not None:
                    tracer.charge(
                        "sign", costs.endorse_sign * self.speed_factor
                    )
            finally:
                self.cpu.release()
        finally:
            if holds_read_lock:
                pcs.lock.release_read()

        rwset.seal()
        # Host-side sharing only: every endorser simulated and is charged,
        # but a set equal to the last one signed for this proposal is
        # signed as that object, so the agreed set is encoded once.
        signed = proposal._signed
        if signed is not None and signed == rwset:
            rwset = signed
        else:
            object.__setattr__(proposal, "_signed", rwset)
        signature = sign(
            self.identity, endorsement_payload(proposal.payload_bytes(), rwset)
        )
        endorsement = Endorsement(self.name, self.org, rwset, signature)
        if tracer is not None:
            tracer.span(
                "peer.endorse",
                cat="endorse",
                track=f"endorse/{self.name}",
                start=endorse_start,
                tx_id=proposal.proposal_id,
                mode=ASYNC,
                ops=stub.operations,
                early_abort=False,
            )
        return EndorseReply(endorsement)

    # -- validation + commit phase ----------------------------------------------
    #
    # The block loop itself is ``repro.validation.BlockValidator``, started
    # by ``join_channel`` through ``build_validator`` with the policies of
    # the configured ``cc_strategy``. What stays here is what the loop asks
    # of the peer: the verify lanes, the two checks of Section 2.2.3, and
    # the reference peer's client notification.

    def verify_pool(self) -> VerifyWorkerPool:
        """The peer's verification worker pool (created on first use).

        Shared across the peer's channels, like the validator worker
        pool of a real peer process. Only the lanes cost policy
        (``repro.validation.policies.WorkerLanes``) asks for it; the
        assumed pool folds verification into its per-transaction CPU
        charge.
        """
        if self._verify_pool is None:
            self._verify_pool = VerifyWorkerPool(
                self.env,
                self.cpu,
                self.config.validation_workers,
                priority=VALIDATE_PRIORITY,
                owner=self.name,
                tracer=self.tracer,
            )
        return self._verify_pool

    def _endorsements_valid(self, channel: str, tx: Transaction) -> bool:
        """Endorsement-policy evaluation (paper Appendix A.3.1).

        Host-side only: a passing verdict is memoised on the transaction
        under the channel's verdict key, so the next peer sharing that key
        returns at once. A failing one is never kept. The simulated cost
        of the check is charged per peer regardless (``tx_cost``).
        """
        key = self._verdict_keys[channel]
        if tx._endorsed_under is key:
            return True
        policy, registry = key
        if not policy.satisfied_by(tx.endorsing_orgs):
            return False
        # Rebuilt from the rwset that travels with the transaction, never
        # stored whole: a set swapped after endorsement changes it.
        payload = endorsement_payload(tx.invocation, tx.rwset)
        for endorsement in tx.endorsements:
            # The signature must cover the rwset that travels with the
            # transaction; a client that swapped in another write set
            # fails here because the honest signature no longer matches.
            # An honest client's endorsements hold ``tx.rwset`` itself.
            if endorsement.rwset is not tx.rwset and endorsement.rwset != tx.rwset:
                return False
            signature = endorsement.signature
            # Host-side only: a signature the registry remembers as
            # verified (another transaction carried it) is not re-MACed.
            if not registry.is_verified(signature, payload):
                if not verify(registry, signature, payload):
                    return False
                registry.remember_verified(signature, payload)
            signer = registry.lookup(signature.signer)
            if signer.org != endorsement.org:
                return False
        object.__setattr__(tx, "_endorsed_under", key)
        return True

    def _reads_current(
        self,
        channel: str,
        tx: Transaction,
        pending_writes: Dict[str, Version],
    ) -> bool:
        """Serializability conflict check (paper Appendix A.3.2).

        Every read version must match the current state, where "current"
        includes the writes of earlier valid transactions in the same
        block — exactly the semantics behind Table 1.
        """
        state = self.channels[channel].state
        if state.first_stale(tx.rwset.reads, pending_writes) is not None:
            return False
        for range_read in tx.rwset.range_reads:
            if not self._range_read_current(state, pending_writes, range_read):
                return False
        return True

    @staticmethod
    def _range_read_current(
        state: StateDatabase,
        pending_writes: Dict[str, Version],
        range_read,
    ) -> bool:
        """Phantom check: re-execute the scan against the effective state.

        The effective state overlays the committed store with the writes
        of earlier valid transactions in the same block, exactly like the
        point-read check. Any difference — an inserted key (phantom), a
        deleted key, or a changed version — invalidates the scan.
        """
        effective: Dict[str, Version] = {
            key: entry.version
            for key, entry in state.range_scan(
                range_read.start_key, range_read.end_key
            )
        }
        for key, version in pending_writes.items():
            if key < range_read.start_key:
                continue
            if range_read.end_key is not None and key >= range_read.end_key:
                continue
            effective[key] = version
        return effective == dict(range_read.results)

    def _report(self, tx: Transaction, outcome: TxOutcome) -> None:
        """Reference-peer accounting: notify the client of the outcome."""
        tx._stamp("committed_at", self.env.now)
        if (
            outcome.is_success
            and self._metrics is not None
            and tx.ordered_at is not None
        ):
            self._metrics.record_phases(
                endorse=tx.assembled_at - tx.submitted_at,
                order=tx.ordered_at - tx.assembled_at,
                validate=tx.committed_at - tx.ordered_at,
            )
        if self._notify is not None:
            self._notify(tx.tx_id, outcome)

    # -- crash / recovery ---------------------------------------------------------

    def crash(self) -> None:
        """Go down: refuse new work and drop everything in flight.

        Queued-but-unvalidated blocks and buffered out-of-order arrivals
        are lost (they lived in volatile memory); a block *currently*
        validating completes — LevelDB's batched commit makes block
        application all-or-nothing, so crashes take effect at block
        boundaries for the state.
        """
        self.crashed = True
        for pcs in self.channels.values():
            pcs.incoming_blocks.drain()
            pcs.pending_blocks.clear()

    def recover(self) -> None:
        """Come back up; catch-up replay is driven by the network."""
        self.crashed = False

    def catch_up(self, channel: str, source: "Peer") -> int:
        """Replay blocks missed while down from ``source``'s ledger.

        Uses the ledger-export replay semantics (state transfer, the way
        a real peer fetches missing blocks from a gossip neighbour):
        append each missing block — its link checked by the ledger —
        and apply the write sets of its transactions already flagged
        valid. Returns the number of blocks replayed; 0 while the local
        validator is mid-block (the caller polls again later).
        """
        from repro.ledger.export import catch_up_from

        pcs = self.channels[channel]
        if pcs.validating:
            return 0
        return catch_up_from(
            source.channels[channel].ledger, pcs.ledger, pcs.state
        )

    # -- delivery ----------------------------------------------------------------

    def deliver_block(self, channel: str, block: Block) -> None:
        """Enqueue a block received from the ordering service."""
        if self.crashed:
            return  # a down peer never receives the block; catch-up replays it
        self.channels[channel].incoming_blocks.put(block)
