"""Clients: proposal firing, endorsement collection, transaction assembly.

A client fires transaction proposals uniformly at a configured rate (the
paper's benchmark framework fires 512 proposals per second per client,
Table 5), collects endorsements from one peer of every organization the
endorsement policy names, checks that all returned read/write sets agree,
assembles the transaction, and submits it to the ordering service.

Backpressure: the real benchmark drives Fabric through synchronous gRPC
client stubs, so the number of unresolved proposals per client is bounded.
``client_window`` models that bound — when it is reached, firing stalls
until an outcome (commit, abort, or early abort) frees a slot. Fabric++'s
early aborts therefore recycle client capacity sooner, one of the ways the
paper's optimizations lift successful throughput.

Robustness: when a fault schedule is active the client switches to a
fault-tolerant endorsement collection — a per-round deadline, bounded
retries with exponential backoff and seeded jitter, and graceful
degradation to whatever surviving endorsements still satisfy the policy
(``OutOf`` commits from k of n). The healthy path is untouched so
fault-free runs stay bit-identical.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.crypto.identity import Identity
from repro.fabric.config import FabricConfig
from repro.fabric.metrics import PipelineMetrics, TxOutcome
from repro.fabric.orderer import OrderingService
from repro.fabric.peer import EndorseReply, Peer
from repro.fabric.policy import EndorsementPolicy
from repro.fabric.transaction import Endorsement, Proposal, Transaction
from repro.faults import FaultInjector, MisbehaviorSpec, RetryPolicy
from repro.sim.distributions import Rng
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.trace.tracer import ASYNC, Tracer
from repro.traffic import ArrivalSampler
from repro.workloads.base import Workload


class Client:
    """One benchmark client bound to a channel."""

    def __init__(
        self,
        env: Environment,
        identity: Identity,
        channel: str,
        config: FabricConfig,
        workload: Workload,
        rng: Rng,
        endorser_pools: Dict[str, Sequence[Peer]],
        policy: EndorsementPolicy,
        orderer: OrderingService,
        machine_cpu: Resource,
        metrics: PipelineMetrics,
        register_pending: Callable[..., None],
        faults: Optional[FaultInjector] = None,
        fault_rng: Optional[Rng] = None,
        arrival: Optional[ArrivalSampler] = None,
        misbehavior: Optional[MisbehaviorSpec] = None,
        misbehavior_rng: Optional[Rng] = None,
        overload_rng: Optional[Rng] = None,
        overload=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.identity = identity
        self.channel = channel
        self.config = config
        self.workload = workload
        self.rng = rng
        self.policy = policy
        self.orderer = orderer
        self.machine_cpu = machine_cpu
        self.metrics = metrics
        self._register_pending = register_pending
        self.faults = faults
        self.fault_rng = fault_rng
        #: Open-loop traffic: when set, arrivals come from this sampler
        #: and the in-flight window no longer gates firing.
        self.arrival = arrival
        #: Misbehavior: the spec this client adopts (None = honest) and
        #: its dedicated behavior-draw stream.
        self.misbehavior = misbehavior
        self.misbehavior_rng = misbehavior_rng
        #: Backpressure: seeded rejection-backoff stream and the run's
        #: shared OverloadStats (both None on unbounded runs, where no
        #: submission is ever rejected).
        self.overload_rng = overload_rng
        self.overload = overload
        self.tracer = tracer
        # Round-robin endorser choice per org, as real SDKs load-balance.
        self._endorser_cycles = {
            org: itertools.cycle(list(peers))
            for org, peers in endorser_pools.items()
        }
        self._sequence = 0
        self._in_flight = 0
        self._slot_waiter: Optional[Event] = None
        self._stopped = False
        #: resubmit_storm: lifetime refires, bounded by the spec's cap.
        self._storm_fired = 0
        #: Cross-channel sagas (``repro.channels``): set by the sharded
        #: fleet on clients of saga-enabled runs; None (the default)
        #: leaves every firing and resolution path untouched.
        self.saga_router = None

    # -- firing loop ---------------------------------------------------------------

    def start(self) -> None:
        """Begin firing proposals at the configured rate."""
        self.env.process(self._fire_loop(), name=f"{self.identity.name}/fire")

    def stop(self) -> None:
        """Stop firing new proposals (in-flight ones still resolve)."""
        self._stopped = True

    def _fire_loop(self) -> Generator:
        if self.arrival is not None:
            yield from self._fire_loop_open()
            return
        interval = 1.0 / self.config.client_rate
        next_fire = self.env.now
        while not self._stopped:
            if self.env.now < next_fire:
                yield next_fire - self.env.now  # bare-delay sleep
            if self._stopped:
                return
            if self._in_flight >= self.config.client_window:
                self._slot_waiter = self.env.event()
                yield self._slot_waiter
                self._slot_waiter = None
                if self._stopped:
                    return
            self._fire_one()
            next_fire += interval
            if self.env.now > next_fire:
                # We fell behind (window stall); resume the cadence from
                # now rather than releasing a burst of make-up proposals.
                next_fire = self.env.now

    def _fire_loop_open(self) -> Generator:
        """Open-loop arrivals: fire on the sampler's schedule, regardless
        of how many earlier proposals are still unresolved.

        No ``client_window`` gate — open-loop load does not slow down when
        the system falls behind, which is exactly what exposes overload
        behavior.
        """
        while not self._stopped:
            yield self.arrival.next_interval(self.env.now)  # bare-delay sleep
            if self._stopped:
                return
            self._fire_one()

    def _fire_one(self, retries: int = 0) -> None:
        invocation = self.workload.next_invocation(self.rng)
        if self.saga_router is not None and retries == 0:
            # The router may turn this intent into a cross-channel saga
            # (its own seeded decision stream; the workload draw above is
            # reused as the home leg, so the local stream is unperturbed).
            if self.saga_router.take(self, invocation):
                return
        self.fire_invocation(invocation, retries)

    def fire_invocation(self, invocation, retries: int = 0) -> str:
        """Fire one concrete invocation; returns the proposal id.

        Split out of :meth:`_fire_one` so the saga router can inject
        remote legs through a channel's gateway client.
        """
        self._sequence += 1
        proposal = Proposal(
            proposal_id=f"{self.identity.name}-{self._sequence}",
            client=self.identity.name,
            channel=self.channel,
            chaincode=self.workload.chaincode_name,
            function=invocation.function,
            args=invocation.args,
            submitted_at=self.env.now,
        )
        self.metrics.record_fired()
        self._in_flight += 1
        self.env.process(
            self._submit(proposal, retries), name=f"{self.identity.name}/submit"
        )
        return proposal.proposal_id

    # -- one proposal's lifecycle ----------------------------------------------------

    def _submit(
        self, proposal: Proposal, retries: int = 0, overload_attempt: int = 0
    ) -> Generator:
        if self.faults is not None and self.config.faults.endorsement_timeout > 0:
            yield from self._submit_robust(proposal, retries, overload_attempt)
            return

        costs = self.config.costs
        tracer = self.tracer
        cpu = self.machine_cpu
        # ``cpu.use(...)`` spelled out here and below: the same yields in
        # the same order, without a generator per transaction.
        yield cpu.request()
        try:
            yield costs.client_proposal
        finally:
            cpu.release()
        if tracer is not None:
            tracer.charge("sign", costs.client_proposal)

        endorsers = self._pick_endorsers()
        # Ship the proposal to the endorsers (one network hop) and gather
        # their replies in parallel.
        yield costs.net_message
        replies: List[EndorseReply] = yield self.env.all_of(
            [peer.endorse(self.channel, proposal) for peer in endorsers]
        )
        yield costs.net_message
        if tracer is not None:
            # One proposal hop out plus one endorsement hop back per
            # contacted endorser.
            tracer.charge(
                "network",
                2 * costs.net_message * len(endorsers),
                count=2 * len(endorsers),
            )
            tracer.span(
                "tx.endorse",
                cat="client",
                track=f"client/{self.identity.name}",
                start=proposal.submitted_at,
                tx_id=proposal.proposal_id,
                mode=ASYNC,
                endorsers=len(endorsers),
            )

        early = [reply for reply in replies if reply.early_aborted]
        if early:
            # Fabric++: a stale simulation was aborted at the endorser; the
            # client learns immediately and the slot frees without the
            # proposal ever touching the orderer (Section 5.2.1).
            self.resolve(proposal, TxOutcome.EARLY_ABORT_SIM, retries=retries)
            return
        if any(reply.rejected for reply in replies):
            # A saturated endorser shed the proposal: back off and retry
            # the whole round (fresh reads), or shed after the budget.
            yield from self._overload_backoff(proposal, retries, overload_attempt)
            return

        verify_time = costs.client_verify_endorsement * len(replies)
        yield cpu.request()
        try:
            yield verify_time
        finally:
            cpu.release()
        if tracer is not None:
            tracer.charge("verify", verify_time, count=len(replies))
        transaction = self._assemble(
            proposal, [reply.endorsement for reply in replies], retries
        )
        if transaction is not None:
            yield from self._dispatch(
                transaction, proposal, retries, overload_attempt
            )

    def _assemble(
        self, proposal: Proposal, endorsements: List[Endorsement], retries: int
    ) -> Optional[Transaction]:
        """Form the transaction from agreeing endorsements, or resolve the
        proposal as a mismatch and return None.

        Endorsers that agree return one set object (they share it through
        the proposal), so the transaction carries that object. It keeps
        the proposal's signed invocation bytes and submission time, not
        the proposal itself.
        """
        reference = endorsements[0].rwset
        if any(
            e.rwset is not reference and e.rwset != reference
            for e in endorsements[1:]
        ):
            # Non-determinism or a tampering endorser: the read/write sets
            # disagree, so no transaction can be formed (Section 2.2.1).
            self.resolve(proposal, TxOutcome.ENDORSEMENT_MISMATCH, retries=retries)
            return None
        return Transaction(
            tx_id=proposal.proposal_id,
            invocation=proposal.payload_bytes(),
            rwset=self._maybe_oversize(reference, proposal),
            endorsements=tuple(endorsements),
            assembled_at=self.env.now,
            submitted_at=proposal.submitted_at,
        )

    # -- misbehavior ---------------------------------------------------------------

    def _maybe_oversize(self, reference, proposal: Proposal) -> object:
        """oversized_rwset: pad the write set *after* endorsement.

        The padded rwset no longer matches what the endorsers signed, so
        validation fails the transaction with a policy abort — the
        signature check doing its job against a tampering client.
        """
        spec = self.misbehavior
        if (
            spec is None
            or spec.kind != "oversized_rwset"
            or self.misbehavior_rng.random() >= spec.rate
        ):
            return reference
        self.metrics.record_fault("oversized_rwsets")
        padded = reference.copy()
        for index in range(spec.padding):
            padded.record_write(f"__pad/{proposal.proposal_id}/{index}", index)
        padded.seal()
        return padded

    def _dispatch(
        self,
        transaction: Transaction,
        proposal: Proposal,
        retries: int,
        overload_attempt: int,
    ) -> Generator:
        """Ship an assembled transaction to the ordering service.

        Applies the stale-replay hold, registers the pending intent only
        once the orderer actually accepts the submission, and routes a
        rejection through the overload backoff.
        """
        spec = self.misbehavior
        if (
            spec is not None
            and spec.kind == "stale_replay"
            and self.misbehavior_rng.random() < spec.rate
        ):
            # Hold the fully endorsed transaction before submitting it, so
            # its read versions are stale by validation time (a replayed
            # or long-buffered proposal).
            self.metrics.record_fault("stale_replays")
            yield spec.hold_time  # bare-delay sleep
        yield self.config.costs.net_message
        if self.tracer is not None:
            self.tracer.charge("network", self.config.costs.net_message)
        if not self.orderer.submit(transaction):
            yield from self._overload_backoff(proposal, retries, overload_attempt)
            return
        self._register_pending(
            transaction.tx_id, self, proposal.submitted_at, retries
        )

    def _overload_backoff(
        self, proposal: Proposal, retries: int, attempt: int
    ) -> Generator:
        """React to an admission-control rejection: back off, retry, shed.

        Each retry re-runs the whole submission (fresh endorsement round,
        fresh reads — a held-back transaction would only abort later
        anyway). After ``backpressure.retry.max_retries`` rejections the
        transaction is shed with the terminal ``overload_rejected`` outcome.
        """
        policy = self.config.backpressure.retry
        if self._stopped or attempt >= policy.max_retries:
            self.overload.txs_shed += 1
            self.resolve(proposal, TxOutcome.OVERLOAD_REJECTED, retries=retries)
            return
        self.overload.client_retries += 1
        yield self._backoff(policy, attempt, self.overload_rng)  # bare-delay sleep
        yield from self._submit(proposal, retries, overload_attempt=attempt + 1)

    @staticmethod
    def _backoff(policy: RetryPolicy, attempt: int, rng: Rng) -> float:
        """Seconds before retry ``attempt`` (from 0); draws ``rng`` for jitter."""
        backoff = policy.base * policy.factor ** attempt
        if policy.jitter > 0:
            backoff *= 1.0 + policy.jitter * rng.random()
        return backoff

    # -- fault-tolerant endorsement collection -----------------------------------------

    def _submit_robust(
        self, proposal: Proposal, retries: int, overload_attempt: int = 0
    ) -> Generator:
        """Endorsement collection under faults (timeout / retry / degrade).

        Each round ships the proposal to one peer of *every* org the
        policy mentions and races the replies against the endorsement
        deadline. The round succeeds as soon as the collected replies
        satisfy the policy — possibly a strict subset of the contacted
        endorsers (``OutOf`` graceful degradation). Unsatisfiable rounds
        are retried with exponential backoff and seeded jitter, up to
        ``faults.retry.max_retries`` times; exhaustion resolves the
        proposal as :attr:`TxOutcome.ENDORSEMENT_TIMEOUT`.
        """
        costs = self.config.costs
        schedule = self.config.faults
        policy = schedule.retry
        yield from self.machine_cpu.use(costs.client_proposal)
        if self.tracer is not None:
            self.tracer.charge("sign", costs.client_proposal)

        for attempt in range(policy.max_retries + 1):
            endorsers = self._pick_robust_endorsers()
            asks = [
                self.env.process(
                    self._ask_endorser(peer, proposal),
                    name=f"{self.identity.name}/ask/{peer.name}",
                )
                for peer in endorsers
            ]
            gate = self.env.all_of(asks)
            deadline = self.env.timeout(schedule.endorsement_timeout)
            race = gate | deadline
            yield race
            if race.first_event is gate:
                replies: List[EndorseReply] = [
                    reply for reply in gate.value if reply is not None
                ]
            else:
                self.faults.record("endorsement_timeouts")
                replies = [
                    ask.value
                    for ask in asks
                    if ask.triggered and ask.value is not None
                ]

            if any(reply.early_aborted for reply in replies):
                self.resolve(proposal, TxOutcome.EARLY_ABORT_SIM, retries=retries)
                return

            endorsements = [reply.endorsement for reply in replies]
            orgs = frozenset(e.org for e in endorsements)
            if endorsements and self.policy.satisfied_by(orgs):
                if len(endorsements) < len(endorsers):
                    # Fewer endorsers answered than were asked, but the
                    # policy still holds: commit from the survivors.
                    self.faults.record("degraded_endorsements")
                yield from self.machine_cpu.use(
                    costs.client_verify_endorsement * len(endorsements)
                )
                if self.tracer is not None:
                    self.tracer.charge(
                        "verify",
                        costs.client_verify_endorsement * len(endorsements),
                        count=len(endorsements),
                    )
                transaction = self._assemble(proposal, endorsements, retries)
                if transaction is not None:
                    yield from self._dispatch(
                        transaction, proposal, retries, overload_attempt
                    )
                return

            if attempt < policy.max_retries:
                self.faults.record("endorsement_retries")
                yield self._backoff(policy, attempt, self.fault_rng)  # bare-delay sleep

        self.faults.record("endorsements_failed")
        self.resolve(proposal, TxOutcome.ENDORSEMENT_TIMEOUT, retries=retries)

    def _ask_endorser(self, peer: Peer, proposal: Proposal) -> Generator:
        """One endorser exchange over a faulty link.

        Returns the reply, or ``None`` when the peer was down or either
        message was lost. A lost message leaves this ask pending past the
        round deadline (the client cannot observe a drop directly — it
        surfaces as a timeout, exactly as on a real network); a down peer
        answers immediately, like a refused connection.
        """
        costs = self.config.costs
        schedule = self.config.faults
        delay = self.faults.message_delay(costs.net_message)
        if delay is None:
            yield schedule.endorsement_timeout  # sleep past the deadline
            return None
        yield delay
        if self.tracer is not None:
            self.tracer.charge("network", delay)
        reply = yield peer.endorse(self.channel, proposal)
        if reply.down:
            self.faults.record("endorsements_refused")
            return None
        if reply.rejected:
            # Shed at the peer's admission cap: like a refused connection,
            # the round may still satisfy the policy from other orgs.
            return None
        back = self.faults.message_delay(costs.net_message)
        if back is None:
            yield schedule.endorsement_timeout  # sleep past the deadline
            return None
        yield back
        if self.tracer is not None:
            self.tracer.charge("network", back)
        return reply

    def _pick_endorsers(self) -> List[Peer]:
        """One peer per org required by the endorsement policy."""
        return [
            next(self._endorser_cycles[org])
            for org in sorted(self.policy.required_orgs())
        ]

    def _pick_robust_endorsers(self) -> List[Peer]:
        """One peer from every org the policy *mentions*.

        Contacting more than the cheapest satisfying set is what makes
        ``OutOf`` degradation possible: when an endorser is down, the
        surviving replies may still satisfy the policy.
        """
        return [
            next(self._endorser_cycles[org])
            for org in sorted(self.policy.mentioned_orgs())
        ]

    # -- outcome handling --------------------------------------------------------------

    def resolve(
        self,
        proposal_or_submitted: object,
        outcome: TxOutcome,
        submitted_at: Optional[float] = None,
        retries: int = 0,
        tx_id: Optional[str] = None,
    ) -> None:
        """Record a terminal outcome and free the client slot.

        Called either directly (early sim abort, mismatch) with the
        proposal, or by the network resolver with the submission time.
        ``retries`` counts how often a ``resubmit_storm`` client has
        already refired this business intent.
        """
        if submitted_at is None:
            submitted_at = proposal_or_submitted.submitted_at
            if tx_id is None:
                tx_id = proposal_or_submitted.proposal_id
        latency = self.env.now - submitted_at
        self.metrics.record_outcome(outcome, latency, now=self.env.now)
        if self.tracer is not None:
            self.tracer.span(
                "tx.lifecycle",
                cat="client",
                track=f"client/{self.identity.name}",
                start=submitted_at,
                tx_id=tx_id,
                mode=ASYNC,
                outcome=outcome.value,
                retries=retries,
            )
        self._in_flight -= 1
        if self._slot_waiter is not None and not self._slot_waiter.triggered:
            self._slot_waiter.succeed()
        if self.saga_router is not None:
            self.saga_router.on_outcome(tx_id, outcome, self.env.now)
        spec = self.misbehavior
        storms = spec is not None and spec.kind == "resubmit_storm"
        if storms and not outcome.is_success and not self._stopped:
            # resubmit_storm: a buggy retry loop refires every failure
            # ``storm_factor`` times, amplifying load exactly when the
            # system is struggling — bounded by the spec's lifetime cap.
            burst = min(spec.storm_factor, spec.storm_cap - self._storm_fired)
            if burst > 0:
                self._storm_fired += burst
                self.metrics.record_fault("storm_resubmits", burst)
                for _ in range(burst):
                    self._fire_one(retries + 1)
