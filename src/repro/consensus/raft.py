"""The Raft state machine: elections, heartbeats, log replication.

One :class:`RaftGroup` per channel, with one :class:`RaftReplica` living
on each :class:`~repro.consensus.cluster.OrdererNode`. The implementation
follows the Raft paper's crash-fault-tolerant core:

- Followers convert to candidates after a randomized election timeout
  (drawn per node and per election from the replica's dedicated seeded
  RNG stream) and win with a quorum of votes, granted only to candidates
  whose log is at least as up to date.
- Leaders append a no-op entry on winning — the only safe way to commit
  an inherited previous-term tail (the "figure 8" hazard) — then
  replicate via AppendEntries, reconciling divergent followers through
  next-index backtracking with a conflict hint.
- An entry commits once a quorum of match indices covers it *and* it
  belongs to the leader's current term; commit indices propagate to
  followers with the next heartbeat.

Replica logs, terms, and votes survive crashes (a crash-fault-tolerant
orderer persists its WAL); timers and leader state are volatile. Timers
use epoch counters rather than interrupts: bumping ``_epoch`` strands
every outstanding timer process, which then exits on wake-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.consensus.cluster import CONSENSUS_SEED_SALT, OrdererCluster, OrdererNode
from repro.fabric.config import FabricConfig
from repro.fabric.transaction import Transaction
from repro.sim.distributions import Rng, mix_seed
from repro.trace.tracer import Tracer

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


@dataclass(frozen=True)
class LogEntry:
    """One replicated ordering decision: a transformed, ready-to-ship batch.

    The reorder/early-abort transform of Sections 5.1–5.2 runs *before*
    proposal, so every replica holds byte-identical batch content and the
    consenter can seal the block from whichever replica's committed
    log it observes first. ``noop`` entries are the leadership markers
    Raft appends to commit inherited tails; they never produce blocks.
    """

    term: int
    batch: Tuple[Transaction, ...] = ()
    early_aborted: Tuple[Transaction, ...] = ()
    noop: bool = False
    proposed_at: float = 0.0


class RaftReplica:
    """One node's consensus state for one channel."""

    def __init__(self, group: "RaftGroup", node: OrdererNode, rng: Rng) -> None:
        self.group = group
        self.node = node
        self.env = group.env
        self.rng = rng
        # Durable state (survives crashes — the modelled WAL).
        self.current_term = 0
        self.voted_for: Optional[int] = None
        self.log: List[LogEntry] = []
        self.commit_index = 0
        # Volatile state.
        self.role = FOLLOWER
        self._votes: set = set()
        self._next_index: Dict[int, int] = {}
        self._match_index: Dict[int, int] = {}
        self._election_deadline = 0.0
        self._election_started_at: Optional[float] = None
        #: Epoch counter standing in for timer interrupts: every loop
        #: captures the epoch at spawn and exits once it moves on.
        self._epoch = 0

    # -- log helpers ---------------------------------------------------------

    @property
    def last_log_index(self) -> int:
        return len(self.log)

    @property
    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _log_up_to_date(self, last_term: int, last_index: int) -> bool:
        """Raft's voting rule: is (last_term, last_index) >= our log?"""
        if last_term != self.last_log_term:
            return last_term > self.last_log_term
        return last_index >= self.last_log_index

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the first election timer (called once at network build)."""
        self._reset_election_deadline()
        self._spawn_watchdog()

    def halt(self) -> None:
        """Crash: strand every timer, drop volatile leader state."""
        self._epoch += 1
        self.role = FOLLOWER
        self._votes = set()
        self._next_index = {}
        self._match_index = {}
        self._election_started_at = None

    def resume(self) -> None:
        """Recover as a follower with a fresh election timer."""
        self.role = FOLLOWER
        self._reset_election_deadline()
        self._spawn_watchdog()

    # -- timers --------------------------------------------------------------

    def _reset_election_deadline(self) -> None:
        consensus = self.group.config.consensus
        self._election_deadline = self.env.now + self.rng.uniform(
            consensus.election_timeout_min, consensus.election_timeout_max
        )

    def _spawn_watchdog(self) -> None:
        self._epoch += 1
        self.env.process(
            self._watchdog(self._epoch),
            name=f"consensus/{self.group.channel}/{self.node.name}/watchdog",
        )

    def _watchdog(self, epoch: int):
        """Start an election whenever the deadline passes un-renewed."""
        while epoch == self._epoch and not self.node.crashed:
            if self.env.now >= self._election_deadline:
                self._start_election()
            wait = self._election_deadline - self.env.now
            if wait <= 0:  # pragma: no cover - deadline always reset ahead
                return
            yield wait  # bare-delay sleep

    def _heartbeat_loop(self, epoch: int):
        interval = self.group.config.consensus.heartbeat_interval
        while (
            epoch == self._epoch
            and self.role == LEADER
            and not self.node.crashed
        ):
            self._broadcast_append()
            yield interval

    # -- elections -----------------------------------------------------------

    def _start_election(self) -> None:
        self.role = CANDIDATE
        self.current_term += 1
        self.voted_for = self.node.index
        self._votes = {self.node.index}
        if self._election_started_at is None:
            self._election_started_at = self.env.now
        self.group.stats.elections_started += 1
        self._reset_election_deadline()
        message = {
            "term": self.current_term,
            "candidate": self.node.index,
            "last_log_index": self.last_log_index,
            "last_log_term": self.last_log_term,
        }
        for peer in self.group.replicas:
            if peer is not self:
                self.group.send(self, peer, "request_vote", message)

    def _become_leader(self) -> None:
        self.role = LEADER
        self._next_index = {
            peer.node.index: self.last_log_index + 1
            for peer in self.group.replicas
            if peer is not self
        }
        self._match_index = {index: 0 for index in self._next_index}
        # The no-op commits any inherited previous-term tail: Raft only
        # ever counts a quorum over current-term entries (figure 8).
        self.log.append(
            LogEntry(term=self.current_term, noop=True, proposed_at=self.env.now)
        )
        tracer = self.group.tracer
        if tracer is not None and self._election_started_at is not None:
            tracer.span(
                "consensus.election",
                cat="consensus",
                track=f"consensus/{self.group.channel}",
                start=self._election_started_at,
                node=self.node.index,
                term=self.current_term,
            )
        self._election_started_at = None
        self.group.on_leader_won(self)
        self._epoch += 1
        self.env.process(
            self._heartbeat_loop(self._epoch),
            name=f"consensus/{self.group.channel}/{self.node.name}/heartbeat",
        )
        self._broadcast_append()

    def _step_down(self, term: int) -> None:
        """Adopt ``term`` (if newer) and fall back to follower."""
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        was_leader = self.role == LEADER
        self.role = FOLLOWER
        self._votes = set()
        self._election_started_at = None
        if was_leader:
            # The heartbeat loop dies with the epoch; followers need a
            # live election timer instead.
            self._reset_election_deadline()
            self._spawn_watchdog()

    # -- proposing (leader API used by the Raft consenter) --------------------

    def propose(
        self,
        batch: Sequence[Transaction],
        early_aborted: Sequence[Transaction],
    ) -> bool:
        """Append one batch entry and replicate it; False if not leader."""
        if self.role != LEADER or self.node.crashed:
            return False
        self.log.append(
            LogEntry(
                term=self.current_term,
                batch=tuple(batch),
                early_aborted=tuple(early_aborted),
                proposed_at=self.env.now,
            )
        )
        self.group.stats.entries_proposed += 1
        self._broadcast_append()
        return True

    # -- replication ---------------------------------------------------------

    def _broadcast_append(self) -> None:
        for peer in self.group.replicas:
            if peer is not self:
                self._send_append(peer.node.index)

    def _send_append(self, follower: int) -> None:
        next_index = self._next_index[follower]
        prev_index = next_index - 1
        prev_term = self.log[prev_index - 1].term if prev_index > 0 else 0
        self.group.send(
            self,
            self.group.replicas[follower],
            "append_entries",
            {
                "term": self.current_term,
                "leader": self.node.index,
                "prev_index": prev_index,
                "prev_term": prev_term,
                "entries": tuple(self.log[prev_index:]),
                "leader_commit": self.commit_index,
            },
        )

    def _advance_commit(self) -> None:
        """Move the commit index over quorum-matched current-term entries."""
        for index in range(self.last_log_index, self.commit_index, -1):
            if self.log[index - 1].term != self.current_term:
                # Everything below is an older term: never commit those
                # directly — they ride along once a current-term entry
                # above them commits.
                break
            acks = 1 + sum(
                1 for match in self._match_index.values() if match >= index
            )
            if acks >= self.group.quorum:
                self.commit_index = index
                self.group.on_commit(self)
                break

    # -- message handlers (run at the receiver, after transport costs) -------

    def dispatch(self, kind: str, message: Dict) -> None:
        """Route one delivered consensus message."""
        if self.node.crashed:  # pragma: no cover - transport already drops
            return
        getattr(self, "_on_" + kind)(message)

    def _on_request_vote(self, message: Dict) -> None:
        term = message["term"]
        if term > self.current_term:
            self._step_down(term)
        granted = (
            term == self.current_term
            and self.voted_for in (None, message["candidate"])
            and self._log_up_to_date(
                message["last_log_term"], message["last_log_index"]
            )
        )
        if granted:
            self.voted_for = message["candidate"]
            self._reset_election_deadline()
        self.group.send(
            self,
            self.group.replicas[message["candidate"]],
            "vote_reply",
            {"term": self.current_term, "voter": self.node.index, "granted": granted},
        )

    def _on_vote_reply(self, message: Dict) -> None:
        if message["term"] > self.current_term:
            self._step_down(message["term"])
            return
        if self.role != CANDIDATE or message["term"] != self.current_term:
            return
        if message["granted"]:
            self._votes.add(message["voter"])
            if len(self._votes) >= self.group.quorum:
                self._become_leader()

    def _on_append_entries(self, message: Dict) -> None:
        term = message["term"]
        leader = self.group.replicas[message["leader"]]
        if term < self.current_term:
            self.group.send(
                self, leader, "append_reply",
                {
                    "term": self.current_term,
                    "follower": self.node.index,
                    "success": False,
                    "hint": 0,
                },
            )
            return
        if term > self.current_term or self.role != FOLLOWER:
            # A candidate (or a deposed leader) of the same term yields
            # to the node that actually won it.
            self._step_down(term)
        self._reset_election_deadline()
        prev_index = message["prev_index"]
        if prev_index > self.last_log_index or (
            prev_index > 0 and self.log[prev_index - 1].term != message["prev_term"]
        ):
            # Conflict hint: our log length bounds where the leader
            # should retry, skipping the one-step-at-a-time walk.
            self.group.send(
                self, leader, "append_reply",
                {
                    "term": self.current_term,
                    "follower": self.node.index,
                    "success": False,
                    "hint": min(self.last_log_index, max(prev_index - 1, 0)),
                },
            )
            return
        index = prev_index
        for entry in message["entries"]:
            if index < len(self.log):
                if self.log[index].term != entry.term:
                    # Divergent uncommitted tail: truncate and adopt.
                    del self.log[index:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
            index += 1
        last_new = prev_index + len(message["entries"])
        if message["leader_commit"] > self.commit_index:
            # Cap at the last entry this append covered: indices beyond
            # it are not yet confirmed to match the leader's log.
            advanced = min(message["leader_commit"], last_new)
            if advanced > self.commit_index:
                self.commit_index = advanced
                self.group.on_commit(self)
        self.group.send(
            self, leader, "append_reply",
            {
                "term": self.current_term,
                "follower": self.node.index,
                "success": True,
                "match": last_new,
            },
        )

    def _on_append_reply(self, message: Dict) -> None:
        if message["term"] > self.current_term:
            self._step_down(message["term"])
            return
        if self.role != LEADER or message["term"] != self.current_term:
            return
        follower = message["follower"]
        if message["success"]:
            if message["match"] > self._match_index[follower]:
                self._match_index[follower] = message["match"]
                self._next_index[follower] = message["match"] + 1
                self._advance_commit()
        else:
            self._next_index[follower] = max(
                1, min(self._next_index[follower] - 1, message["hint"] + 1)
            )
            self._send_append(follower)


class RaftGroup:
    """One channel's Raft instance across every cluster node."""

    def __init__(
        self,
        cluster: OrdererCluster,
        channel: str,
        channel_index: int,
        config: FabricConfig,
        on_leader: Callable[[RaftReplica], None],
        on_commit: Callable[[RaftReplica], None],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = cluster.env
        self.cluster = cluster
        self.channel = channel
        self.config = config
        self.tracer = tracer
        self.stats = cluster.stats
        self._on_leader = on_leader
        self._on_commit = on_commit
        self.replicas: List[RaftReplica] = [
            RaftReplica(
                self,
                node,
                Rng(mix_seed(config.seed, CONSENSUS_SEED_SALT, channel_index, node.index)),
            )
            for node in cluster.nodes
        ]
        cluster.register_group(self)

    @property
    def quorum(self) -> int:
        return self.cluster.quorum

    def start(self) -> None:
        """Arm every replica's election timer."""
        for replica in self.replicas:
            replica.start()

    def send(
        self, sender: RaftReplica, receiver: RaftReplica, kind: str, message: Dict
    ) -> None:
        self.cluster.send(
            self.channel,
            sender.node,
            receiver.node,
            lambda: receiver.dispatch(kind, message),
        )

    def leader(self) -> Optional[RaftReplica]:
        """The live replica currently believing itself leader with the
        highest term (None during elections)."""
        leaders = [
            replica
            for replica in self.replicas
            if replica.role == LEADER and not replica.node.crashed
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda replica: replica.current_term)

    def on_leader_won(self, replica: RaftReplica) -> None:
        self.cluster.note_leader(
            self.channel, replica.node.index, replica.current_term
        )
        self._on_leader(replica)

    def on_commit(self, replica: RaftReplica) -> None:
        self._on_commit(replica)
