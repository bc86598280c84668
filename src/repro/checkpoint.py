"""Checkpoint/restore for long-horizon runs — logical snapshots plus
deterministic-replay resume.

A discrete-event simulation cannot be pickled mid-run: every in-flight
process is a live Python generator. Instead of freezing the process
graph, a checkpoint stores the *recipe* (the
:class:`~repro.bench.spec.ExperimentSpec` in its JSON data form)
together with a dense set of **verification digests** taken at an
exact event boundary (schema 4).
Each hashes state the runtime already keeps, so a snapshot costs what
changed, not the size of the world: per channel the reference ledger,
block by block with each transaction's recomputed digest and validity
flag (:func:`ledger_digest`, one SHA-256 per retained transaction); per
peer the genesis layer's digest, hashed once per channel and run, plus
the writes since genesis (:func:`state_digest`, O(writes)); the
registered seeded streams (:func:`rng_digest`, O(streams)); the engine
clock, sequence and event heap (:func:`engine_digest`); and each
runtime's canonical metrics snapshot (:func:`metrics_digest`).

Resume rebuilds the network from the embedded spec and *replays* from
``t = 0`` up to the checkpoint boundary — the simulation is
deterministic, so the replay reproduces the original run bit for bit.
At the boundary every stored digest is re-computed and compared; any
mismatch raises :class:`~repro.errors.CheckpointError` naming the
diverging fields, which doubles as a nondeterminism oracle for the
whole simulator. Past the boundary the run simply continues. Resume
cost is therefore O(T) re-simulation, not O(1) — an honest trade that
keeps checkpoints small, portable JSON and keeps the hot path free of
snapshot bookkeeping (see ``docs/longruns.md``).

Segmentation is free: ``env.run(until=b1); env.run(until=b2)`` is
exactly equivalent to ``env.run(until=b2)`` (the engine drains the
same-instant deque before returning and leaves later heap entries
untouched), so a checkpointed run produces byte-identical ledgers and
metrics to an uncheckpointed one.

Ledger pruning (:func:`prune_network`) rides on the same boundaries:
blocks below the fleet-wide minimum tip are folded into a
:class:`~repro.ledger.ledger.ContinuityRecord`, so every peer —
including crashed ones — can still catch up from any other.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.bench.results import metrics_to_dict
from repro.bench.spec import ExperimentSpec
from repro.errors import CheckpointError, ConfigError
from repro.ledger.export import _publish
from repro.ledger.ledger import Ledger
from repro.ledger.state_db import GENESIS_VERSION, StateDatabase
from repro.sim.engine import Environment
from repro.trace.tracer import crypto_recording

#: Bump when the checkpoint payload layout changes; old files are
#: rejected with a clear error instead of mis-verifying.
#: 4: the spec is stored as ``ExperimentSpec.to_dict()`` JSON, not a
#: pickle, and the header lost its duration and drain copies.
#: 5: the embedded spec's config nests the client retry fields as one
#: ``retry`` policy and has no ``resubmit_failed``/``max_resubmits``.
CHECKPOINT_SCHEMA = 5

#: File-name prefix for on-disk checkpoints (``checkpoint-000001.json``).
CHECKPOINT_PREFIX = "checkpoint-"


def _canonical_json(payload: object) -> str:
    """Canonical JSON text — the hashing substrate for every digest."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: object) -> str:
    """SHA-256 hex digest over the canonical JSON of ``payload``."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def ledger_digest(ledger: Ledger) -> str:
    """Hash of the chain: the continuity record (``None`` when unpruned),
    then per retained block its id, ``previous_hash`` and ``data_hash``,
    and each transaction's — then each early abort's — recomputed
    :meth:`~repro.fabric.transaction.Transaction.digest` and validity
    flag. That digest covers every field a ledger export carries, so
    this is as strong as hashing the export, without building it."""
    hasher = hashlib.sha256(repr(ledger.continuity).encode("utf-8"))
    for block in ledger:
        header = block.header
        hasher.update(
            f"|{block.block_id}|{header.previous_hash.hex()}"
            f"|{header.data_hash.hex()}|{len(block.transactions)}"
            f"|{len(block.early_aborted)}".encode("utf-8")
        )
        for tx in chain(block.transactions, block.early_aborted):
            hasher.update(tx.digest())
            hasher.update(repr(block.is_valid(tx.tx_id)).encode("utf-8"))
    return hasher.hexdigest()


def _layer_digest(layer: Dict[str, object], keys: Iterable[str]) -> str:
    """SHA-256 over a genesis layer's ``(key, value)`` rows in ``keys`` order."""
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update(repr((key, layer[key])).encode("utf-8"))
    return hasher.hexdigest()


def state_digest(state: StateDatabase) -> str:
    """Hash of a peer's versioned store: H(genesis-layer digest, the
    entries written since genesis in key order, ``last_block_id``).

    The layer digest is memoised in a cell the store's copies share, so
    a channel's peers hash their layer once per run. Entries written at
    ``GENESIS_VERSION`` (``populate`` on a non-empty store) count as
    layer content, so where a genesis entry lives never matters. Stores
    compare exactly when their layers hold the same content, as a
    channel's peers, and a run and its replay, do.
    """
    written = state._data
    folded: Dict[str, object] = {}
    hasher = hashlib.sha256()
    for key in sorted(written):
        entry = written[key]
        version = entry.version
        if version.block_id == 0 and version == GENESIS_VERSION:
            folded[key] = entry.value
            continue
        hasher.update(
            repr((key, entry.value, version.block_id, version.tx_id)).encode(
                "utf-8"
            )
        )
    if folded:
        layer = {**state._genesis, **folded}
        genesis = _layer_digest(layer, sorted(layer))
    else:
        memo = state._genesis_memo
        if memo[0] is None:
            memo[0] = _layer_digest(state._genesis, state._genesis_keys)
        genesis = memo[0]
    return hashlib.sha256(
        f"{genesis}|{hasher.hexdigest()}|{state.last_block_id}".encode("utf-8")
    ).hexdigest()


def metrics_digest(metrics) -> str:
    """Hash of the canonical metrics snapshot."""
    return _digest(metrics_to_dict(metrics))


def engine_digest(env: Environment) -> Dict[str, object]:
    """Clock, sequence counter and a symbolic hash of the event heap.

    Events cannot be serialised (they wrap generators), so the heap is
    hashed symbolically: sorted ``(time, seq, type, process-name)``
    rows. Two runs with identical schedules produce identical hashes;
    replay divergence shows up here before it shows up in the ledger.
    """
    rows = sorted(
        (repr(time), sequence, type(event).__name__, getattr(event, "_name", None) or "")
        for time, sequence, event in env._queue
    )
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(row).encode("utf-8"))
    return {
        "now": repr(env.now),
        "sequence": env._sequence,
        "events": len(env._queue),
        "heap": hasher.hexdigest(),
    }


def rng_digest(network) -> Dict[str, object]:
    """Aggregate digest over every seeded stream's exact state.

    Iterates ``network.rng_streams``: each runtime appends a stream
    where it builds it (a sharded fleet's list adds the saga router's
    and its total's), so the order is construction order, identical in
    a run and in its replay.
    """
    hasher = hashlib.sha256()
    for stream in network.rng_streams:
        hasher.update(repr(stream.getstate()).encode("utf-8"))
    return {"streams": len(network.rng_streams), "digest": hasher.hexdigest()}


def capture_snapshot(network, boundary: float) -> Dict[str, object]:
    """The full verification snapshot of ``network`` at ``boundary``.

    Read-only: capturing a snapshot never perturbs the simulation, so a
    checkpointed run stays byte-identical to an uncheckpointed one.
    """
    channels: Dict[str, object] = {}
    pending = 0
    for runtime in network.runtimes:
        pending += len(runtime._pending)
        for channel in runtime.channels:
            peers: Dict[str, object] = {}
            for peer in runtime.peers:
                pcs = peer.channels.get(channel)
                if pcs is None:
                    continue
                peers[peer.name] = {
                    "tip": pcs.ledger.tip_block_id,
                    "tip_hash": pcs.ledger.tip_hash.hex(),
                    "first_block": pcs.ledger.first_block_id,
                    "state": state_digest(pcs.state),
                }
            reference = runtime.reference_peer.channels[channel]
            orderer = runtime.orderers[channel]
            channels[channel] = {
                "ledger": ledger_digest(reference.ledger),
                "peers": peers,
                "orderer_pending": orderer.pending_count,
            }
    return {
        "time": boundary,
        "engine": engine_digest(network.env),
        "channels": channels,
        "metrics": [
            metrics_digest(runtime.metrics) for runtime in network.runtimes
        ],
        "rng": rng_digest(network),
        "pending": pending,
    }


def _diff_snapshots(expected, actual, path: str, mismatches: List[str]) -> None:
    if len(mismatches) >= 8:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                mismatches.append(f"{path}.{key} (missing on one side)")
                continue
            _diff_snapshots(expected[key], actual[key], f"{path}.{key}", mismatches)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            mismatches.append(f"{path} (length {len(expected)} != {len(actual)})")
            return
        for index, (left, right) in enumerate(zip(expected, actual)):
            _diff_snapshots(left, right, f"{path}[{index}]", mismatches)
        return
    if expected != actual:
        mismatches.append(f"{path} ({expected!r} != {actual!r})")


def verify_snapshot(expected: Dict[str, object], actual: Dict[str, object]) -> None:
    """Compare two snapshots; raise :class:`CheckpointError` on divergence.

    Both sides are normalised through canonical JSON first so that a
    snapshot freshly captured in memory compares equal to one that
    round-tripped through a checkpoint file.
    """
    expected_norm = json.loads(_canonical_json(expected))
    actual_norm = json.loads(_canonical_json(actual))
    if expected_norm == actual_norm:
        return
    mismatches: List[str] = []
    _diff_snapshots(expected_norm, actual_norm, "snapshot", mismatches)
    raise CheckpointError(
        "resumed run diverged from the checkpoint at simulated time "
        f"{expected.get('time')}: " + "; ".join(mismatches)
    )


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------


def prune_network(network) -> int:
    """Prune every ledger below the fleet-wide safe height, per channel.

    The safe height is the *minimum* tip over **all** peers holding the
    channel — crashed and recovering peers included — so any follower
    can still ``catch_up_from`` any source after the prune: the slowest
    follower's next needed block is never folded away. Returns the total
    number of blocks pruned across the fleet.
    """
    pruned = 0
    for runtime in network.runtimes:
        for channel in runtime.channels:
            states = [
                peer.channels[channel]
                for peer in runtime.peers
                if channel in peer.channels
            ]
            if not states:
                continue
            safe = min(pcs.ledger.tip_block_id for pcs in states)
            for pcs in states:
                pruned += pcs.ledger.prune_below(safe)
    return pruned


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


@dataclass
class CheckpointOptions:
    """How a run is checkpointed.

    These knobs are runtime-only — deliberately *not* part of
    :class:`FabricConfig` — so cache fingerprints and golden hashes are
    unaffected by how (or whether) a run was checkpointed.
    """

    #: Simulated seconds between checkpoints.
    every: float
    #: Where checkpoint files go; ``None`` keeps checkpoints in memory
    #: only (the chaos kill-and-resume harness uses this).
    directory: Optional[Union[str, Path]] = None
    #: Prune ledgers below the fleet-safe height at every boundary.
    prune: bool = False
    #: Retain only the newest N checkpoint files (None keeps all).
    keep: Optional[int] = None
    #: Stop the run right after writing this many checkpoints — the
    #: in-process stand-in for SIGKILL in kill-and-resume tests.
    stop_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise ConfigError(
                f"checkpoint interval must be > 0, got {self.every}"
            )
        if self.keep is not None and self.keep < 1:
            raise ConfigError(f"keep must be >= 1, got {self.keep}")


class Checkpointer:
    """Builds, verifies, and persists checkpoints for one run."""

    def __init__(self, spec: ExperimentSpec, options: CheckpointOptions) -> None:
        self.spec = spec
        self.options = options
        #: Every checkpoint built this run, newest last (also the store
        #: in in-memory mode).
        self.checkpoints: List[Dict[str, object]] = []
        try:
            self._spec_form = spec.to_dict()
        except TypeError as error:
            raise CheckpointError(
                f"checkpointed runs need a data-only spec: {error}"
            ) from error

    def boundaries(self, horizon: float) -> Iterator[float]:
        """Checkpoint times ``every, 2*every, ...`` strictly inside the
        horizon. Computed as ``index * every`` so an original run and a
        replay land on bit-identical boundaries."""
        index = 1
        while True:
            boundary = index * self.options.every
            if boundary >= horizon:
                return
            yield boundary
            index += 1

    def build(self, index: int, boundary: float, snapshot: Dict[str, object]) -> Dict[str, object]:
        """Assemble the JSON checkpoint payload for one boundary."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "index": index,
            "time": boundary,
            "every": self.options.every,
            "prune": self.options.prune,
            "label": self.spec.resolved_label(),
            "spec": self._spec_form,
            "snapshot": snapshot,
        }

    def write(self, checkpoint: Dict[str, object]) -> Optional[Path]:
        """Persist one checkpoint; returns its path (None in-memory).

        Files are published atomically (temp file + ``os.replace``; the
        temp file is removed if the write is interrupted) so a kill
        mid-write never leaves a torn checkpoint — at worst the previous
        checkpoint stays the newest loadable one.
        """
        self.checkpoints.append(checkpoint)
        if self.options.directory is None:
            return None
        directory = Path(self.options.directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{CHECKPOINT_PREFIX}{checkpoint['index']:06d}.json"
        _publish(path, json.dumps(checkpoint, sort_keys=True))
        if self.options.keep is not None:
            files = sorted(directory.glob(f"{CHECKPOINT_PREFIX}*.json"))
            for stale in files[: -self.options.keep]:
                try:
                    stale.unlink()
                except OSError:
                    pass
        return path

    @property
    def latest(self) -> Optional[Dict[str, object]]:
        """The newest checkpoint built this run, if any."""
        return self.checkpoints[-1] if self.checkpoints else None


def load_checkpoint(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate one checkpoint file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path} has schema "
            f"{payload.get('schema') if isinstance(payload, dict) else '?'}; "
            f"this build reads schema {CHECKPOINT_SCHEMA}"
        )
    for field in ("index", "time", "every", "prune", "spec", "snapshot"):
        if field not in payload:
            raise CheckpointError(f"checkpoint {path} is missing field {field!r}")
    return payload


def load_latest_checkpoint(target: Union[str, Path]) -> Dict[str, object]:
    """Load the newest readable checkpoint from a file or directory.

    Corrupt newer files (e.g. from a torn write on a filesystem without
    atomic replace) are skipped, each named with its reason on stderr and
    in the final message if nothing loads.
    """
    target = Path(target)
    if target.is_file():
        return load_checkpoint(target)
    if not target.is_dir():
        raise CheckpointError(f"no checkpoint file or directory at {target}")
    errors: List[str] = []
    for path in sorted(target.glob(f"{CHECKPOINT_PREFIX}*.json"), reverse=True):
        try:
            return load_checkpoint(path)
        except CheckpointError as error:
            print(f"skipping checkpoint {path.name}: {error}", file=sys.stderr)
            errors.append(str(error))
    detail = f" ({'; '.join(errors)})" if errors else ""
    raise CheckpointError(f"no loadable checkpoint under {target}{detail}")


# ---------------------------------------------------------------------------
# Run drivers
# ---------------------------------------------------------------------------


def _drive(network, spec, options, checkpointer, tracer, resume=None):
    """Run ``network`` through the segmented checkpoint loop.

    With ``resume`` set (a loaded checkpoint payload), boundaries up to
    the resume index replay silently (re-applying prunes), the resume
    boundary is captured and verified against the stored snapshot, and
    later boundaries checkpoint normally. Returns the final metrics, or
    ``None`` when ``options.stop_after`` ended the run early.
    """
    duration = spec.duration
    horizon = duration + spec.drain
    resume_index = int(resume["index"]) if resume is not None else 0
    network.begin(duration)
    with crypto_recording(tracer):
        written = 0
        for index, boundary in enumerate(checkpointer.boundaries(horizon), start=1):
            network.env.run(until=boundary)
            if options.prune:
                prune_network(network)
            if resume is not None and index < resume_index:
                continue
            snapshot = capture_snapshot(network, boundary)
            if resume is not None and index == resume_index:
                verify_snapshot(resume["snapshot"], snapshot)
                continue
            checkpointer.write(checkpointer.build(index, boundary, snapshot))
            written += 1
            if options.stop_after is not None and written >= options.stop_after:
                return None
        network.env.run(until=horizon)
    return network.finish(duration)


def run_with_checkpoints(
    spec: ExperimentSpec,
    options: CheckpointOptions,
    tracer=None,
):
    """Run ``spec`` with periodic checkpoints.

    Returns ``(result, network, checkpointer)``. ``result`` is ``None``
    when ``options.stop_after`` killed the run early — resume from
    ``checkpointer.latest`` (in-memory) or the checkpoint directory.
    """
    network = spec.build_network(tracer)
    checkpointer = Checkpointer(spec, options)
    metrics = _drive(network, spec, options, checkpointer, tracer)
    if metrics is None:
        return None, network, checkpointer
    return spec.result(metrics), network, checkpointer


def resume_run(
    checkpoint: Dict[str, object],
    tracer=None,
    directory: Optional[Union[str, Path]] = None,
):
    """Resume a killed run from a loaded checkpoint payload.

    Rebuilds the network from the embedded spec, replays to the
    checkpoint boundary, verifies every stored digest (raising
    :class:`CheckpointError` on divergence), then runs to completion —
    writing any remaining checkpoints along the way into ``directory``
    (``None`` keeps them in memory). Returns ``(result, network,
    checkpointer)``.
    """
    try:
        spec = ExperimentSpec.from_dict(checkpoint["spec"])
    except ConfigError as error:
        raise CheckpointError(f"corrupt spec in checkpoint: {error}") from error
    options = CheckpointOptions(
        every=float(checkpoint["every"]),
        directory=directory,
        prune=bool(checkpoint["prune"]),
    )
    network = spec.build_network(tracer)
    checkpointer = Checkpointer(spec, options)
    metrics = _drive(network, spec, options, checkpointer, tracer, resume=checkpoint)
    return spec.result(metrics), network, checkpointer
