"""Ablation — Fabric++'s unique-keys batch-cutting criterion (§5.1.2).

The reordering run time is driven by the conflict-graph work over a
block's unique keys; Fabric++ therefore cuts a batch early when it
touches too many distinct keys. This ablation streams the same
transaction sequence through batch cutters with different
``max_unique_keys`` bounds, reorders every resulting block, and reports
blocks produced, worst-case reorder time, and total commits.

Expected shape: tighter key bounds produce more, smaller blocks with a
far lower worst-case reorder time. In this offline replay (no latency
feedback) the smaller blocks also commit at least as much — conflict
density grows with block size — so the bound is close to free; in the
live pipeline its value is keeping the orderer's latency predictable.
"""

from _bench_utils import bench_map

from repro.bench.report import format_table
from repro.core.batch_cutter import BatchCutConfig, BatchCutter, CutReason
from repro.core.reorder import reorder
from repro.fabric.rwset import ReadWriteSet
from repro.fabric.transaction import Proposal, Transaction
from repro.ledger.state_db import Version
from repro.sim.distributions import Rng
from repro.testing import count_valid_in_order

STREAM_LENGTH = 2048
KEY_BOUNDS = [256, 1024, 4096, None]  # None == criterion disabled


def transaction_stream(seed=5, n_keys=4000, rw=4):
    rng = Rng(seed)
    version = Version(1, 0)
    stream = []
    for index in range(STREAM_LENGTH):
        rwset = ReadWriteSet()
        for _ in range(rw):
            rwset.record_read(f"k{rng.randint(0, n_keys - 1)}", version)
        for _ in range(rw):
            rwset.record_write(f"k{rng.randint(0, n_keys - 1)}", 1)
        proposal = Proposal(f"t{index}", "client", "ch0", "cc", "f", ())
        stream.append(
            Transaction(f"t{index}", proposal.payload_bytes(), rwset, [])
        )
    return stream


def measure_bound(bound):
    # The stream is deterministic (seed=5), so each worker rebuilds it
    # instead of pickling 2048 Transaction objects across the fork.
    stream = transaction_stream()
    cutter = BatchCutter(
        BatchCutConfig(max_transactions=1024, max_unique_keys=bound),
        track_unique_keys=bound is not None,
    )
    blocks = []
    for position, tx in enumerate(stream):
        reason = cutter.add(tx, now=float(position))
        if reason is not None:
            blocks.append(cutter.cut(reason))
    if len(cutter):
        blocks.append(cutter.cut(CutReason.FLUSH))

    committed = 0
    worst_time = 0.0
    for block in blocks:
        rwsets = [tx.rwset for tx in block]
        result = reorder(rwsets, max_cycles=1000)
        committed += count_valid_in_order(rwsets, result.schedule)
        worst_time = max(worst_time, result.elapsed_seconds)
    return {
        "max_unique_keys": bound if bound is not None else "off",
        "blocks": len(blocks),
        "avg_block": round(STREAM_LENGTH / len(blocks), 1),
        "committed": committed,
        "worst_reorder_ms": round(worst_time * 1000, 1),
    }


def run_ablation():
    return bench_map(measure_bound, KEY_BOUNDS, label="unique-keys")


def test_ablation_unique_keys_cut(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: unique-keys batch cutting"))
    # Tighter bounds -> more blocks.
    blocks = [row["blocks"] for row in rows]
    assert blocks == sorted(blocks, reverse=True)
    # Tightest bound keeps the worst-case reorder time lowest.
    assert rows[0]["worst_reorder_ms"] <= rows[-1]["worst_reorder_ms"]
    # Commit counts stay in the same ballpark, and tighter bounds do
    # not lose commits in the offline replay.
    committed = [row["committed"] for row in rows]
    assert min(committed) > 0.75 * max(committed)
    assert rows[0]["committed"] >= rows[-1]["committed"]


if __name__ == "__main__":
    print(format_table(run_ablation(), title="unique-keys ablation"))
