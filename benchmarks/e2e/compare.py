"""Compare two result files of ``run.py --out`` (the gate for later PRs).

Both files hold runs of one seed on one machine. Host-time metrics are
judged against the bounds ISSUE 12 fixed for this comparison (below);
everything the simulator computes — the ``simulated_*`` metrics,
per-layer counts and ratios, and the metrics hash — is exact for a fixed
seed and must be equal. A result whose own correctness checks failed is
never "no regression".

``bound`` in BENCHMARK.json is a different gate: the benchmark driver
applies it to medians over runs at *different* seeds, and it has to stay
above three times the spread the driver sees (README.md, "Two gates").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: Share of the first file's median a host metric may worsen by.
BOUND = 0.10
#: ``setup_s`` may worsen by this much whatever its size, so that a
#: sub-millisecond build is not held to 10% of nothing.
SETUP_FLOOR_S = 0.05


def is_host_time(name: str) -> bool:
    """True for per-layer metrics that read the host's clock."""
    return name.endswith((".self_s", ".us_per_event")) or name.startswith("bench.")


def allowance(metric: str, median: float) -> float:
    """How far ``metric`` may move in the worse direction, in its unit."""
    allowed = BOUND * median
    return max(allowed, SETUP_FLOOR_S) if metric == "setup_s" else allowed


def verdict(a: Dict, b: Dict, better: str, allowed: float) -> Tuple[str, float]:
    """Judge summary ``b`` against ``a``; returns ``(verdict, change)``.

    ``change`` is the relative move of the median in the *worse*
    direction. ``worse`` means it moved by more than ``allowed``. When
    either side's interquartile spread is wider than ``allowed`` the
    medians cannot resolve a move of that size, so the metric is
    ``unresolved`` rather than unchanged — unless every run of ``b``
    beats every run of ``a``.
    """
    sign = 1.0 if better == "lower" else -1.0
    move = sign * (b["median"] - a["median"])
    change = move / a["median"]
    if move > allowed:
        return "worse", change
    spread = max(s["q3"] - s["q1"] for s in (a, b))
    if better == "lower":
        all_better = max(b["values"]) < min(a["values"])
    else:
        all_better = min(b["values"]) > max(a["values"])
    if spread > allowed and not all_better:
        return "unresolved", change
    return ("better" if change < 0 else "within"), change


def union(left: Iterable[str], right: Iterable[str]) -> List[str]:
    """Names of either side, the first side's order first."""
    return list(dict.fromkeys([*left, *right]))


def compare(a: Dict, b: Dict, definitions: Dict) -> Tuple[List[str], bool]:
    """Report lines plus whether ``b`` regressed or mismatched ``a``.

    ``definitions`` is the parsed BENCHMARK.json: its ``end_to_end``
    entries name the host metrics and their direction.
    """
    host = {m["name"]: m for m in definitions["end_to_end"]}
    lines: List[str] = []
    failed = False

    def mismatch(text: str) -> None:
        nonlocal failed
        failed = True
        lines.append(f"  MISMATCH  {text}")

    if a.get("seed") != b.get("seed"):
        mismatch(f"seed {a.get('seed')} vs {b.get('seed')}: exact metrics only compare at one seed")
    for name in union(a["workloads"], b["workloads"]):
        lines.append(f"== {name} ==")
        left, right = a["workloads"].get(name), b["workloads"].get(name)
        if left is None or right is None:
            mismatch(f"workload missing from the {'first' if left is None else 'second'} file")
            continue
        for side, block in (("first", left), ("second", right)):
            for check, held in block["checks"].items():
                if not held:
                    mismatch(f"check {check} failed in the {side} file")
        if left["duration"] != right["duration"]:
            mismatch(f"simulated duration {left['duration']} vs {right['duration']}")
        if left["metrics_sha256"] != right["metrics_sha256"]:
            mismatch(
                f"metrics_sha256 {left['metrics_sha256'][:12]} vs "
                f"{right['metrics_sha256'][:12]}"
            )
        for metric in union(left["end_to_end"], right["end_to_end"]):
            summary, other = left["end_to_end"].get(metric), right["end_to_end"].get(metric)
            if summary is None or other is None:
                mismatch(f"{metric}: missing from the {'first' if summary is None else 'second'} file")
                continue
            if metric not in host:
                # Identical across repetitions (run.py checks the hash),
                # so the medians are the values themselves.
                if summary["median"] != other["median"]:
                    mismatch(f"{metric}: {summary['median']!r} vs {other['median']!r} (must be exact)")
                continue
            allowed = allowance(metric, summary["median"])
            result, change = verdict(summary, other, host[metric]["better"], allowed)
            if result == "worse":
                failed = True
            lines.append(
                f"  {result.upper():<10} {metric}: {summary['median']:.4g} -> "
                f"{other['median']:.4g} {summary['unit']} "
                f"({change:+.1%} in the worse direction, "
                f"allowed {allowed / summary['median']:.0%})"
            )
        left_layers = left.get("per_layer") or {}
        right_layers = right.get("per_layer") or {}
        for metric in union(left_layers, right_layers):
            if is_host_time(metric):
                continue
            if metric not in left_layers or metric not in right_layers:
                mismatch(f"{metric}: missing from the "
                         f"{'first' if metric not in left_layers else 'second'} file")
            elif left_layers[metric] != right_layers[metric]:
                mismatch(f"{metric}: {left_layers[metric]!r} vs "
                         f"{right_layers[metric]!r} (must be exact)")
    return lines, failed
