"""Command-line interface: run experiments without writing code.

Five experiment subcommands mirror the library's main entry points::

    python -m repro run --workload smallbank --system fabric++ --s-value 1.5
    python -m repro compare --workload custom --hr 0.4 --hw 0.1 --duration 5
    python -m repro caliper --workload custom --rate 150
    python -m repro sweep --workload smallbank --sweep s-value=0.0,1.0,2.0 --jobs 4
    python -m repro profile --workload smallbank --duration 2 --trace out.json

``run`` executes one system/workload combination and prints the metric
summary (``--trace PATH`` additionally records a Chrome trace and the
per-resource cost table); ``compare`` runs vanilla Fabric and Fabric++ on
identical inputs and prints both plus the improvement factor; ``caliper``
reproduces the paper's Table 8 measurement discipline; ``sweep`` fans a
parameter grid across worker processes (``--jobs``) with on-disk result
caching in ``.repro-cache/`` — a second identical invocation completes
from cache without re-simulating; ``profile`` traces both systems and
prints the Figure 1-style cost attribution per resource.

Three more subcommands cover robustness: ``verify-ledger`` checks the
hash chain of an exported ledger, ``chaos`` runs randomized fault
schedules (peer/orderer crashes, partitions, lossy links) against the
replicated ordering service and asserts the consensus safety
invariants after every run, and ``scenario`` runs the named overload
scenarios (open-loop traffic shapes, misbehaving clients, bounded
queues) under the same invariant checks::

    python -m repro chaos --seeds 20 --report chaos-report.json
    python -m repro scenario flash-crowd --seeds 10 --report scenario.json
    python -m repro scenario --list

Fault schedules can also be loaded from JSON with ``--faults-file``
(the :meth:`~repro.faults.FaultSchedule.to_dict` layout), mutually
exclusive with the inline ``--crash/--stall/...`` flags.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import sys
import typing
from dataclasses import replace
from functools import partial, reduce
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.bench.cache import ResultCache
from repro.bench.caliper import run_caliper
from repro.bench.harness import compare_fabric_vs_fabricpp
from repro.bench.report import format_table, improvement_factor
from repro.bench.results import ResultSet
from repro.bench.spec import ExperimentSpec
from repro.bench.sweep import run_sweep
from repro.errors import ConfigError, ReproError
from repro.fabric.config import FabricConfig
from repro.faults import CrashWindow, FaultSchedule, StallWindow
from repro.ledger.export import _publish
from repro.traffic import ARRIVAL_KINDS
from repro.validation.registry import strategy_names
from repro.workloads.registry import WorkloadRef


class Flag(NamedTuple):
    """One experiment flag: its spelling, the knob it sets, its help.

    A config row's ``target`` is a :class:`FabricConfig` field path such
    as ``batch.max_transactions``; the flag takes its type, default and
    ``None``-ness from that field's dataclass default. A workload row's
    ``target`` is the parameter every workload in ``workloads`` takes,
    and ``workloads`` maps each of them to the CLI default: the paper's
    Table 6/7 values, which differ from the library's own defaults.
    """

    spelling: str
    target: str
    help: str
    workloads: Optional[Dict[str, object]] = None
    #: Config rows: parse to ``None`` when absent, so that an explicit
    #: value is told apart from "unset" (which keeps the field default).
    default_none: bool = False
    metavar: Optional[str] = None
    #: Allowed values, or a callable returning them when the parser is built.
    choices: Union[Sequence[str], Callable[[], Sequence[str]], None] = None

    @property
    def key(self) -> str:
        """The flag's ``sweep --sweep KEY=...`` axis name."""
        return self.spelling[2:]

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


#: Every experiment flag, declared once. Adding a knob costs its
#: dataclass field plus one row here; the parser, ``SWEEPABLE`` and the
#: args -> config/workload builders all derive from this table.
FLAGS: Tuple[Flag, ...] = (
    # Smallbank (paper Table 6), custom (Table 7) and YCSB knobs.
    Flag("--users", "num_users", "number of users", {"smallbank": 20_000}),
    Flag("--prob-write", "prob_write",
         "probability of a modifying transaction", {"smallbank": 0.95}),
    Flag("--s-value", "s_value",
         "Zipf skew, 0 = uniform (default 0 for smallbank, 0.99 for ycsb)",
         {"smallbank": 0.0, "ycsb": 0.99}),
    Flag("--accounts", "num_accounts", "number of account balances (N)",
         {"custom": 10_000}),
    Flag("--rw", "reads_writes", "reads and writes per transaction",
         {"custom": 8}),
    Flag("--hr", "prob_hot_read", "probability of a hot read", {"custom": 0.40}),
    Flag("--hw", "prob_hot_write", "probability of a hot write",
         {"custom": 0.10}),
    Flag("--hss", "hot_set_fraction", "hot account fraction", {"custom": 0.01}),
    Flag("--ycsb-preset", "preset", "standard core workload mix",
         {"ycsb": "a"}, choices=tuple("abcdef")),
    Flag("--records", "num_records", "number of records", {"ycsb": 10_000}),
    Flag("--hotspot-interval", "hotspot_interval",
         "operations between hot-set rotations per request stream "
         "(0 = static hot set)", {"ycsb": 0}),
    Flag("--hot-set-drift", "hot_set_drift",
         "keyspace fraction the hot set shifts at each rotation",
         {"ycsb": 0.0}),
    # Network knobs.
    Flag("--block-size", "batch.max_transactions",
         "max transactions per block (default 1024)"),
    Flag("--clients", "clients_per_channel", "clients per channel"),
    Flag("--channels", "channels",
         "sharded channels: N>=2 builds N independent channel runtimes "
         "(own orderer, peers, ledger) in one simulation (default 1 = "
         "classic single runtime)"),
    Flag("--cross-channel-fraction", "cross_channel_fraction",
         "fraction of intents fired as two-channel sagas with no atomicity "
         "guarantee; requires --channels >= 2 (default 0)", metavar="F"),
    Flag("--population-accounts", "population.accounts",
         "logical account population with Zipf channel affinity steering "
         "per-channel client load; requires --channels >= 2 (default 0 = "
         "off)", metavar="N"),
    Flag("--population-zipf-s", "population.zipf_s",
         "Zipf skew of the population's channel affinity (0 = uniform; "
         "default 1.0)", metavar="S"),
    Flag("--client-rate", "client_rate", "proposals per second per client"),
    Flag("--policy", "endorsement_policy",
         "endorsement policy: all, any, or outof:K (default: AND over every "
         "org)", metavar="SPEC"),
    Flag("--validation-workers", "validation_workers",
         "modelled signature-verification lanes per peer (default 1 = "
         "serial keeps the assumed worker pool)", metavar="N"),
    Flag("--pipeline-depth", "pipeline_depth",
         "blocks in flight per channel: K>1 overlaps verification of block "
         "n+1 with the commit of block n (default 1)", metavar="K"),
    Flag("--cc-strategy", "cc_strategy",
         "concurrency-control strategy for validation/commit "
         "(repro.validation.registry): serial (default), dependency waves, "
         "lockless OCC, or dependency-aware dataflow execution",
         choices=strategy_names),
    Flag("--orderer-nodes", "orderer_nodes",
         "ordering-service replicas: N>=2 enables the Raft-style replicated "
         "orderer with leader election (default 1 = single orderer)",
         metavar="N"),
    Flag("--traffic", "traffic.kind",
         "client arrival process: closed (default; paced 1/client-rate "
         "loop) or an open-loop shape (poisson, diurnal, flash, heavy_tail)",
         choices=ARRIVAL_KINDS),
    Flag("--arrival-rate", "traffic.rate",
         "open-loop mean arrivals per second per client (default: "
         "--client-rate)", metavar="R"),
    Flag("--orderer-queue-limit", "backpressure.orderer_queue_limit",
         "bound the orderer inbound queue to N transactions; admission "
         "rejects past the bound (default 0 = unbounded)", metavar="N"),
    Flag("--endorse-queue-limit", "backpressure.endorse_queue_limit",
         "bound concurrent endorsements per peer to N; excess proposals are "
         "refused (default 0 = unbounded)", metavar="N"),
    Flag("--delivery-backlog-limit", "backpressure.delivery_backlog_limit",
         "pause block delivery while any peer holds N unvalidated blocks, "
         "propagating validation backpressure to admission (default 0 = "
         "unbounded)", metavar="N"),
    Flag("--streaming-metrics", "streaming_metrics",
         "aggregate metrics online (bounded reservoir percentiles, O(1) "
         "memory in run length) instead of keeping per-transaction lists; "
         "throughput and counts stay exact, percentiles are approximate "
         "(default: off, bit-identical metrics)"),
    # Inline fault flags, mutually exclusive with --faults-file.
    Flag("--drop-rate", "faults.drop_probability",
         "probability that a faulty-link message is lost (default 0)"),
    Flag("--jitter", "faults.jitter_mean",
         "mean exponential extra latency per faulty-link message (seconds, "
         "default 0)"),
    Flag("--endorse-timeout", "faults.endorsement_timeout",
         "client endorsement deadline in simulated seconds (default 0.05 "
         "when any fault flag is set, else disabled)", default_none=True),
    Flag("--endorse-retries", "faults.max_endorsement_retries",
         "endorsement rounds retried with backoff before giving up "
         "(default 3)", default_none=True),
)


def _resolve(flag: Flag) -> Tuple[object, type]:
    """A row's parser default and value type."""
    if flag.workloads is not None:
        defaults = list(flag.workloads.values())
        # A flag shared by several workloads resolves its default per
        # workload, so an explicit value is never mistaken for "unset".
        return (defaults[0] if len(defaults) == 1 else None), type(defaults[0])
    *parents, name = flag.target.split(".")
    owner = reduce(getattr, parents, FabricConfig())
    default = getattr(owner, name)
    if default is None:  # Optional[X]: the type comes from the annotation.
        kind = typing.get_args(typing.get_type_hints(type(owner))[name])[0]
    else:
        kind = type(default)
    return (None if flag.default_none else default), kind


#: (row, parser default, value type) for every table row.
_ROWS = tuple((flag, *_resolve(flag)) for flag in FLAGS)

#: Axes ``sweep --sweep KEY=V1,V2,...`` may vary: CLI key -> (dest, type).
#: Every scalar table row, plus the seed and the firing duration.
SWEEPABLE: Dict[str, Tuple[str, type]] = {
    "seed": ("seed", int),
    "duration": ("duration", float),
    **{flag.key: (flag.dest, kind) for flag, _, kind in _ROWS if kind is not bool},
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fabric++ reproduction: run simulated Fabric experiments.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run one system on one workload"),
        ("compare", "run vanilla Fabric and Fabric++ on identical inputs"),
        ("caliper", "Caliper-style latency/throughput measurement (Table 8)"),
        ("sweep", "run a parameter grid in parallel with result caching"),
        ("profile", "trace both systems and attribute cost per resource"),
    ):
        sub = subcommands.add_parser(name, help=help_text)
        _add_experiment_arguments(sub, with_system=(name == "run"))
        if name == "run":
            sub.add_argument(
                "--export-ledger", metavar="PATH", default=None,
                help="export the reference peer's verified ledger to PATH "
                     "as JSON (multi-channel runs add a .<channel> suffix)",
            )
            sub.add_argument(
                "--checkpoint-every", type=float, default=None, metavar="S",
                help="write a verification checkpoint every S simulated "
                     "seconds (default: no checkpoints; runs are "
                     "byte-identical either way)",
            )
            sub.add_argument(
                "--checkpoint-dir", default=None, metavar="DIR",
                help="directory for checkpoint files (default "
                     ".repro-checkpoints/; requires --checkpoint-every)",
            )
            sub.add_argument(
                "--checkpoint-keep", type=int, default=None, metavar="N",
                help="retain only the newest N checkpoint files (requires "
                     "--checkpoint-every)",
            )
            sub.add_argument(
                "--resume-from", default=None, metavar="PATH",
                help="resume a killed run from a checkpoint file or "
                     "directory (replays deterministically to the "
                     "checkpoint, verifies its digests, then continues); "
                     "workload/config flags are ignored — the run is "
                     "rebuilt from the spec embedded in the checkpoint",
            )
            sub.add_argument(
                "--prune", action="store_true",
                help="at each checkpoint boundary, fold blocks below the "
                     "fleet-safe height into a verifiable continuity "
                     "record (requires --checkpoint-every)",
            )
        if name in ("run", "profile"):
            sub.add_argument(
                "--trace", metavar="PATH", default=None,
                help="write a Chrome trace-event JSON file to PATH "
                     "(open in Perfetto or chrome://tracing)"
                     + (" — profile adds a .<system> suffix per system"
                        if name == "profile" else ""),
            )
            sub.add_argument(
                "--trace-ring", type=int, default=None, metavar="N",
                help="span ring-buffer capacity (default 65536); when the "
                     "ring overflows, oldest spans are dropped and the "
                     "drop count is reported"
                     + (" (requires --trace)" if name == "run" else ""),
            )
        sub.add_argument(
            "--duration", type=float, default=3.0,
            help="simulated seconds to fire the workload (default 3)",
        )
        sub.add_argument(
            "--drain", type=float, default=3.0,
            help="extra simulated seconds after firing stops so in-flight "
                 "transactions resolve (default 3)",
        )
        sub.add_argument(
            "--json", metavar="PATH", default=None,
            help="also save the full results to PATH as JSON "
                 "(reload with ResultSet.from_json)",
        )
        if name == "caliper":
            sub.add_argument(
                "--rate", type=float, default=150.0,
                help="proposals per second per client (default 150)",
            )
        if name == "sweep":
            sub.add_argument(
                "--sweep", action="append", metavar="KEY=V1,V2,...",
                default=None,
                help="sweep one axis over comma-separated values; repeatable "
                     f"(keys: {', '.join(sorted(SWEEPABLE))})",
            )
            sub.add_argument(
                "--systems", default="fabric,fabric++",
                help="comma-separated systems to run per grid point "
                     "(default: fabric,fabric++)",
            )
            sub.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes (0 = one per CPU; default 1)",
            )
            sub.add_argument(
                "--no-cache", action="store_true",
                help="disable the on-disk result cache",
            )
            sub.add_argument(
                "--cache-dir", default=None,
                help="result cache directory (default .repro-cache/, or "
                     "$REPRO_CACHE_DIR)",
            )

    verify = subcommands.add_parser(
        "verify-ledger",
        help="verify the hash chain of an exported ledger file",
    )
    verify.add_argument("path", help="ledger JSON written by repro.ledger.export")

    chaos = subcommands.add_parser(
        "chaos",
        help="randomized fault schedules with consensus invariant checks",
    )
    chaos.add_argument(
        "--duration", type=float, default=1.5,
        help="simulated seconds to fire the workload per run (default 1.5)",
    )
    chaos.add_argument(
        "--drain", type=float, default=4.0,
        help="extra simulated seconds so failovers settle (default 4)",
    )
    chaos.add_argument(
        "--orderer-nodes", type=int, default=3,
        help="ordering-service replicas under test (default 3)",
    )

    scenario = subcommands.add_parser(
        "scenario",
        help="named overload scenarios with consensus invariant checks",
    )
    scenario.add_argument(
        "name", nargs="?", default=None,
        help="scenario to run (default: every registered scenario); "
             "see --list",
    )
    scenario.add_argument(
        "--list", action="store_true",
        help="list the registered scenarios and exit",
    )

    for sub, seeds, what in (
        (chaos, 20, "chaos seeds to run"),
        (scenario, 10, "seeds to run per scenario"),
    ):
        sub.add_argument(
            "--seeds", type=int, default=seeds,
            help=f"number of {what} (default {seeds})",
        )
        sub.add_argument(
            "--seed-base", type=int, default=0,
            help="first seed; seeds run [base, base+seeds) (default 0)",
        )
        sub.add_argument(
            "--system", choices=("fabric", "fabric++"), default="fabric",
            help="pipeline variant to stress (default fabric)",
        )
        sub.add_argument(
            "--report", metavar="PATH", default=None,
            help="write the full invariant report to PATH as JSON",
        )
    return parser


def _add_experiment_arguments(
    sub: argparse.ArgumentParser, with_system: bool
) -> None:
    """The hand-written input flags, then one argument per table row."""
    sub.add_argument(
        "--workload", choices=("smallbank", "custom", "blank", "ycsb"),
        default="smallbank",
    )
    sub.add_argument("--seed", type=int, default=42)
    if with_system:
        sub.add_argument(
            "--system", choices=("fabric", "fabric++"), default="fabric",
        )
    sub.add_argument("--max-resubmits", type=int, default=None, metavar="N",
                     help="cap on resubmissions per failed business intent; "
                          "negative = retry forever (default 16)")
    sub.add_argument(
        "--faults-file", metavar="PATH", default=None,
        help="load a complete fault schedule from a JSON file (the "
             "FaultSchedule.to_dict layout); mutually exclusive with the "
             "inline fault flags (--crash, --stall, --drop-rate, --jitter, "
             "--endorse-timeout, --endorse-retries)",
    )
    sub.add_argument(
        "--crash", action="append", default=None, metavar="PEER@AT+DUR",
        help="crash PEER at simulated second AT for DUR seconds, e.g. "
             "peer1.OrgA@0.5+1.0; repeatable",
    )
    sub.add_argument(
        "--stall", action="append", default=None, metavar="AT+DUR",
        help="stall the ordering service at AT for DUR seconds; repeatable",
    )
    for flag, default, kind in _ROWS:
        help_text = (
            flag.help if flag.workloads is None
            else f"{'/'.join(flag.workloads)}: {flag.help}"
        )
        if kind is bool:
            sub.add_argument(flag.spelling, action="store_true", help=help_text)
            continue
        choices = flag.choices() if callable(flag.choices) else flag.choices
        sub.add_argument(
            flag.spelling, type=kind, default=default, choices=choices,
            metavar=flag.metavar, help=help_text,
        )


def _parse_crash_window(text: str) -> CrashWindow:
    peer, at_sep, rest = text.partition("@")
    at_text, dur_sep, dur_text = rest.partition("+")
    if not (peer.strip() and at_sep and dur_sep):
        raise ConfigError(f"bad --crash {text!r}: expected PEER@AT+DUR")
    try:
        return CrashWindow(
            peer=peer.strip(), at=float(at_text), duration=float(dur_text)
        )
    except ValueError as error:
        raise ConfigError(f"bad --crash {text!r}: {error}") from error


def _parse_stall_window(text: str) -> StallWindow:
    at_text, separator, dur_text = text.partition("+")
    if not separator:
        raise ConfigError(f"bad --stall {text!r}: expected AT+DUR")
    try:
        return StallWindow(at=float(at_text), duration=float(dur_text))
    except ValueError as error:
        raise ConfigError(f"bad --stall {text!r}: {error}") from error


def _load_faults_file(path: str) -> FaultSchedule:
    """Parse a JSON fault schedule written in the ``to_dict`` layout."""
    import json

    from repro.faults import schedule_from_dict

    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read --faults-file {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigError(f"bad JSON in --faults-file {path!r}: {error}") from error
    if not isinstance(data, dict):
        raise ConfigError(
            f"bad --faults-file {path!r}: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    try:
        schedule = schedule_from_dict(data)
    except (ConfigError, TypeError) as error:
        raise ConfigError(f"bad --faults-file {path!r}: {error}") from error
    if (
        "endorsement_timeout" not in data
        and not schedule.is_zero
        and not schedule.endorsement_timeout
    ):
        # Same default as the inline flags: any injected fault needs a
        # client-side deadline to stay live.
        schedule = replace(schedule, endorsement_timeout=0.05)
    return schedule


def _given(args: argparse.Namespace) -> List[Tuple[Flag, object]]:
    """Each config row the arguments set away from its parser default."""
    return [
        (flag, value)
        for flag, default, _ in _ROWS
        if flag.workloads is None
        and (value := getattr(args, flag.dest, default)) != default
    ]


def _replaced(obj, given: Dict[str, object]):
    """``obj`` with every dotted field path in ``given`` replaced."""
    nested: Dict[str, Dict[str, object]] = {}
    changes: Dict[str, object] = {}
    for path, value in given.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            changes[head] = value
    for head, inner in nested.items():
        changes[head] = _replaced(getattr(obj, head), inner)
    return replace(obj, **changes)


def faults_from_args(args: argparse.Namespace) -> FaultSchedule:
    """Build the fault schedule the arguments describe (all-zero default)."""
    crashes = tuple(
        _parse_crash_window(text) for text in getattr(args, "crash", None) or []
    )
    stalls = tuple(
        _parse_stall_window(text) for text in getattr(args, "stall", None) or []
    )
    inline = [
        (flag, value) for flag, value in _given(args)
        if flag.target.startswith("faults.")
    ]
    faults_file = getattr(args, "faults_file", None)
    if faults_file:
        named = [
            name for name, windows in (("--crash", crashes), ("--stall", stalls))
            if windows
        ] + [flag.spelling for flag, _ in inline]
        if named:
            raise ConfigError(
                "--faults-file cannot be combined with inline fault flags "
                f"({', '.join(named)})"
            )
        return _load_faults_file(faults_file)
    schedule = _replaced(
        FaultSchedule(crashes=crashes, stalls=stalls),
        {flag.target.partition(".")[2]: value for flag, value in inline},
    )
    if getattr(args, "endorse_timeout", None) is None and (
        crashes or stalls or schedule.drop_probability or schedule.jitter_mean
    ):
        # Any injected fault needs a client-side deadline to stay live.
        schedule = replace(schedule, endorsement_timeout=0.05)
    return schedule


def workload_ref_from_args(args: argparse.Namespace) -> WorkloadRef:
    """Build the picklable workload reference the arguments describe."""
    params = {}
    for flag in FLAGS:
        if flag.workloads is not None and args.workload in flag.workloads:
            value = getattr(args, flag.dest, None)
            params[flag.target] = (
                flag.workloads[args.workload] if value is None else value
            )
    if not params:
        # A workload without parameters (blank) draws nothing at random.
        return WorkloadRef(args.workload)
    return WorkloadRef(args.workload, params, seed=args.seed)


def config_from_args(args: argparse.Namespace) -> FabricConfig:
    """Build the network configuration the arguments describe."""
    # The fault rows are applied here too, but faults_from_args owns the
    # schedule: it adds --crash/--stall windows and the derived deadline,
    # or loads --faults-file.
    config = replace(
        _replaced(FabricConfig(), {flag.target: value for flag, value in _given(args)}),
        seed=args.seed,
        faults=faults_from_args(args),
    )
    if config.traffic.is_closed and config.traffic.rate is not None:
        raise ConfigError("--arrival-rate needs an open-loop --traffic shape")
    max_resubmits = getattr(args, "max_resubmits", None)
    if max_resubmits is not None:
        config = replace(
            config,
            max_resubmits=None if max_resubmits < 0 else max_resubmits,
        )
    if getattr(args, "system", "fabric") == "fabric++":
        config = config.with_fabric_plus_plus()
    faults_file = getattr(args, "faults_file", None)
    if faults_file:
        # Fail fast at argument-parsing time: a schedule loaded from a
        # file is validated against the full topology here, so a typo'd
        # peer name surfaces with the file path before any network (or
        # sweep worker) is constructed.
        try:
            config.validate()
        except ConfigError as error:
            raise ConfigError(f"--faults-file {faults_file!r}: {error}") from error
    return config


def _tracer_from_args(args: argparse.Namespace):
    """Build the run's tracer, honouring ``--trace-ring`` (or None)."""
    ring = getattr(args, "trace_ring", None)
    if not getattr(args, "trace", None):
        if ring is not None:
            raise ConfigError("--trace-ring requires --trace")
        return None
    from repro.trace import Tracer

    return Tracer() if ring is None else Tracer(capacity=ring)


def _warn_dropped_spans(tracer) -> None:
    """Surface span-ring evictions so a truncated trace is never silent."""
    if tracer is not None and tracer.buffer.dropped:
        print(
            f"warning: trace ring overflowed — {tracer.buffer.dropped} "
            f"oldest spans dropped (capacity {tracer.buffer.capacity}; "
            "raise with --trace-ring)",
            file=sys.stderr,
        )


#: Default directory for ``run --checkpoint-every`` files.
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"


def command_run(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_experiment_with_network

    tracer = _tracer_from_args(args)
    checkpointer = None
    if getattr(args, "resume_from", None):
        from repro.checkpoint import load_latest_checkpoint, resume_run

        checkpoint = load_latest_checkpoint(args.resume_from)
        print(
            f"resuming {checkpoint['label']} from checkpoint "
            f"{checkpoint['index']} (t={checkpoint['time']}): replaying "
            "deterministically and verifying digests..."
        )
        result, network, checkpointer = resume_run(args.resume_from, tracer=tracer)
        print("checkpoint digests verified; run completed\n")
    else:
        if not getattr(args, "checkpoint_every", None):
            for name, value in (
                ("--prune", getattr(args, "prune", False) or None),
                ("--checkpoint-dir", getattr(args, "checkpoint_dir", None)),
                ("--checkpoint-keep", getattr(args, "checkpoint_keep", None)),
            ):
                if value is not None:
                    raise ConfigError(f"{name} requires --checkpoint-every")
        spec = ExperimentSpec(
            config=config_from_args(args),
            workload=workload_ref_from_args(args),
            duration=args.duration,
            drain=args.drain,
        )
        if getattr(args, "checkpoint_every", None):
            from repro.checkpoint import CheckpointOptions, run_with_checkpoints

            directory = args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR
            options = CheckpointOptions(
                every=args.checkpoint_every,
                directory=directory,
                prune=args.prune,
                keep=getattr(args, "checkpoint_keep", None),
            )
            result, network, checkpointer = run_with_checkpoints(
                spec, options, tracer=tracer
            )
            print(
                f"wrote {len(checkpointer.checkpoints)} checkpoints "
                f"to {directory}\n"
            )
        else:
            result, network = run_experiment_with_network(spec, tracer=tracer)
    print(format_table([result.row()], title=f"{result.label} / {args.workload}"))
    fleet = result.metrics.channels
    if fleet is not None:
        print()
        print(format_table(fleet.per_channel, title="per-channel breakdown"))
        saga = fleet.saga
        if saga.started:
            print(
                f"\nsagas: {saga.started} started, {saga.committed} committed, "
                f"{saga.half_committed} half-committed, {saga.aborted} aborted"
            )
    if result.metrics.fault_events:
        print("\nfault events:")
        for time, kind, subject in result.metrics.fault_events:
            print(f"  t={time:8.3f}s  {kind:<17s} {subject}")
    if tracer is not None:
        from repro.trace import write_chrome_trace

        write_chrome_trace(args.trace, tracer)
        print(f"\nwrote Chrome trace ({len(tracer.spans())} spans) to {args.trace}")
        _warn_dropped_spans(tracer)
        print()
        print(tracer.breakdown.table(title=f"{result.label} cost attribution"))
    if args.export_ledger:
        from repro.ledger.export import save_ledger

        total = sum(len(runtime.channels) for runtime in network.runtimes)
        for runtime in network.runtimes:
            for channel in runtime.channels:
                path = (
                    args.export_ledger
                    if total == 1
                    else f"{args.export_ledger}.{channel}"
                )
                save_ledger(
                    path, runtime.reference_peer.channels[channel].ledger
                )
                print(f"\nexported {channel} ledger to {path}")
    _maybe_save(args, ResultSet([result]))
    return 0


def command_compare(args: argparse.Namespace) -> int:
    results = compare_fabric_vs_fabricpp(
        config_from_args(args),
        workload_ref_from_args(args),
        duration=args.duration,
        drain=args.drain,
    )
    print(format_table(results.rows(), title=f"Fabric vs Fabric++ / {args.workload}"))
    factor = results.improvement_factor()
    print(f"\nFabric++ successful-throughput improvement: {factor:.2f}x")
    _maybe_save(args, results)
    return 0


def command_caliper(args: argparse.Namespace) -> int:
    rows = []
    for label in ("fabric", "fabric++"):
        args.system = label
        config = config_from_args(args)
        report = run_caliper(
            config,
            workload_ref_from_args(args),
            duration=args.duration,
            rate_per_client=args.rate,
            block_size=min(args.block_size, 512),
        )
        rows.append(
            {
                "system": report.label,
                "max_latency": report.max_latency,
                "min_latency": report.min_latency,
                "avg_latency": report.avg_latency,
                "successful_tps": report.successful_tps,
            }
        )
    print(format_table(rows, title="Caliper report"))
    return 0


def _parse_sweep_axes(args: argparse.Namespace) -> List[tuple]:
    """Parse ``--sweep KEY=V1,V2`` options into (key, dest, values) axes."""
    axes: List[tuple] = []
    for text in args.sweep or []:
        key, separator, values_text = text.partition("=")
        key = key.strip()
        if not separator or key not in SWEEPABLE:
            known = ", ".join(sorted(SWEEPABLE))
            raise ValueError(
                f"bad --sweep {text!r}: expected KEY=V1,V2,... with KEY one of {known}"
            )
        dest, caster = SWEEPABLE[key]
        try:
            values = [caster(value) for value in values_text.split(",") if value]
        except ValueError as error:
            raise ValueError(f"bad --sweep {text!r}: {error}") from error
        if not values:
            raise ValueError(f"bad --sweep {text!r}: no values")
        axes.append((key, dest, values))
    return axes


def command_sweep(args: argparse.Namespace) -> int:
    try:
        axes = _parse_sweep_axes(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    systems = [name.strip() for name in args.systems.split(",") if name.strip()]
    for system in systems:
        if system not in ("fabric", "fabric++"):
            print(f"error: unknown system {system!r}", file=sys.stderr)
            return 2
    if not systems:
        print("error: --systems selected nothing", file=sys.stderr)
        return 2

    specs = []
    value_axes = [axis[2] for axis in axes]
    for combo in itertools.product(*value_axes):
        point = copy.copy(args)
        point_params = {}
        for (key, dest, _), value in zip(axes, combo):
            setattr(point, dest, value)
            point_params[key] = value
        for system in systems:
            point.system = system
            specs.append(
                ExperimentSpec(
                    config=config_from_args(point),
                    workload=workload_ref_from_args(point),
                    duration=point.duration,
                    drain=point.drain,
                    label="Fabric++" if system == "fabric++" else "Fabric",
                    params=dict(point_params),
                )
            )

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    results = run_sweep(specs, jobs=args.jobs, cache=cache)
    stats = results.stats

    print(format_table(results.rows(), title=f"sweep / {args.workload}"))
    if set(systems) == {"fabric", "fabric++"}:
        print()
        print(_sweep_factor_table(results, group_size=len(systems)))
    if stats is not None:
        print(f"\n{stats.summary_line()}")
    _maybe_save(args, results)
    return 0


def _sweep_factor_table(results, group_size: int) -> str:
    """Per-grid-point Fabric vs Fabric++ successful-TPS factors."""
    rows = []
    ordered = results.values()
    for start in range(0, len(ordered), group_size):
        group = {result.label: result for result in ordered[start:start + group_size]}
        fabric = group.get("Fabric")
        fabricpp = group.get("Fabric++")
        if fabric is None or fabricpp is None:
            continue
        rows.append(
            {
                **fabric.params,
                "Fabric": fabric.successful_tps,
                "Fabric++": fabricpp.successful_tps,
                "factor": improvement_factor(
                    fabric.successful_tps, fabricpp.successful_tps
                ),
            }
        )
    return format_table(rows, title="Fabric++ improvement per grid point")


def command_profile(args: argparse.Namespace) -> int:
    """Trace vanilla Fabric and Fabric++ and print the cost attribution.

    The paper's Figure 1 motivates Fabric++ by decomposing where the
    pipeline spends its time; this subcommand reproduces that view for
    both systems on identical inputs. With ``--trace PATH`` each system's
    Chrome trace is written to ``PATH.<system>``.
    """
    from repro.bench.harness import run_experiment_with_network
    from repro.trace import Tracer, write_chrome_trace

    base_config = config_from_args(args)
    workload_ref = workload_ref_from_args(args)
    rows = []
    ring = getattr(args, "trace_ring", None)
    for system, config in (
        ("fabric", base_config.with_vanilla()),
        ("fabric++", base_config.with_fabric_plus_plus()),
    ):
        tracer = Tracer() if ring is None else Tracer(capacity=ring)
        spec = ExperimentSpec(
            config=config,
            workload=workload_ref,
            duration=args.duration,
            drain=args.drain,
        )
        result, _network = run_experiment_with_network(spec, tracer=tracer)
        print(tracer.breakdown.table(title=f"{result.label} cost attribution"))
        print()
        if args.trace:
            path = f"{args.trace}.{system.replace('+', 'p')}"
            write_chrome_trace(path, tracer)
            print(f"wrote {result.label} Chrome trace "
                  f"({len(tracer.spans())} spans) to {path}")
            print()
        _warn_dropped_spans(tracer)
        rows.append(
            {
                "system": result.label,
                "successful_tps": result.successful_tps,
                "crypto_network_share": (
                    f"{tracer.breakdown.crypto_network_share() * 100.0:.1f}%"
                ),
                "traced_seconds": round(tracer.breakdown.total_seconds, 3),
                "spans_dropped": tracer.buffer.dropped,
            }
        )
    print(format_table(rows, title="profile summary"))
    return 0


def command_chaos(args: argparse.Namespace) -> int:
    """Run randomized fault schedules and check consensus invariants."""
    from repro.chaos import run_chaos

    run = partial(
        run_chaos,
        duration=args.duration,
        drain=args.drain,
        orderer_nodes=args.orderer_nodes,
        fabric_plus_plus=(args.system == "fabric++"),
    )

    def columns(report) -> str:
        return (
            f"committed={report.committed:>5d}  blocks={report.blocks:>3d}  "
            f"leader_changes={report.leader_changes}  "
            f"reproposed={report.txs_reproposed}  "
            f"dropped={report.messages_dropped}  "
            f"faults={len(report.faults)}"
        )

    return _invariant_runs(
        "chaos", args, [("", run)], columns,
        {"orderer_nodes": args.orderer_nodes},
    )


def command_scenario(args: argparse.Namespace) -> int:
    """Run named overload scenarios and check consensus invariants."""
    from repro.scenarios import get_scenario, run_scenario, scenario_names

    if args.list:
        for name in scenario_names():
            print(f"{name:<22s} {get_scenario(name).description}")
        return 0
    names = [args.name] if args.name else scenario_names()
    for name in names:
        get_scenario(name)  # fail fast on a typo, before any simulation

    def columns(report) -> str:
        return (
            f"fired={report.fired:>5d}  committed={report.committed:>5d}  "
            f"shed={report.shed:>5d}  retries={report.client_retries:>5d}  "
            f"blocks={report.blocks:>3d}"
        )

    runs = [
        (f"{name:<22s} ", partial(run_scenario, name, system=args.system))
        for name in names
    ]
    return _invariant_runs("scenario", args, runs, columns, {"scenarios": names})


def _invariant_runs(
    kind: str,
    args: argparse.Namespace,
    runs: Sequence[Tuple[str, Callable[[int], object]]],
    columns: Callable[[object], str],
    header: Dict[str, object],
) -> int:
    """The seed loop of ``chaos`` and ``scenario``: run every seed of
    every ``(line prefix, seed -> report)`` pair in ``runs``, print one
    verdict line per run (its kind's ``columns`` after the status) and
    any violations, then :func:`_finish_invariant_runs`."""
    reports = []
    for prefix, run in runs:
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            report = run(seed)
            reports.append(report)
            status = "PASS" if report.passed else "FAIL"
            print(f"{prefix}seed {report.seed:>4d}  {status}  {columns(report)}")
            for line in report.details:
                print(f"           {line}")
    return _finish_invariant_runs(kind, args, reports, header)


def _finish_invariant_runs(
    kind: str, args: argparse.Namespace, reports, header: Dict[str, object]
) -> int:
    """The shared tail of ``chaos`` and ``scenario``: print the verdict,
    publish the ``--report`` artifact, and pick the exit code."""
    from repro.chaos import INVARIANT_NAMES

    passed = sum(1 for report in reports if report.passed)
    print(
        f"\n{kind}: {passed}/{len(reports)} seeds passed all "
        f"{len(INVARIANT_NAMES)} invariants + liveness"
    )
    if args.report:
        import json

        payload = {
            **header,
            "seeds": args.seeds,
            "seed_base": args.seed_base,
            "system": args.system,
            "passed": passed,
            "failed": len(reports) - passed,
            "runs": [report.to_dict() for report in reports],
        }
        _publish(args.report, json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote invariant report to {args.report}")
    return 0 if passed == len(reports) else 1


def command_verify_ledger(args: argparse.Namespace) -> int:
    from repro.errors import LedgerVerificationError
    from repro.ledger.export import load_ledger

    try:
        ledger = load_ledger(args.path)
    except LedgerVerificationError as error:
        where = (
            f" at block index {error.block_index}"
            if error.block_index is not None
            else ""
        )
        print(f"INVALID{where}: {error}")
        return 1
    transactions, valid = ledger.transaction_counts()
    pruned_note = ""
    if ledger.continuity is not None:
        record = ledger.continuity
        pruned_note = (
            f" ({record.blocks} blocks below height {ledger.first_block_id} "
            "compacted into a verified continuity record)"
        )
    print(f"OK: {ledger.height} blocks, {transactions} transactions "
          f"({valid} valid), chain intact{pruned_note}")
    return 0


def _maybe_save(args: argparse.Namespace, results: ResultSet) -> None:
    """Persist results when --json was given."""
    path = getattr(args, "json", None)
    if not path:
        return
    _publish(path, results.to_json())
    print(f"\nsaved {len(results)} result(s) to {path}")


COMMANDS = {
    "run": command_run,
    "compare": command_compare,
    "caliper": command_caliper,
    "sweep": command_sweep,
    "profile": command_profile,
    "verify-ledger": command_verify_ledger,
    "chaos": command_chaos,
    "scenario": command_scenario,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
