"""Equivalence pins for the experiment flags of the CLI.

Every argv below is hashed over exactly what decides a run's numbers —
the full :class:`FabricConfig` and the workload reference — so a change
to how flags reach the config (parser, sweep axes, args → config) must
leave every literal equal or say which one moved and why. The parser
surface pin holds each option string's ``(dest, default)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import reduce
from pathlib import Path

import pytest

from repro import cli
from repro.bench.results import config_to_dict
from repro.cli import (
    FLAGS,
    SWEEPABLE,
    Flag,
    build_parser,
    config_from_args,
    main,
    workload_ref_from_args,
)

EXPERIMENT_SUBCOMMANDS = ("run", "compare", "caliper", "sweep", "profile")
WORKLOADS = ("smallbank", "custom", "blank", "ycsb")


def _flag_cells():
    """One non-default value per experiment flag (plus hand-written ones)."""
    cells = {
        "block-size": ["--block-size", "256"],
        "clients": ["--clients", "2"],
        "channels": ["--channels", "3"],
        "cross-channel-fraction": ["--cross-channel-fraction", "0.25"],
        "population-accounts": ["--population-accounts", "1000"],
        "population-zipf-s": ["--population-zipf-s", "0.5"],
        "client-rate": ["--client-rate", "100"],
        "policy": ["--policy", "outof:1"],
        "validation-workers": ["--validation-workers", "4"],
        "pipeline-depth": ["--pipeline-depth", "2"],
        "cc-strategy": ["--cc-strategy", "lockless"],
        "orderer-nodes": ["--orderer-nodes", "3"],
        "traffic": ["--traffic", "poisson"],
        "arrival-rate": ["--traffic", "poisson", "--arrival-rate", "100"],
        "orderer-queue-limit": ["--orderer-queue-limit", "64"],
        "endorse-queue-limit": ["--endorse-queue-limit", "8"],
        "delivery-backlog-limit": ["--delivery-backlog-limit", "2"],
        "streaming-metrics": ["--streaming-metrics"],
        "drop-rate": ["--drop-rate", "0.05"],
        "jitter": ["--jitter", "0.002"],
        "endorse-timeout": ["--endorse-timeout", "0.1"],
        "endorse-retries": ["--endorse-retries", "5"],
        "users": ["--workload", "smallbank", "--users", "500"],
        "prob-write": ["--workload", "smallbank", "--prob-write", "0.5"],
        "s-value/smallbank": ["--workload", "smallbank", "--s-value", "1.2"],
        "s-value/ycsb": ["--workload", "ycsb", "--s-value", "1.2"],
        "s-value=0/ycsb": ["--workload", "ycsb", "--s-value", "0"],
        "accounts": ["--workload", "custom", "--accounts", "2000"],
        "rw": ["--workload", "custom", "--rw", "4"],
        "hr": ["--workload", "custom", "--hr", "0.2"],
        "hw": ["--workload", "custom", "--hw", "0.05"],
        "hss": ["--workload", "custom", "--hss", "0.02"],
        "ycsb-preset": ["--workload", "ycsb", "--ycsb-preset", "b"],
        "records": ["--workload", "ycsb", "--records", "500"],
        "hotspot-interval": ["--workload", "ycsb", "--hotspot-interval", "100"],
        "hot-set-drift": ["--workload", "ycsb", "--hot-set-drift", "0.1"],
        # Hand-written input handling, pinned alongside the table flags.
        "seed": ["--seed", "7"],
        "system": ["--system", "fabric++"],
        "crash": ["--crash", "peer1.OrgA@0.5+0.7"],
        "stall": ["--stall", "1.5+0.3"],
    }
    return {f"run {label}": ["run", *argv] for label, argv in cells.items()}


#: label -> argv; every experiment subcommand x workload at defaults,
#: then each flag at one non-default value.
ARGV_GRID = {
    **{
        f"{sub} --workload {workload}": [sub, "--workload", workload]
        for sub in EXPERIMENT_SUBCOMMANDS
        for workload in WORKLOADS
    },
    **_flag_cells(),
}

#: sha256 of each ARGV_GRID entry's config + workload description.
ARGV_HASHES = {
    "run --workload smallbank":
        "9b90a450f47ee026f30b2007d1279dcb6abc81a466469eb4d8e8498b3ba1eae7",
    "run --workload custom":
        "f5699b0904ac68003bd89ffeb61e4d2934be38bc8dd950cd26a6137eacdfafc0",
    "run --workload blank":
        "9e40635e07985e2586ae2a523c074a482d3c817a42ad08574979434c81aeabcc",
    "run --workload ycsb":
        "10f1a8b3dbc215c896d03168a15754a224ced2f7aa150946aa5bcccddca574a7",
    "compare --workload smallbank":
        "9b90a450f47ee026f30b2007d1279dcb6abc81a466469eb4d8e8498b3ba1eae7",
    "compare --workload custom":
        "f5699b0904ac68003bd89ffeb61e4d2934be38bc8dd950cd26a6137eacdfafc0",
    "compare --workload blank":
        "9e40635e07985e2586ae2a523c074a482d3c817a42ad08574979434c81aeabcc",
    "compare --workload ycsb":
        "10f1a8b3dbc215c896d03168a15754a224ced2f7aa150946aa5bcccddca574a7",
    "caliper --workload smallbank":
        "9b90a450f47ee026f30b2007d1279dcb6abc81a466469eb4d8e8498b3ba1eae7",
    "caliper --workload custom":
        "f5699b0904ac68003bd89ffeb61e4d2934be38bc8dd950cd26a6137eacdfafc0",
    "caliper --workload blank":
        "9e40635e07985e2586ae2a523c074a482d3c817a42ad08574979434c81aeabcc",
    "caliper --workload ycsb":
        "10f1a8b3dbc215c896d03168a15754a224ced2f7aa150946aa5bcccddca574a7",
    "sweep --workload smallbank":
        "9b90a450f47ee026f30b2007d1279dcb6abc81a466469eb4d8e8498b3ba1eae7",
    "sweep --workload custom":
        "f5699b0904ac68003bd89ffeb61e4d2934be38bc8dd950cd26a6137eacdfafc0",
    "sweep --workload blank":
        "9e40635e07985e2586ae2a523c074a482d3c817a42ad08574979434c81aeabcc",
    "sweep --workload ycsb":
        "10f1a8b3dbc215c896d03168a15754a224ced2f7aa150946aa5bcccddca574a7",
    "profile --workload smallbank":
        "9b90a450f47ee026f30b2007d1279dcb6abc81a466469eb4d8e8498b3ba1eae7",
    "profile --workload custom":
        "f5699b0904ac68003bd89ffeb61e4d2934be38bc8dd950cd26a6137eacdfafc0",
    "profile --workload blank":
        "9e40635e07985e2586ae2a523c074a482d3c817a42ad08574979434c81aeabcc",
    "profile --workload ycsb":
        "10f1a8b3dbc215c896d03168a15754a224ced2f7aa150946aa5bcccddca574a7",
    "run block-size":
        "8b1410eec9423b3a128dceaca367f9d6d9c2105ad24dc04b75598de3c440a9e9",
    "run clients":
        "b7346fdd4a71d9aa20d302a05abd36070671c3b9c8effedf8b046ec8ace52467",
    "run channels":
        "a88cb3a7cd21ad9f31bc542a7688a96432ddfc1d49cca100f40342fd41ae64e2",
    "run cross-channel-fraction":
        "7c17835a2ddad63e1f5c81b29a0b6626d0ff2907565a03514f1449685d517741",
    "run population-accounts":
        "73ee0d5f1b4f4135ead6fcf247ee935246fdb029ce8a3e250f8261d3e2dc02fa",
    "run population-zipf-s":
        "7f294b0b550ec5366450c044fe7bfbf871aaa917aeed58f6ca45a49ffb5137ff",
    "run client-rate":
        "ba5749d3cf54442441e41a2c457f9ee4a0e1baccf55aa9f16672fee4be9b0515",
    "run policy":
        "8928e0f74f9f432abd6827d729f404d06eaac1aed98c8e468b9bf089313bbb36",
    "run validation-workers":
        "9e1b831dbf94d9f74f5143278e3330645c5c29e2840106e568a41aa0cdefd9fb",
    "run pipeline-depth":
        "7bc52b611aeef171835cecf903e7614526fa53718c8bb19671b8ae635fdce6a4",
    "run cc-strategy":
        "20ae3df02a0087812262d95030c48720639061936ca103a9d67ea26414fc900e",
    "run orderer-nodes":
        "4442ea55302b266ee5ed9cdfd9603a6bb1f06683fd63410e431373fa7f53e812",
    "run traffic":
        "f213c1cb223cb0fe7f4bdd7295664967e49b6a618df6ced7d5ce97f781b846cd",
    "run arrival-rate":
        "844132778468b28b712bd4e2510a925d73c4da40983ea133677e2523fdf99ebd",
    "run orderer-queue-limit":
        "1dd343b0cae504ef4e08bf692b8e2e40dea329811113a8ed55ea1470732d6eeb",
    "run endorse-queue-limit":
        "c9a56a0558a8ba13ef6b1a86bc16d943c759161b57f6f94aa2a0d6d65e1ecd3e",
    "run delivery-backlog-limit":
        "9f3b160bf217f9f736e4a9409a2f324c7c1276212ccffcd0750f0e985ffc5e4d",
    "run streaming-metrics":
        "1ca37a286cfea77327717a78794bc3a972dfadab1cad0793a388d71a7b30ec61",
    "run drop-rate":
        "5fed9a9cfdd700093e6136b1baad437ae5a90bb09a0a1d440c370abad4fdd8bb",
    "run jitter":
        "7c705ac67ae744ff01a3bc653c10330dc0935bd22d7de297aabe63233b1df8fc",
    "run endorse-timeout":
        "f74e6376e07969bb572a960146d215d311f3298b5fd26fe1db87021ee9bd3cc6",
    "run endorse-retries":
        "2b224799ec8eac6db01b994c4ae8e89fc4beac61adad32316e306d8f986bbb55",
    "run users":
        "0fd5f168085a5ce61ab71b185ed367e23f740c5e1446e2d50b1f0cb3f905dad4",
    "run prob-write":
        "8a479bfacf26d128320239bde7ccc9c7a0a93fd1e86f02e58d3f13b20b9548c4",
    "run s-value/smallbank":
        "cc04cfb99cd15d69ea5e8a5df37521d92ed1b1e708a290c114ea1b0d04e802c1",
    "run s-value/ycsb":
        "3e2da190eab9b512f72247338c0787732dc76d6ea9937236e670f53cb546103d",
    # Moved on purpose: the parser used to run an explicit 0 at 0.99
    # (29d9135d..., the same hash as "run --workload ycsb").
    "run s-value=0/ycsb":
        "e5ef7106d1c9f7f6a9472b0d9a1d1f3b12b172babb7b71f0e22d2e88f096ae42",
    "run accounts":
        "7e429220a5ca8d7325f90cb29fda156b538cedb60ba838503330c75731852d9b",
    "run rw":
        "766abb06da1a0dba828b00e342fa11365ea6dc95964ab398409dd4c95a6b4753",
    "run hr":
        "2fc0bd804c6bb6261db182121158240bac35a2f1f351b1c61e2f721d6885e163",
    "run hw":
        "23212371f40e2c08a5bf72c5d6672f49465cdf3520da9350ee4f17d4ae5bf795",
    "run hss":
        "1bf9cb6e4f2e5191a011cd41d9376c946aedcd2fa78ed09e5c4301ac7656af77",
    "run ycsb-preset":
        "c8bcf37396ca98a9a28590e3fa49367f952ae7afec68c7d1f99422e8cd0f8be1",
    "run records":
        "5364b403ccc4ece3f08f6f43248cdc5c031836eddb5463da208f468241085f60",
    "run hotspot-interval":
        "ededb9962ebd0441e933c5a9f10bcf802ea63c63042180350b62f1143dace4dd",
    "run hot-set-drift":
        "e00359f043e4c9da7b953e3f4d90792ec1cd1903af5ea31a5391a162a1445cb0",
    "run seed":
        "041fb0bbbad69e44cbc92c56ddb679450b6998487ba0baaa5baaf5a3b57fd081",
    "run system":
        "64280bca43d85f5158519cac738cabe10fe7954ea137984b5cae8694dd274a44",
    "run crash":
        "c7310e4bbb18f75ac063eb7f28b57e392571634fbb653b75ef0758b8ae5184c8",
    "run stall":
        "0eeb329c11e9ff4924e27a692035a5e1ee4159067f29581bb4d9b822f5495c3f",
}

#: option string -> (dest, default) of the experiment subparsers.
PARENT_SURFACE = {
    "-h": ("help", "==SUPPRESS=="),
    "--help": ("help", "==SUPPRESS=="),
    "--workload": ("workload", "smallbank"),
    "--seed": ("seed", 42),
    "--users": ("users", 20000),
    "--prob-write": ("prob_write", 0.95),
    "--s-value": ("s_value", None),  # was 0.0: resolved per workload
    "--accounts": ("accounts", 10000),
    "--rw": ("rw", 8),
    "--hr": ("hr", 0.4),
    "--hw": ("hw", 0.1),
    "--hss": ("hss", 0.01),
    "--ycsb-preset": ("ycsb_preset", "a"),
    "--records": ("records", 10000),
    "--hotspot-interval": ("hotspot_interval", 0),
    "--hot-set-drift": ("hot_set_drift", 0.0),
    "--system": ("system", "fabric"),
    "--block-size": ("block_size", 1024),
    "--clients": ("clients", 4),
    "--channels": ("channels", 1),
    "--cross-channel-fraction": ("cross_channel_fraction", 0.0),
    "--population-accounts": ("population_accounts", 0),
    "--population-zipf-s": ("population_zipf_s", 1.0),
    "--client-rate": ("client_rate", 512.0),
    "--policy": ("policy", None),
    "--validation-workers": ("validation_workers", 1),
    "--pipeline-depth": ("pipeline_depth", 1),
    "--cc-strategy": ("cc_strategy", "serial"),
    "--orderer-nodes": ("orderer_nodes", 1),
    "--traffic": ("traffic", "closed"),
    "--arrival-rate": ("arrival_rate", None),
    "--orderer-queue-limit": ("orderer_queue_limit", 0),
    "--endorse-queue-limit": ("endorse_queue_limit", 0),
    "--delivery-backlog-limit": ("delivery_backlog_limit", 0),
    "--streaming-metrics": ("streaming_metrics", False),
    "--faults-file": ("faults_file", None),
    "--crash": ("crash", None),
    "--stall": ("stall", None),
    "--drop-rate": ("drop_rate", 0.0),
    "--jitter": ("jitter", 0.0),
    "--endorse-timeout": ("endorse_timeout", None),
    "--endorse-retries": ("endorse_retries", None),  # was 3: still resolves to 3
    "--export-ledger": ("export_ledger", None),
    "--checkpoint-every": ("checkpoint_every", None),
    "--checkpoint-dir": ("checkpoint_dir", None),
    "--checkpoint-keep": ("checkpoint_keep", None),
    "--resume-from": ("resume_from", None),
    "--prune": ("prune", False),
    "--trace": ("trace", None),
    "--trace-ring": ("trace_ring", None),
    "--duration": ("duration", 3.0),
    "--drain": ("drain", 3.0),
    "--json": ("json", None),
    "--rate": ("rate", 150.0),
    "--sweep": ("sweep", None),
    "--systems": ("systems", "fabric,fabric++"),
    "--jobs": ("jobs", 1),
    "--no-cache": ("no_cache", False),
    "--cache-dir": ("cache_dir", None),
}

#: The options only some experiment subcommands have; the rest are common.
_EXTRA_OPTIONS = {
    "run": ("--system", "--export-ledger", "--checkpoint-every",
            "--checkpoint-dir", "--checkpoint-keep", "--resume-from",
            "--prune", "--trace", "--trace-ring"),
    "compare": (),
    "caliper": ("--rate",),
    "sweep": ("--sweep", "--systems", "--jobs", "--no-cache", "--cache-dir"),
    "profile": ("--trace", "--trace-ring"),
}
_ALL_EXTRAS = {option for options in _EXTRA_OPTIONS.values() for option in options}
SUBCOMMAND_OPTIONS = {
    sub: [option for option in PARENT_SURFACE if option not in _ALL_EXTRAS]
    + list(extras)
    for sub, extras in _EXTRA_OPTIONS.items()
}


def subparsers(parser):
    """The subcommand name -> subparser map of ``parser``."""
    return parser._subparsers._group_actions[0].choices


def argv_hash(argv) -> str:
    args = build_parser().parse_args(argv)
    payload = {
        "config": config_to_dict(config_from_args(args)),
        "workload": asdict(workload_ref_from_args(args)),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("label", sorted(ARGV_GRID))
def test_argv_builds_pinned_config_and_workload(label):
    assert argv_hash(ARGV_GRID[label]) == ARGV_HASHES[label]


@pytest.mark.parametrize("sub", EXPERIMENT_SUBCOMMANDS)
def test_parser_surface_keeps_every_option(sub):
    surface = {
        option: (action.dest, action.default)
        for action in subparsers(build_parser())[sub]._actions
        for option in action.option_strings
    }
    for option in SUBCOMMAND_OPTIONS[sub]:
        assert surface[option] == PARENT_SURFACE[option], option


# -- the flag table ---------------------------------------------------------

#: The sweep axes before the table existed: every one must survive with
#: the same (dest, caster).
PARENT_SWEEPABLE = {
    "block-size": ("block_size", int),
    "clients": ("clients", int),
    "channels": ("channels", int),
    "cross-channel-fraction": ("cross_channel_fraction", float),
    "population-accounts": ("population_accounts", int),
    "population-zipf-s": ("population_zipf_s", float),
    "client-rate": ("client_rate", float),
    "seed": ("seed", int),
    "duration": ("duration", float),
    "users": ("users", int),
    "prob-write": ("prob_write", float),
    "s-value": ("s_value", float),
    "accounts": ("accounts", int),
    "rw": ("rw", int),
    "hr": ("hr", float),
    "hw": ("hw", float),
    "hss": ("hss", float),
    "records": ("records", int),
    "hotspot-interval": ("hotspot_interval", int),
    "hot-set-drift": ("hot_set_drift", float),
    "drop-rate": ("drop_rate", float),
    "jitter": ("jitter", float),
    "validation-workers": ("validation_workers", int),
    "pipeline-depth": ("pipeline_depth", int),
    "cc-strategy": ("cc_strategy", str),
    "orderer-nodes": ("orderer_nodes", int),
    "traffic": ("traffic", str),
    "arrival-rate": ("arrival_rate", float),
    "orderer-queue-limit": ("orderer_queue_limit", int),
    "endorse-queue-limit": ("endorse_queue_limit", int),
    "delivery-backlog-limit": ("delivery_backlog_limit", int),
}


def test_sweepable_keeps_every_parent_axis():
    for key, axis in PARENT_SWEEPABLE.items():
        assert SWEEPABLE[key] == axis, key


def test_each_flag_and_target_is_spelled_once_in_the_cli():
    source = Path(cli.__file__).read_text()
    # chaos declares its own --orderer-nodes (the replicas under test)
    # and names it in its report header.
    chaos_own = {"--orderer-nodes", "orderer_nodes"}
    for flag in FLAGS:
        for text in (flag.spelling, flag.target):
            expected = 2 if text in chaos_own else 1
            assert source.count(f'"{text}"') == expected, text


def _non_default(flag: Flag, default, kind):
    """A value different from the flag's default, as argv text."""
    choices = flag.choices() if callable(flag.choices) else flag.choices
    if choices:
        return next(choice for choice in choices if choice != default)
    if kind is str:
        return "any"
    return str(kind((default or 0) + 3))


@pytest.mark.parametrize("row", cli._ROWS, ids=lambda row: row[0].key)
def test_each_flag_reaches_its_target(row):
    flag, default, kind = row
    if kind is bool:
        args = build_parser().parse_args(["run", flag.spelling])
        assert reduce(getattr, flag.target.split("."), config_from_args(args))
        return
    text = _non_default(flag, default, kind)
    if flag.workloads is not None:
        for workload in flag.workloads:
            args = build_parser().parse_args(
                ["run", "--workload", workload, flag.spelling, text]
            )
            params = workload_ref_from_args(args).params
            assert params[flag.target] == kind(text), workload
        return
    extra = ["--traffic", "poisson"] if flag.target == "traffic.rate" else []
    args = build_parser().parse_args(["run", flag.spelling, text, *extra])
    config = config_from_args(args)
    assert reduce(getattr, flag.target.split("."), config) == kind(text)


def test_unset_endorse_retries_still_resolves_to_three():
    args = build_parser().parse_args(["run", "--crash", "peer1.OrgA@0.5+0.7"])
    assert config_from_args(args).faults.retry.max_retries == 3


# -- explicit values run as given -----------------------------------------


def test_ycsb_runs_an_explicit_zero_skew():
    args = build_parser().parse_args(["run", "--workload", "ycsb", "--s-value", "0"])
    assert workload_ref_from_args(args).build().params.s_value == 0.0
    args = build_parser().parse_args(["run", "--workload", "ycsb"])
    assert workload_ref_from_args(args).build().params.s_value == 0.99
    args = build_parser().parse_args(["run", "--workload", "smallbank"])
    assert workload_ref_from_args(args).build().params.s_value == 0.0


class _Captured(Exception):
    pass


def test_ycsb_skew_sweep_runs_what_each_row_says(monkeypatch):
    captured = []

    def capture(specs, **_):
        captured.extend(specs)
        raise _Captured

    monkeypatch.setattr(cli, "run_sweep", capture)
    with pytest.raises(_Captured):
        main(["sweep", "--workload", "ycsb", "--systems", "fabric",
              "--sweep", "s-value=0,0.5"])
    assert [spec.params["s-value"] for spec in captured] == [0.0, 0.5]
    assert [spec.workload.params["s_value"] for spec in captured] == [0.0, 0.5]


# -- flags that would be ignored fail by name ------------------------------


def test_faults_file_rejects_inline_endorse_retries(tmp_path, capsys):
    path = tmp_path / "faults.json"
    path.write_text("{}")
    exit_code = main(["run", "--faults-file", str(path),
                      "--endorse-retries", "7", "--duration", "1"])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "--faults-file cannot be combined" in err
    assert "--endorse-retries" in err


@pytest.mark.parametrize(
    "argv,missing",
    [
        (["--trace-ring", "64"], "--trace-ring requires --trace"),
        (["--checkpoint-dir", "ckpt"],
         "--checkpoint-dir requires --checkpoint-every"),
        (["--checkpoint-keep", "2"],
         "--checkpoint-keep requires --checkpoint-every"),
    ],
)
def test_run_option_without_its_enabling_flag_fails_by_name(
    capsys, argv, missing
):
    exit_code = main(["run", "--workload", "blank", "--duration", "1", *argv])
    assert exit_code == 2
    assert missing in capsys.readouterr().err
