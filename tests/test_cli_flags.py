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
        "max-resubmits": ["--max-resubmits", "4"],
        "max-resubmits=-1": ["--max-resubmits", "-1"],
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
        "2bb47c3a42ed9f3f3afbf50a590d19bac83130274dd6f02a2b1c19b5bdd366ae",
    "run --workload custom":
        "29a74047e54040ff204ed109d3a007d709841cc7faf01f859d6634bbf604502d",
    "run --workload blank":
        "a8251b6f47c8ddf9dd596c92cb82b17ce7eb0bcc0e079b02fdbf36062c928074",
    "run --workload ycsb":
        "29d9135d2fb7d44f9983bf669aa3daff8e3aca39464816c93ab47014d378b7c8",
    "compare --workload smallbank":
        "2bb47c3a42ed9f3f3afbf50a590d19bac83130274dd6f02a2b1c19b5bdd366ae",
    "compare --workload custom":
        "29a74047e54040ff204ed109d3a007d709841cc7faf01f859d6634bbf604502d",
    "compare --workload blank":
        "a8251b6f47c8ddf9dd596c92cb82b17ce7eb0bcc0e079b02fdbf36062c928074",
    "compare --workload ycsb":
        "29d9135d2fb7d44f9983bf669aa3daff8e3aca39464816c93ab47014d378b7c8",
    "caliper --workload smallbank":
        "2bb47c3a42ed9f3f3afbf50a590d19bac83130274dd6f02a2b1c19b5bdd366ae",
    "caliper --workload custom":
        "29a74047e54040ff204ed109d3a007d709841cc7faf01f859d6634bbf604502d",
    "caliper --workload blank":
        "a8251b6f47c8ddf9dd596c92cb82b17ce7eb0bcc0e079b02fdbf36062c928074",
    "caliper --workload ycsb":
        "29d9135d2fb7d44f9983bf669aa3daff8e3aca39464816c93ab47014d378b7c8",
    "sweep --workload smallbank":
        "2bb47c3a42ed9f3f3afbf50a590d19bac83130274dd6f02a2b1c19b5bdd366ae",
    "sweep --workload custom":
        "29a74047e54040ff204ed109d3a007d709841cc7faf01f859d6634bbf604502d",
    "sweep --workload blank":
        "a8251b6f47c8ddf9dd596c92cb82b17ce7eb0bcc0e079b02fdbf36062c928074",
    "sweep --workload ycsb":
        "29d9135d2fb7d44f9983bf669aa3daff8e3aca39464816c93ab47014d378b7c8",
    "profile --workload smallbank":
        "2bb47c3a42ed9f3f3afbf50a590d19bac83130274dd6f02a2b1c19b5bdd366ae",
    "profile --workload custom":
        "29a74047e54040ff204ed109d3a007d709841cc7faf01f859d6634bbf604502d",
    "profile --workload blank":
        "a8251b6f47c8ddf9dd596c92cb82b17ce7eb0bcc0e079b02fdbf36062c928074",
    "profile --workload ycsb":
        "29d9135d2fb7d44f9983bf669aa3daff8e3aca39464816c93ab47014d378b7c8",
    "run block-size":
        "6cc6c9f4e77f9132beefd223466a7721b5f5d4c43349cbcba736a02944608cf4",
    "run clients":
        "f2d9e3cb7c053af666bf3df0abdd58efb638bc0bc5bcf1c397be4575c9a6d83f",
    "run channels":
        "293fd493e67f149b94f7271ee083da6b7f4ce283be16a0f567878087fac12ac4",
    "run cross-channel-fraction":
        "66808e5678c9c9e098cddbe2b4910628baadc1524afc0ba22ef02d6117305525",
    "run population-accounts":
        "788fd72bdd4cb91a38b0e5d500af82786c0381754dca0b353133cd13656b1246",
    "run population-zipf-s":
        "7a9fd7c5a66e66ce0c12c694f0d6c3935bf52df6cc7a072bfde03ee80eaaf07d",
    "run client-rate":
        "3498361b94ef3d3e1ba61071454963e7e99e1a124128563d39439c8a1d80864f",
    "run policy":
        "1ecf6798fbc255f5f08a57402fa47ba0283b0f13716fa780c9867a8990024eef",
    "run validation-workers":
        "64c6262cf963ba5e2cafb381c281dda212616db68a2e3b0d5f0e3ee15bf1f9ba",
    "run pipeline-depth":
        "742c5970e1c877af30883b79985e2434dad41a7bcff2dc037b3eb363c5ac88b6",
    "run cc-strategy":
        "365d37443add1e1bf5f82725a7c403379f4f774e1d83f769d8c0c36e3bf1078d",
    "run orderer-nodes":
        "3a040e4c03d3d5631ca3b473943a8b2b9847bc696c6ebaf6557dfcf184e05d89",
    "run traffic":
        "eaed03a1b3f760bdb2494390b219d6590d83c46bca098d684f732bd562c8a926",
    "run arrival-rate":
        "fbe2e089c62e506fafacfdd293714be214d7a6b987a3a9d8ae9e5c29ac9689f5",
    "run orderer-queue-limit":
        "ac8bbdb61b576296fc293c1c6ca85de6037debcb68f704fa44b671dc8bb3f2b2",
    "run endorse-queue-limit":
        "2e9c27f6a84af870c2165de0017fbe6e54699fbbb74bfdcd4aab95e8691db798",
    "run delivery-backlog-limit":
        "464cd8aca432d3535b9e0f2acef30cc2d4a15ce2f36c0da48cb78d130c010cce",
    "run streaming-metrics":
        "e3993f1dae43e37dbd98ae96745ef66a683884963ebd4394bf9bea6840d313d4",
    "run drop-rate":
        "9bd67d26e46facf80c519b30c3ac2e24280b7838fd85a6649a15ab0e5a8520d3",
    "run jitter":
        "2beabc0f7964b19e8cd1fa81295ca1b4582247c1bc57833489cf2402d6817d26",
    "run endorse-timeout":
        "505750ddf36721f0409bf64ec1ceb676e9f1a24b73f3a2ee3f13b47a2bae2a63",
    "run endorse-retries":
        "0979a24d44d50a5e5a736dc74046198971febfd78e944eb8ed1a574e520efd26",
    "run users":
        "4f458d4875bf3a46e8e988a2a74f8be6de597dbe803aacb85a016178e6dd8461",
    "run prob-write":
        "4270ea6a4c6bcb576b10937f23b1c448ae4ef5b0f3f44c96cf72748c82deac1b",
    "run s-value/smallbank":
        "ec35100e7c993b8e1cf0110b16b588847afe629cb70567355fb33ba563d9cae0",
    "run s-value/ycsb":
        "188257f314b9bb65787356c048958ce0b35cb2700bc2c124f1751611cf644767",
    # Moved on purpose: the parser used to run an explicit 0 at 0.99
    # (29d9135d..., the same hash as "run --workload ycsb").
    "run s-value=0/ycsb":
        "db8f662fd965074b174967f464c2b1280acc33fb6d15c2651c3c059ee7eba2e7",
    "run accounts":
        "61216f5c8d18b4a2045725a476f335e274333f7eedeb062f0c18bdffe6e832f2",
    "run rw":
        "9e17631c6453c33cb3d2ba45359acd74366d62cbc0e8cb5e91ef9960de591b6b",
    "run hr":
        "df82c95b8aa9a0a8fa34f51f48d56410dbf4f70cca6d8467ad36c398272363ad",
    "run hw":
        "01e9f7207088fd3f766694eecf5ad4047f3bceca6f81d4c2867013cf71ddbb49",
    "run hss":
        "26f61672945147a0a7bacc63fe2e06233721149bc093150cac309f38dbd16dbc",
    "run ycsb-preset":
        "4bb7709a81f7fe9436ab32cbd5fab57ee0b8b172d56e745dd96688c1c6ba014d",
    "run records":
        "b4d08b1b980e87827e479902680fd97daa41536c39bac9d1da2e69b8e8afcd16",
    "run hotspot-interval":
        "e70f105e066ca78329a29d41979176513b666bce564815023ac1783166ed3782",
    "run hot-set-drift":
        "2ff631fae0feb56188b0ebf8b073850b77d6c94d5a1117b99ce3462d3d09d60e",
    "run seed":
        "bc82901ffae90038e8aafea686396cfd447fa6263658728f8b3275a36aecfe00",
    "run system":
        "0e61de6551672f6a13f7ddb0805f859dcc49186e85c38cd39197d180bd045729",
    "run max-resubmits":
        "025a471373369a8c12003d8f646bfe8fa912ec43aff798aeeca15eda611e5434",
    "run max-resubmits=-1":
        "dc1e49bb19a9e7b65d84ca9a8667de6f9c1359df62294aaec5ae278b2b1ca556",
    "run crash":
        "c5cb3a499418fe92c87aa98b039c26cef5ca30c3dd07dcf633a80faa94b7d5a7",
    "run stall":
        "06c91aa0a3c8d0a100e17f4356e5d7cae112ffdc489082fa515a2af5159ecd6b",
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
    "--max-resubmits": ("max_resubmits", None),
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
        "workload": workload_ref_from_args(args).describe(),
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
    assert config_from_args(args).faults.max_endorsement_retries == 3


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
