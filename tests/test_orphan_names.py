"""A ratchet on public names that nothing outside their own module needs.

A public module-level name of a ``repro`` module (a ``def``, ``class`` or
assignment without a leading underscore) is an *orphan* when all of these
hold:

- nothing in ``src/`` outside its own module uses it. A package
  ``__init__`` re-exporting it is not a use; code in that ``__init__``
  calling it is;
- the CLI does not use it: a use in ``repro/cli.py`` counts even for a
  name ``cli.py`` defines (its subcommand table is the entry point);
- nothing in ``benchmarks/`` or ``examples/`` uses it;
- no backticked span in README.md, DESIGN.md, EXPERIMENTS.md or
  ``docs/*.md`` mentions it.

Tests do not count: a name only its own tests need is still dead weight.
``ORPHANS`` is the committed list; the test fails when a new orphan
appears (use the name, document it, make it private or delete it) and
when a listed one is no longer an orphan (drop it from the list), so the
list only shrinks.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Set

from tests.test_docs_cli import CODE_SPAN, DOCUMENTS, ROOT

SRC = ROOT / "src"
CLI = SRC / "repro" / "cli.py"

#: Orphans on this tree, as ``module:name``.
ORPHANS = {
    "repro.bench.cache:CACHE_DIR_ENV",
    "repro.bench.cache:DEFAULT_CACHE_DIR",
    "repro.bench.caliper:CaliperReport",
    "repro.bench.sweep:PROGRESS_ENV",
    "repro.bench.sweep:SweepProgress",
    "repro.bench.sweep:SweepStats",
    "repro.bench.sweep:resolve_jobs",
    "repro.channels.network:channel_config",
    "repro.chaos:CHAOS_SEED_SALT",
    "repro.chaos:generate_chaos_schedule",
    "repro.checkpoint:CHECKPOINT_PREFIX",
    "repro.checkpoint:Checkpointer",
    "repro.checkpoint:load_checkpoint",
    "repro.checkpoint:prune_network",
    "repro.consensus.raft:CANDIDATE",
    "repro.consensus.raft:FOLLOWER",
    "repro.core.conflict_graph:schedule_is_serializable",
    "repro.fabric.chaincode:Tombstone",
    "repro.fabric.metrics:OPTIONAL_BLOCKS",
    "repro.fabric.policy:AnyOrg",
    "repro.fabric.policy:OutOf",
    "repro.fabric.policy:RequireOrg",
    "repro.ledger.export:replay_state",
    "repro.testing:V1",
    "repro.testing:V2",
    "repro.trace.cost:RESOURCES",
    "repro.trace.exporters:CSV_COLUMNS",
    "repro.trace.exporters:TRACE_PID",
    "repro.trace.exporters:chrome_trace_events",
    "repro.trace.exporters:validate_chrome_trace",
    "repro.trace.tracer:Span",
    "repro.trace.tracer:TraceBuffer",
    "repro.validation.policies:Resolve",
    "repro.validation.registry:register_strategy",
    "repro.workloads.blank:BlankChaincode",
    "repro.workloads.custom:CustomChaincode",
    "repro.workloads.registry:register_workload",
    "repro.workloads.registry:workload_names",
    "repro.workloads.smallbank:SmallbankChaincode",
    "repro.workloads.ycsb:YcsbChaincode",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defined_names(tree: ast.Module) -> Iterator[str]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _used_names(tree: ast.Module, reexports_count: bool) -> Set[str]:
    """Identifiers a module refers to: names, attributes, imports, and
    string constants that spell a (dotted) identifier — the e2e tracer
    rebinds functions by name."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and reexports_count:
            used.update(node.name.split("."))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and reexports_count
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
        ):
            used.update(node.value.split("."))
    return used


def orphans() -> Set[str]:
    """Every ``module:name`` that meets all the conditions above."""
    trees: Dict[Path, ast.Module] = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }
    # An __init__'s imports and __all__ strings are re-exports, not uses.
    uses = {
        path: _used_names(tree, reexports_count=path.name != "__init__.py")
        for path, tree in trees.items()
    }
    outside: Set[str] = set()
    for folder in ("benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            outside |= _used_names(ast.parse(path.read_text()), True)
    for document in DOCUMENTS:
        for span in CODE_SPAN.findall(document.read_text()):
            outside.update(re.findall(r"\w+", span))

    found: Set[str] = set()
    for path, tree in trees.items():
        for name in _defined_names(tree):
            if name.startswith("_") or name in outside:
                continue
            if any(
                name in used
                for other, used in uses.items()
                if other != path or other == CLI
            ):
                continue
            found.add(f"{_module_name(path)}:{name}")
    return found


def test_no_new_orphan_names():
    current = orphans()
    new = sorted(current - ORPHANS)
    assert new == [], f"new public names nothing uses or documents: {new}"


def test_orphan_list_only_shrinks():
    stale = sorted(ORPHANS - orphans())
    assert stale == [], f"no longer orphans, drop them from ORPHANS: {stale}"
