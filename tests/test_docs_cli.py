"""The docs cannot name a CLI flag, file or module that does not exist.

Every ``python -m repro <sub> ... --flag`` in the top-level documents and
``docs/*.md`` must name a real subcommand (``a|b`` and ``a/b`` list
alternatives) and flags that subcommand's parser knows; ``--sweep KEY=``
axes must be sweepable. Every subcommand's ``--help`` must render, since
a stray ``%`` in help text crashes argparse only at help time.

In the same documents every backticked repository path (``src/…``,
``tests/…``, ``examples/…``, ``benchmarks/…``, and ``repro/…`` under
``src/``; globs must match something) must exist, and every backticked
dotted ``repro.x.y`` name must import.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from repro.cli import SWEEPABLE, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
COMMAND = re.compile(r"python -m repro ([\w|/+-]*)(.*)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|examples|benchmarks|repro)/[\w./*-]*\w)"
)
DOTTED_NAME = re.compile(r"(?<![\w.])(repro(?:\.\w+)+)")


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


def _invocations(path: Path):
    """(line number, subcommand text, argument text) per documented command."""
    lines = path.read_text().splitlines()
    for number, line in enumerate(lines, 1):
        for match in COMMAND.finditer(line):
            text, follow = match.group(2), number
            while text.rstrip().endswith("\\") and follow < len(lines):
                text = text.rstrip()[:-1] + " " + lines[follow]
                follow += 1
            # An inline code span or a shell comment ends the command.
            yield number, match.group(1), re.match(r"[^`#]*", text).group()


def _problems(path: Path):
    parsers = _subparsers()
    for number, sub_text, arguments in _invocations(path):
        where = f"{path.relative_to(ROOT)}:{number}"
        tokens = arguments.split()
        for sub in filter(None, re.split(r"[|/]", sub_text)):
            if sub not in parsers:
                yield f"{where}: no subcommand {sub!r}"
                continue
            known = parsers[sub]._option_string_actions
            for index, token in enumerate(tokens):
                if not token.startswith("--"):
                    continue
                flag = token.split("=")[0].rstrip(").,;:")
                if flag not in known:
                    yield f"{where}: {sub} has no {flag}"
                elif flag == "--sweep" and index + 1 < len(tokens):
                    key = tokens[index + 1].split("=")[0]
                    if key not in SWEEPABLE:
                        yield f"{where}: {key!r} is not a sweep axis"


def test_scan_finds_the_documented_commands():
    assert sum(len(list(_invocations(path))) for path in DOCUMENTS) >= 30


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_documented_commands_use_real_flags(path):
    assert list(_problems(path)) == []


@pytest.mark.parametrize("sub", sorted(_subparsers()))
def test_subcommand_help_renders(sub, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([sub, "--help"])
    assert excinfo.value.code == 0
    assert f"usage: repro {sub}" in capsys.readouterr().out


def _references(path: Path):
    """(line number, kind, text) per backticked path or dotted name."""
    for number, line in enumerate(path.read_text().splitlines(), 1):
        for span in CODE_SPAN.findall(line):
            for text in REPO_PATH.findall(span):
                yield number, "path", text
            for text in DOTTED_NAME.findall(span):
                yield number, "name", text


def _path_exists(text: str) -> bool:
    base = ROOT / "src" if text.startswith("repro/") else ROOT
    return any(base.glob(text)) if "*" in text else (base / text).exists()


def _name_imports(text: str) -> bool:
    """The longest importable module prefix, then attributes for the rest."""
    parts = text.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_scan_finds_the_documented_references():
    kinds = [kind for path in DOCUMENTS for _, kind, _ in _references(path)]
    assert kinds.count("path") >= 50 and kinds.count("name") >= 20


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_documented_paths_and_names_exist(path):
    check = {"path": _path_exists, "name": _name_imports}
    missing = [
        f"{path.relative_to(ROOT)}:{number}: no {kind} {text!r}"
        for number, kind, text in _references(path)
        if not check[kind](text)
    ]
    assert missing == []
