"""The docs cannot name a CLI subcommand or flag the parser lacks.

Every ``python -m repro <sub> ... --flag`` in the top-level documents and
``docs/*.md`` must name a real subcommand (``a|b`` and ``a/b`` list
alternatives) and flags that subcommand's parser knows; ``--sweep KEY=``
axes must be sweepable. Every subcommand's ``--help`` must render, since
a stray ``%`` in help text crashes argparse only at help time.
"""

from __future__ import annotations

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
