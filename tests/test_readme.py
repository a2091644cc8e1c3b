"""The epinfer commands in README.md parse with the current CLI."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from epinfer.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Argument lists of the `epinfer ...` lines in the README's sh blocks,
    with backslash-continued lines joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "epinfer":
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_parses(argv):
    build_parser().parse_args(argv)


def test_every_subcommand_is_shown():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert sorted({argv[0] for argv in COMMANDS}) == sorted(sub.choices)
