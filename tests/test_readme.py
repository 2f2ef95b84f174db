"""README's CLI block names exactly the flags the parser takes."""

import argparse
import re
from pathlib import Path

import pytest

from aggnet import cli

README = Path(__file__).resolve().parents[1] / "README.md"


class _Parsed(Exception):
    """Carries the parser ``cli.main`` built out of its ``parse_args``."""


def _parser_flags() -> dict[str, set[str]]:
    """verb -> the option strings of its subparser, ``-h``/``--help`` aside."""
    def parse_args(self, *args, **kwargs):
        raise _Parsed(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        with pytest.raises(_Parsed) as caught:
            cli.main([])
    (verbs,) = [a for a in caught.value.args[0]._actions
                if isinstance(a, argparse._SubParsersAction)]
    return {verb: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            for verb, sub in verbs.choices.items()}


def _readme_flags() -> dict[str, set[str]]:
    """verb -> the ``--flags`` its line in the bash block under ``## CLI`` names."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return {line.split()[1]: set(re.findall(r"--[a-z][a-z0-9-]*", line))
            for line in block.splitlines() if line.startswith("aggnet ")}


def test_readme_cli_block_matches_the_parser():
    assert _readme_flags() == _parser_flags()
