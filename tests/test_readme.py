"""The README's quick tour and custom-pattern example run against the
current API, and its command lines parse."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from nupolar.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def printed(heading: str) -> str:
    """What the Python block under ``heading`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code_block(heading, "python"), str(README), "exec"), {})
    return out.getvalue()


def test_quick_tour_runs():
    assert printed("## Quick tour") == "True\n"


def test_custom_pattern_equals_the_named_builder():
    assert printed("## Custom patterns") == "True\n"


def test_command_lines_parse():
    block = code_block("## Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nupolar ")]
    assert [argv[0] for argv in commands] == ["construct", "simulate", "compare"]
    for argv in commands:
        build_parser().parse_args(argv)
