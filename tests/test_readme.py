"""The fenced python blocks of README.md run as written, and its command-line
examples parse, so an example cannot name a function, command or flag the
package no longer has."""

import re
import shlex
from pathlib import Path

from expdyn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_command_lines_parse():
    # Parse only: the commands themselves are not run.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("expdyn ")]
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
