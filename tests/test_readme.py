"""The README's CLI examples run as written.

Every ``spheretail ...`` line of the README's CLI block goes through
``spheretail.cli.main``, with ``--samples`` capped at 2,000 and ``--out``
pointed into a temporary directory.  Each must exit 0, and a trailing
``# -> value`` comment must match what the command prints.
"""

import re
import shlex
from pathlib import Path

import pytest

from spheretail.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MAX_SAMPLES = 2000


def _cli_examples() -> list[tuple[list[str], str | None]]:
    text = README.read_text()
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", text, re.S).group(1)
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip().startswith("spheretail "):
            expected = comment.strip()[2:].strip() if comment.strip().startswith("->") else None
            examples.append((shlex.split(command)[1:], expected))
    return examples


EXAMPLES = _cli_examples()


def test_block_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_example_runs(argv, expected, capsys, tmp_path):
    argv = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag == "--samples":
            argv[i + 1] = str(min(int(argv[i + 1]), MAX_SAMPLES))
        elif flag == "--out":
            argv[i + 1] = str(tmp_path / argv[i + 1])
    assert main(argv) == 0
    out = capsys.readouterr().out
    if expected is not None:
        assert out.strip() == expected
