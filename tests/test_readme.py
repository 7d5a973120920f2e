"""README's CLI block, run in-process: every `inforcer ...` line runs
through cli.run, and the `# ...` lines under it are its stdout. A
`# ...` line stands for any number of output lines; a command with no
lines under it must exit 0."""
import re
import shlex
from pathlib import Path

import pytest

from inforcer.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples() -> list:
    """(argv, documented output lines) per command of the block under
    README's "## CLI" heading."""
    text = README.read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("inforcer "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("#"):
            examples[-1][1].append(line[2:])
    return examples


EXAMPLES = _cli_examples()


def test_the_block_documents_output():
    assert len(EXAMPLES) >= 5
    assert sum(bool(shown) for _, shown in EXAMPLES) >= 3


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(argv[:3]) for argv, _ in EXAMPLES])
def test_readme_invocation(argv, shown, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    if shown:
        pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in shown)
        assert re.fullmatch(pattern, out), out
