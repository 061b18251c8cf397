"""The command line examples of README.md print what the README shows."""

import shlex
from pathlib import Path

import pytest

from fkdet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ fkdet "


def readme_examples() -> list:
    """(command, printed lines) for each prompt line of the Command line
    section; a line "..." ends the part of the output that is compared."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples, current = [], None
    for line in section.splitlines():
        if line.startswith(PROMPT):
            current = (line[len(PROMPT):], [])
            examples.append(current)
        elif current is not None and line and line != "```":
            current[1].append(line)
        else:
            current = None
    return examples


EXAMPLES = readme_examples()


def test_readme_shows_every_example():
    assert len(EXAMPLES) >= 4
    assert all(printed for _, printed in EXAMPLES)


@pytest.mark.parametrize(
    "command, expected", EXAMPLES, ids=[command.split()[0] for command, _ in EXAMPLES]
)
def test_readme_example_prints_as_shown(capsys, command, expected):
    assert main(shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    if "..." in expected:
        expected = expected[: expected.index("...")]
        printed = printed[: len(expected)]
    assert printed == expected
