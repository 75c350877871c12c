"""The README's literal examples, run through the CLI entry point: the
output of each `$ raysched ...` line byte for byte, the exit code the
README shows for `claims --strict`, and the value the "Library use"
snippet prints.  Only the catalog block, whose output the README elides
with `...`, is not compared."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from raysched.cli import console_main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)
PROMPT = "$ raysched "
EXIT_CODE = " ; echo $?"


def _examples():
    """(command, output lines) for every prompt line of a code block; the
    output runs to the next blank line or prompt."""
    examples, current = [], None
    for _, body in BLOCKS:
        for line in body.splitlines() + [""]:
            if line.startswith(PROMPT):
                current = (line[len(PROMPT):], [])
                examples.append(current)
            elif not line:
                current = None
            elif current is not None:
                current[1].append(line)
    return examples


EXAMPLES = _examples()
LITERAL = [(command, output) for command, output in EXAMPLES
           if "..." not in output and not command.endswith(EXIT_CODE)]


def test_only_the_catalog_block_is_elided():
    elided = [command for command, output in EXAMPLES if "..." in output]
    assert elided == ["claims --subset informational"]
    assert len(LITERAL) == 5


@pytest.mark.parametrize("command,output", LITERAL, ids=[c for c, _ in LITERAL])
def test_literal_example_prints_the_readme_bytes(command, output, capsys):
    assert console_main(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join(output) + "\n"
    assert captured.err == ""


def test_strict_catalog_exits_with_the_readme_code(capsys):
    (command, output), = [(c, o) for c, o in EXAMPLES if c.endswith(EXIT_CODE)]
    assert console_main(shlex.split(command[:-len(EXIT_CODE)])) == int(output[0]) == 1
    assert capsys.readouterr().err == ""


def test_library_snippet_prints_the_readme_value():
    (snippet,) = [body for lang, body in BLOCKS if lang == "python"]
    shown = re.search(r"print\(report\.limit_sup\)\s+# (\S+)", snippet).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet, "README.md", "exec"), {})
    assert printed.getvalue().splitlines()[0] == shown == "9.0"
