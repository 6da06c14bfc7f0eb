"""The README's library example runs as written, and its `polarbounds
example` output is what the command prints."""

import pathlib
import re

from polarbounds import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})


def test_example_output_is_printed_as_shown(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### `polarbounds example`"):]
    shown = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    assert cli.main(["example"]) == 0
    assert capsys.readouterr().out == shown
