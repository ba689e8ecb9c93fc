"""The README's library example runs and prints what its comments say, and
the README names every command-line option."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from flatlab.cli import _build_parser

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    wanted = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert wanted == ["0, exactly", "(1/(t^6 + 2*t^4 + 6*t^2 + 6)) (dt)^6"]
    assert out.getvalue().splitlines() == ["0", "(1/(t^6 + 2*t^4 + 6*t^2 + 6)) (dt)^6"]


def test_readme_documents_every_cli_option():
    text = README.read_text()
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = []
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            missing += [f"{name} {opt}" for opt in action.option_strings
                        if not re.search(re.escape(opt) + r"(?![\w-])", text)]
    assert missing == []
