"""The README's library example runs and prints what its comments say, the
README names every command-line option, and every option it names exists."""

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


def _subparsers():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_readme_documents_every_cli_option():
    text = README.read_text()
    missing = []
    for name, sub in _subparsers().items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            missing += [f"{name} {opt}" for opt in action.option_strings
                        if not re.search(re.escape(opt) + r"(?![\w-])", text)]
    assert missing == []


def test_readme_names_no_missing_cli_option():
    options = {opt for sub in _subparsers().values() for action in sub._actions for opt in action.option_strings}
    spelled = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", README.read_text()))
    assert sorted(spelled - options) == []
