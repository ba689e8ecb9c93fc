"""The README's library example runs and prints what its comments say, the
README names every command-line option, every option it names exists, and
every flatlab function, class or constant it names is defined."""

import argparse
import ast
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


# notation, not code: the fields F_p and F_q, the residue c_0, the form h_nu
README_NOTATION = {"F_p", "F_q", "c_0", "h_nu"}


def _flatlab_definitions():
    """{module: names} for every src/flatlab module: the functions, classes
    and assigned names of its body and of its class bodies, and every
    attribute it assigns (self.x = ...)."""
    defined = {}
    for path in sorted((Path(__file__).parent.parent / "src" / "flatlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Store)}
        for body in [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names |= {t.id for t in targets if isinstance(t, ast.Name)}
        defined[path.stem] = names
    return defined


def test_readme_names_no_missing_code():
    # a backticked name counts as flatlab code when it has a leading _, a
    # flatlab module prefix (`exactnum._gf_mul`) or an underscore
    # (`poly_roots`): each must be defined in that module, or in some module
    defined = _flatlab_definitions()
    everywhere = set().union(*defined.values())
    missing = []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", README.read_text()))):
        head, dot, rest = name.partition(".")
        if dot and head in defined:
            found = rest in defined[head]
        elif "_" in name and name not in README_NOTATION:
            found = all(part in everywhere for part in name.split("."))
        else:
            continue
        if not found:
            missing.append(name)
    assert missing == []
