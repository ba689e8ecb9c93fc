"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
