"""The README's Python examples run as printed.

Every ```python block of README.md is executed in a fresh namespace;
each `print` call carries its output as a trailing `# ...`
comment, and the printed lines must equal those comments in order.
"""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
PRINT_COMMENT = re.compile(r"^\s*print\(.*\)\s+# (.*)$")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_prints_its_comments(code):
    prints = [line for line in code.splitlines() if line.lstrip().startswith("print(")]
    expected = [m.group(1) for m in map(PRINT_COMMENT.match, prints) if m]
    assert len(expected) == len(prints), "each print needs its output as a trailing comment"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
