"""The README's quick-start block runs and prints the outputs it quotes."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_quoted_outputs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start.*?```python\n(.*?)```", text, re.S).group(1)
    # a print whose trailing comment is numbers quotes what it prints
    quoted = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith("print(") and re.fullmatch(r"[-+.eE\d ]+", comment.strip()):
            quoted.append(comment.strip())
        elif code.startswith("print("):
            quoted.append(None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(quoted)
    checked = [(line, want) for line, want in zip(printed, quoted) if want is not None]
    assert len(checked) == 2
    for line, want in checked:
        assert line == want
