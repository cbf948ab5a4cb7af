"""The README's quick-start block prints the outputs it quotes; its command lines run."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from ergoflow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_quoted_outputs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start.*?```python\n(.*?)```", text, re.S).group(1)
    # a print whose trailing comment is numbers, or True or False before a colon,
    # quotes what it prints
    quoted = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comment = comment.partition(":")[0].strip()
        if code.startswith("print(") and re.fullmatch(r"[-+.eE\d ]+|True|False", comment):
            quoted.append(comment)
        elif code.startswith("print("):
            quoted.append(None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(quoted)
    checked = [(line, want) for line, want in zip(printed, quoted) if want is not None]
    assert len(checked) == 3
    for line, want in checked:
        assert line == want


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert all(argv[0] == "ergoflow" for argv in commands)
    # CI runs verify at acceptance size in its own step
    commands = [argv[1:] for argv in commands if argv[1] != "verify"]
    assert [argv[0] for argv in commands] == ["simulate", "crossing", "sweep"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # header plus the rows the block's comments promise
    assert len((tmp_path / "squeezed.csv").read_text().splitlines()) == 1 + 501
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 300
