"""The README's examples run as written: each ```python block prints what its
comments say, and each `pqharm` command line exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from pqharmonic import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


PYTHON_BLOCKS = _blocks("python")
COMMANDS = [line for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pqharm ")]


def _expected(code):
    """Per print call of the block, the comment on its line or on the next one."""
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[i + 1].strip().removeprefix("#")
            expected.append(comment.split())
    return expected


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) == 2
    assert [shlex.split(c)[1] for c in COMMANDS] == [
        "catalog", "verify-hypersurface", "verify-curve", "solve", "sweep", "variation-check"]


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=["quick-start", "paraboloid"])
def test_readme_python_block_prints_its_comments(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    expected = _expected(code)
    assert len(printed) == len(expected) > 0
    for line, words in zip(printed, expected):
        got = line.split()
        assert len(got) == len(words), (line, words)
        for g, w in zip(got, words):
            # "1.3333..." stands for every value that starts with 1.3333
            assert g.startswith(w[:-3]) if w.endswith("...") else g == w, (line, words)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: shlex.split(c)[1])
def test_readme_command_exits_0(command, tmp_path):
    argv = shlex.split(command)[1:]
    out = tmp_path / "out.txt"
    if "--out" in argv:
        i = argv.index("--out") + 1
        out = tmp_path / argv[i]
        argv[i] = str(out)
    else:
        argv += ["--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text()
