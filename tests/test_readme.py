"""The README's library example runs as written against src/, and its
command lines parse with the current CLI."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from trendlab.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def test_readme_python_example_runs():
    blocks = fenced("python")
    assert blocks, "README.md has no python example"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_parse():
    lines = [line for block in fenced("sh") for line in block.splitlines()
             if line.startswith("trendlab ")]
    assert lines, "README.md has no trendlab command line"
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
