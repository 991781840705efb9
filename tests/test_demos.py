"""Each demo runs clean from a copy and writes only under the copy's out/."""
import shutil
from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean_and_writes_only_under_out(demo, tmp_path):
    # a demo writes next to its own file, so the copy keeps the checkout
    # clean; run from the copy's directory, a write relative to the
    # working directory shows up here too
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    run_python("-W", "error::ResourceWarning", str(script), cwd=tmp_path)
    written = [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file() and p != script]
    assert all(p.parts[0] == "out" for p in written), written
