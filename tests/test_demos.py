"""Every demo script runs to completion and leaves nothing in the temp dir."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoakit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_cleans_up(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    paths = [str(Path(aoakit.__file__).resolve().parents[1])]
    paths += os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, paths)),
        "TMPDIR": str(tmpdir),
    }
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=tmp_path, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-2000:]
    assert done.stdout
    assert list(tmpdir.iterdir()) == []
