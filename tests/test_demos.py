"""Every demo script runs to completion against the installed package."""

import os
import pathlib
import subprocess
import sys

import pytest

from hatetriage import cli

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = pathlib.Path(cli.__file__).resolve().parents[1]


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    # a fresh interpreter in an empty directory: the demo may rely on the
    # package and its bundled data only, not on the working directory
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
