import os
import pathlib
import subprocess
import sys

import pytest

import cfr

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    """Each demo script runs to completion as its own process and writes nothing to stderr."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cfr.__file__)))
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ,
               PYTHONPATH=pkg_root + (os.pathsep + inherited if inherited else ""))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
