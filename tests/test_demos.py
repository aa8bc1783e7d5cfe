"""Every script in demos/ runs to the end.

Each runs in a fresh interpreter with its working directory and TMPDIR in
a temporary directory: goe_pipeline.py writes its outputs into the working
directory, and cli_workflow.py keeps a kbound-demo-* directory under the
temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kbound

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    src = str(Path(kbound.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
