"""Every script under demos/ runs to completion against the package under test.

README points readers at ``python3 demos/0*.py``; each runs in a fresh
interpreter from an empty working directory, importing magcone from the same
source tree as this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import magcone

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SOURCE = Path(magcone.__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
