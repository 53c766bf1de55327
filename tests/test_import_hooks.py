"""The library import contract: importing kgray mutates no process-global
state and succeeds in a fresh interpreter (kgray is already imported in
the test process, so the check spawns a new one).
"""

import os
import subprocess
import sys


def test_import_without_env_is_noop():
    out = subprocess.run(
        [sys.executable, "-c",
         "import kgray; import pyarrow; print('ok', kgray.__version__)"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok ")
