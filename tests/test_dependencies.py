"""The package runs on the standard library alone."""

import os
import pathlib
import subprocess
import sys

import envtheory


def test_import_loads_no_numpy_or_scipy():
    # A fresh interpreter, since this one has the test oracles loaded.
    src = str(pathlib.Path(envtheory.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import envtheory, envtheory.cli, sys; "
         "print(' '.join(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
