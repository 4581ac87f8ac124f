"""The package runs on the standard library alone, and imports little of it."""

import os
import pathlib
import subprocess
import sys

import envtheory

SRC = str(pathlib.Path(envtheory.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this source tree.

    A fresh interpreter, since this one has the test oracles loaded.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_numpy_or_scipy():
    out = _fresh("import envtheory, envtheory.cli, sys; "
                 "print(' '.join(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))")
    assert out.split() == []


def test_law_is_the_only_dataclass():
    # Every other record is a named tuple, which is cheaper to build at import.
    out = _fresh(
        "import dataclasses, sys, envtheory, envtheory.cli\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name == 'envtheory' or name.startswith('envtheory.'):\n"
        "        for value in vars(module).values():\n"
        "            if (isinstance(value, type) and dataclasses.is_dataclass(value)\n"
        "                    and value.__module__ == name):\n"
        "                print(f'{name}.{value.__qualname__}')\n")
    assert out.split() == ["envtheory.laws.Law"]


def test_a_json_cli_run_does_not_load_csv():
    out = _fresh(
        "import contextlib, io, sys\n"
        "from envtheory.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as record:\n"
        "    code = main(['fgs', '--n', '8', '--dim', '3', '--d', '2', '--output', 'json'])\n"
        "print(code, 'csv' in sys.modules, record.getvalue().startswith('{'))\n")
    assert out.split() == ["0", "False", "True"]
