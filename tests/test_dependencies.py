"""The package needs nothing beyond the standard library and numpy.

A fresh interpreter refuses every import outside that set (plus
deeplinlab itself), imports every deeplinlab module and runs a small
``train``.  A refused import made by deeplinlab's own code fails the test
even where the code would catch it; the stdlib and numpy try optional
modules of their own (``copy`` tries ``org.python.core``), which are
refused but not counted.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import deeplinlab

SRC = Path(deeplinlab.__file__).resolve().parents[1]

PROBE = textwrap.dedent(
    """
    import importlib, pkgutil, sys

    allowed = set(sys.stdlib_module_names) | {"numpy", "deeplinlab"}
    refused = []

    def importer():
        frame = sys._getframe(2)
        while frame.f_code.co_filename.startswith("<frozen importlib"):
            frame = frame.f_back
        return frame.f_globals.get("__name__", "")

    class Allowlist:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] not in allowed:
                if importer().partition(".")[0] == "deeplinlab":
                    refused.append(name)
                raise ImportError(f"{name} is outside the stdlib and numpy")
            return None

    sys.meta_path.insert(0, Allowlist())
    import deeplinlab
    for info in pkgutil.iter_modules(deeplinlab.__path__):
        importlib.import_module("deeplinlab." + info.name)
    from deeplinlab import cli

    code = cli.main([
        "train", "--d-in", "3", "--d-out", "2", "--m", "8", "--depth", "3",
        "--width", "4", "--sweeps", "2", "--out", sys.argv[1],
    ])
    print("refused:", sorted(set(refused)))
    sys.exit(code)
    """
)


def test_only_the_stdlib_and_numpy_are_imported(tmp_path):
    out = tmp_path / "run.csv"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "refused: []" in proc.stdout, proc.stdout
    assert out.read_text().count("\n") > 1
