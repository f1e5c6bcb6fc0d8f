"""The tests import ``decagon`` from this checkout's ``src/`` (``pythonpath``
in ``pyproject.toml``); the subprocesses some of them start do too."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
