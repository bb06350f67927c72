"""The six demos print exactly their checked-in output (demos_golden.json).

Each demo runs as a script in a fresh interpreter, with the library
imported from ``src/``, as its docstring says to run it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(Path(__file__).with_name("demos_golden.json").read_text())


def test_every_demo_has_an_expectation():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_stdout_matches_the_checked_in_expectation(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, text=True, env=env, timeout=120
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == GOLDEN[name]
