"""The scripts under ``scripts/`` run to completion against the package.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, as a
user would run it from a checkout, and must exit 0 with one line per trial or
table row.  ``regen_goldens.py`` is left out: it rewrites ``tests/golden``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, lines",
    [
        # Replays each synthesized scenario through ``replay``.
        ("evolution_demo.py", ["-n", "12", "--steps", "3", "--trials", "5", "--seed", "42"], 5),
        ("basis_counts.py", ["--max-d", "6"], 6),
        ("basis_counts.py", ["--max-d", "30"], 30),
    ],
)
def test_script_runs(script, args, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == lines
