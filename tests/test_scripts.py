"""The scripts under ``scripts/`` run to completion against the package.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, as a
user would run it from a checkout, and must exit 0 with one line per trial or
table row, and ``basis_counts.py`` refuses ``--bfile`` without ``--series``
and prints each ``--series`` line from ``count_basis``.
``derive_forms.py`` derives rows 1..6 of the closed-form table of
``count_basis`` again and must print rows equal to those ``permdl.minimal``
holds.
``cli_digest.py``, loaded in this process with its corpus cut to a few argv,
compares its digests with its own, and its full corpus must match the
committed ``tests/golden/cli_digest.json`` byte for byte.  ``regen_goldens.py`` is
left out: it rewrites ``tests/golden``.
"""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permdl import count_basis
from permdl.minimal import _FEW_ASCENTS

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


def test_basis_counts_refuses_bfile_without_series():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "basis_counts.py"), "--max-d", "3", "--bfile"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.splitlines()[-1].endswith("error: --bfile applies only to --series")


def test_basis_counts_series_matches_count_basis():
    # Offset 3 is feasible from d = 3 on, where size d+3 is at most 2d.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "basis_counts.py"), "--series", "3", "--max-d", "10"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"d={d} size={d + 3}: {count_basis(d, d + 3)}" for d in range(3, 11)]


def test_derive_forms_reproduces_the_table():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "derive_forms.py"), "--max-j", "6"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    name, _, literal = out.stdout.partition(" = ")
    assert name == "_FEW_ASCENTS"
    assert ast.literal_eval(literal) == _FEW_ASCENTS[:6]


def test_cli_digest_compares_runs(tmp_path, capsys, monkeypatch):
    # A few argv digested twice agree with themselves; a changed digest is
    # reported with its argv and exit code 1.  An argv element longer than
    # 64 characters is written, and compared, as a prefix of its sha256.
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    host = " ".join(map(str, range(30, 0, -1)))
    requests = [["stats", "3 1 4 2"], ["check", host, "-d", "29"], ["enumerate", "-d", "3", "-n", "5"]]
    monkeypatch.setattr(script, "corpus", lambda: requests)
    assert script.main([]) == 0
    first = capsys.readouterr().out
    digests = json.loads(first)
    assert [entry["argv"] for entry in digests] == [
        requests[0],
        ["check", "sha256:" + hashlib.sha256(host.encode()).hexdigest()[:16], "-d", "29"],
        requests[2],
    ]
    saved = tmp_path / "digests.json"
    saved.write_text(first)
    assert (script.main(["--against", str(saved)]), capsys.readouterr().out) == (0, "0 of 3 argv differ\n")
    digests[1]["err"] = "0" * 16
    saved.write_text(json.dumps(digests))
    assert script.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"err: {' '.join(digests[1]['argv'])}", "1 of 3 argv differ"]


def test_cli_digest_matches_golden():
    # Every argv of the full corpus answers with the bytes the committed
    # digests pin: exit code, stdout and stderr.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    golden = ROOT / "tests" / "golden" / "cli_digest.json"
    script = [sys.executable, str(ROOT / "scripts" / "cli_digest.py"), "--against", str(golden)]
    result = subprocess.run(script, env=env, capture_output=True, text=True, timeout=300)
    count = len(json.loads(golden.read_text()))
    assert (result.returncode, result.stdout.splitlines()[-1:]) == (0, [f"0 of {count} argv differ"]), result.stdout
