"""Locate the checkout the benchmark runs in and import permdl from its sources."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_TOTALS = ROOT / "tests" / "golden" / "basis_totals.txt"


class MissingSources(RuntimeError):
    """The checkout does not hold the permdl sources the benchmark measures."""


def require_sources() -> None:
    if not (SRC / "permdl" / "__init__.py").is_file():
        raise MissingSources(f"no permdl sources under {SRC}")


def import_permdl():
    """Import permdl from ``src/`` of this checkout, never from anywhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    permdl = importlib.import_module("permdl")
    if Path(permdl.__file__).resolve().parent != SRC / "permdl":
        raise MissingSources(f"permdl was imported from {permdl.__file__}, not from {SRC}")
    importlib.import_module("permdl.cli")
    return permdl


def read_golden_totals() -> dict[int, int]:
    """d -> total over all sizes, from the repository's golden file."""
    totals = {}
    for line in GOLDEN_TOTALS.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            d, total = line.split()
            totals[int(d)] = int(total)
    return totals


def read_expected_counts() -> dict[tuple[int, int], int]:
    """(d, n) -> slice size, from the table committed with the benchmark."""
    counts = {}
    for line in (DATA / "expected_counts.txt").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            d, n, c = line.split()
            counts[int(d), int(n)] = int(c)
    return counts


def read_basis_text(p: int) -> str:
    """Text of the basis B_{2^p}: the minimal permutations with 2^p descents."""
    return (DATA / f"basis_p{p}.txt").read_text(encoding="utf-8")
