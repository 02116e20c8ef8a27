#!/usr/bin/env python3
"""Digest what the permdl CLI answers to a fixed corpus of requests.

Each argv of the corpus runs through ``permdl.cli.main`` in this process,
with stdout and stderr captured.  The script writes a JSON list with one
object per argv, one line each: the argv, the first 16 hex digits of a
sha256 of (exit code, stdout) and of a sha256 of stderr, so a change of
refusal text can be told from a change of answer.  An argv element longer
than 64 characters (a host of 10,000 values, say) is written, and compared,
as ``sha256:`` and the first 16 hex digits of its own sha256.  Run it on
two checkouts and compare, to show that a change of the CLI keeps its
bytes:

    PYTHONPATH=src python scripts/cli_digest.py > before.json
    # ... change the code ...
    PYTHONPATH=src python scripts/cli_digest.py --against before.json

With ``--against FILE`` nothing is written; each argv whose digests differ
from FILE is printed with what differs, and the exit code is 1 if any do.
``tests/golden/cli_digest.json`` holds the digests of the corpus,
and the test suite runs the corpus against it.  A change that means to
change bytes regenerates that file in the same diff:

    PYTHONPATH=src python scripts/cli_digest.py > tests/golden/cli_digest.json

and names in CHANGES.md each argv whose digests changed, and why.

The corpus holds every ``enumerate -d 0..9`` table and every ``-n 0..2d+2``
slice in every format, alone, with ``--limit 3`` and with ``--count-only``;
trees to depth 8 in plain text and json, and plain trees of depths 9 to
12, the cap; both phi maps forward and inverted for every non-interval
subset with d <= 6 and for one subset of each phi2 type A-E at d = 200;
``poset --composition`` for every composition with d <= 6 and
``poset --ladder 1000``, plain and json; empty subsets for both phi maps;
stats, check, scenario, dyck, evolve, poset, stats and ``scenario`` (plain
and json) on two Dyck members of sizes 1,000 and 10,000 (501 and 5,001 runs),
``bijection dyck`` on those two paths and members both ways, ``scenario``
(plain and json) on one seeded shuffle of 1..10,000, counts at sizes d+3 and
2d-2 for d = 10, 20, 30 and 40, the counts only the rank scan answers (the
``enumerate -d 13|20|30`` tables in plain text and json, and ``--count-only``
at (30, 45) and (40, 60)), counts past 4,300 digits, the json listing
of the (13, 15) slice (32,556 members, two text chunks) whole and cut at
20,000, the plain (7, 11) and (15, 17) listings, the one-member
(255, 256) and (65535, 65536) slices in plain, json and csv, whole and
with ``--limit 1`` (two- and four-byte digits), the refusals, and values
of 5,000 digits in ``stats``, ``bijection phi1`` and ``poset --composition``,
and ``stats`` and ``scenario`` (plain and json) on one host spelled with a
sign, a comma, leading zeros, a fullwidth digit and an underscore.
It also holds the flags a request would ignore, which are usage errors:
``stats --grid --format json|csv`` for each permutation of ``PERMS``, and
``bijection phi1|phi2 --invert`` beside ``-d`` (phi1 with its member's own
d, phi2 with another).  Refusals that checkouts older than the diagonal
listing floor take about 13 s or forever on
(``enumerate -d 500000 -n 1000000``, ``-d 500000 -n 999999``,
``-d 1000000000 -n 2000000000``) are left out, so the corpus runs on those
checkouts too; ``-d 182 -n 186`` (about 5 s there) is in.
The corpus, 3,281 argv, takes about 4 s (Python 3.11, 2-core VM), of
which the trees of depths 11 and 12 take about 0.14 s and 0.3 s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys

from permdl import DyckPath, NonIntervalSubset, cli, compositions, dyck_to_perm, non_interval_subsets, phi1, phi2

PERMS = ["6 9 8 4 1 3 7 2 5", "3 1 4 2", "1 2 3", "2 1", "5 4 3 2 1", "1 3 2 0", "1 1"]

REFUSALS = [
    ["enumerate", "-d", "10", "-n", "16"],
    ["enumerate", "-d", "30", "-n", "45", "--limit", "5", "--format", "json"],
    ["enumerate", "-d", "60", "-n", "90"],
    ["enumerate", "-d", "1200", "-n", "2399"],
    ["enumerate", "-d", "1000", "-n", "1002", "--format", "csv"],
    ["enumerate", "-d", "15000", "-n", "15002"],
    ["enumerate", "-d", "182", "-n", "186"],
    ["enumerate", "-d", "1000000", "-n", "1000001"],
    ["enumerate", "-d", "1000000000", "-n", "1000000002", "--count-only"],
    ["bijection", "tree", "--depth", "13"],
    ["bijection", "tree", "--depth", "1000000000", "--format", "json"],
    ["evolve", "-n", "1", "--steps", "1000000000"],
    ["evolve", "-n", "1000", "--steps", "1000", "--format", "json"],
    ["poset", "--ladder", "100000000"],
    ["poset", "--composition", "3,999999,2", "--format", "json"],
    ["bijection", "phi1", "-d", "1000000000", "1,3"],
    ["bijection", "phi2", "-d", "1000000000", "1,3", "--format", "json"],
]

# One subset of {1..201} for each phi2 type at d = 200: A, E, D, C, B.
PHI_D200 = [
    [v for v in range(1, 202) if v != 100],
    [1, 4, 201],
    [1, 2, 150],
    [v for v in range(1, 151) if v != 40],
    [*range(1, 100), 101],
]

# Counts with more than 4,300 decimal digits: the Catalan number at d = 8000
# and the size-(d+2) closed form at d = 100000.
LARGE_COUNTS = [
    ["enumerate", "-d", "8000", "-n", "16000", "--count-only"],
    ["enumerate", "-d", "8000", "-n", "16000", "--count-only", "--format", "json"],
    ["enumerate", "-d", "100000", "-n", "100002", "--count-only", "--format", "csv"],
]


# Counts on the diagonals n = d+3 and n = 2d-2, in plain text and json.
DIAGONAL_COUNTS = [
    ["enumerate", "-d", str(d), "-n", str(n), "--count-only", "--format", fmt]
    for d in (10, 20, 30, 40)
    for n in (d + 3, 2 * d - 2)
    for fmt in ("plain", "json")
]

# Values with more digits than the interpreter turns into an int by
# default, in a permutation, a phi subset and a composition.
LONG_TOKENS = [
    ["stats", "1 " + "9" * 5000],
    ["bijection", "phi1", "-d", "3", "1," + "9" * 5000],
    ["poset", "--composition", "2," + "9" * 5000, "--format", "json"],
]

# One host of 12 values whose tokens do not all read as str(value): the
# answers name every value canonically.
NON_CANONICAL = "+6, 9 08 4 1 3 7 \uff12 5 1_0 12 11"
SPELLINGS = [["stats", NON_CANONICAL], ["scenario", NON_CANONICAL], ["scenario", NON_CANONICAL, "--format", "json"]]

# A json listing past one text chunk of 16,384 lines, whole and cut.
JSON_LISTINGS = [
    ["enumerate", "-d", "13", "-n", "15", "--format", "json"],
    ["enumerate", "-d", "13", "-n", "15", "--format", "json", "--limit", "20000"],
]

# The largest plain listings the benchmark times: 143,616 and 130,798
# members, each past one text chunk.  Plain trees from depth 9 up to the
# depth cap of 12 (6,917 to 290,511 nodes) follow, since each depth lays
# its lines out at its own width.
LARGE_LISTINGS = [
    ["enumerate", "-d", "7", "-n", "11"],
    ["enumerate", "-d", "15", "-n", "17"],
    *(["bijection", "tree", "--depth", str(depth)] for depth in (9, 10, 11, 12)),
]

# One-member slices whose digits take two bytes (n = 256) and four bytes
# (n = 65536), in every listing format, whole and cut to one member.
WIDE_LISTINGS = [
    ["enumerate", "-d", str(n - 1), "-n", str(n), "--format", fmt, *limit]
    for n in (256, 65536)
    for fmt in ("plain", "json", "csv")
    for limit in ((), ("--limit", "1"))
]

# Hosts with many runs: Dyck members of sizes 1,000 and 10,000.
MANY_RUNS = ["UUDUDD" * 166 + "UUDD", "UUDD" * 2500]

# A host of 10,000 values in seeded random order: about 5,000 runs.
SHUFFLED = list(range(1, 10_001))
random.Random(1).shuffle(SHUFFLED)


def corpus() -> list[list[str]]:
    out = []
    for steps in MANY_RUNS:
        perm = str(dyck_to_perm(DyckPath(steps)))
        out += [["stats", perm, "--format", fmt] for fmt in ("plain", "csv")]
        out += [["scenario", perm], ["scenario", perm, "--format", "json"]]
        out += [["bijection", "dyck", arg, "--format", fmt] for arg in (steps, perm) for fmt in ("plain", "json")]
    shuffled = " ".join(map(str, SHUFFLED))
    out += [["scenario", shuffled], ["scenario", shuffled, "--format", "json"]]
    for perm in PERMS:
        out += [["stats", perm, "--format", fmt] for fmt in ("plain", "json", "csv")]
        out += [["stats", perm, "--grid"], ["scenario", perm], ["scenario", perm, "--format", "json"]]
        out += [["stats", perm, "--grid", "--format", fmt] for fmt in ("json", "csv")]
        out += [["check", perm, "-d", str(d), "--format", fmt] for d in (1, 2, 3) for fmt in ("plain", "json")]
    for arg in ("UUDD", "UDUD", "UDDU", "2 1 4 3", "4 3 2 1", "3 2 1", "1 2 3 4"):
        out += [["bijection", "dyck", arg, "--format", fmt] for fmt in ("plain", "json")]
    for n, steps, seed in ((8, 3, 0), (12, 5, 7), (0, 2, 1), (-1, 2, 1), (3, -1, 1)):
        out += [["evolve", "-n", str(n), "--steps", str(steps), "--seed", str(seed), "--format", fmt] for fmt in ("plain", "json")]
    shapes = [["--ladder", "4"], ["--ladder", "1000"], ["--composition", "3,3,1,7,2"], ["--composition", "2,0"], ["--ladder", "3", "--composition", "1"], []]
    for d in range(1, 7):
        for n in range(d + 1, 2 * d + 1):
            shapes += [["--composition", ",".join(map(str, c.run_lengths))] for c in compositions(d, n)]
    for shape in shapes:
        out += [["poset", *shape, "--format", fmt] for fmt in ("plain", "json")]
    for d in range(0, 10):
        for size in [None, *range(0, 2 * d + 3)]:
            for fmt in ("plain", "json", "csv", "bfile"):
                for extra in ((), ("--limit", "3"), ("--count-only",)):
                    sized = [] if size is None else ["-n", str(size)]
                    out.append(["enumerate", "-d", str(d), *sized, "--format", fmt, *extra])
    out.append(["enumerate", "-d", "3", "-n", "5", "--limit", "0"])
    # Counts only the rank scan answers: tables that read the band d+9..2d-4, and two band sizes.
    out += [["enumerate", "-d", str(d), "--format", fmt] for d in (13, 20, 30) for fmt in ("plain", "json")]
    out += [["enumerate", "-d", str(d), "-n", str(n), "--count-only"] for d, n in ((30, 45), (40, 60))]
    for depth in range(0, 9):
        out += [["bijection", "tree", "--depth", str(depth), "--format", fmt] for fmt in ("plain", "json")]
    subsets = [s for d in range(1, 7) for s in non_interval_subsets(d)]
    subsets += [NonIntervalSubset(200, frozenset(elements)) for elements in PHI_D200]
    for subset in subsets:
        text = ",".join(map(str, sorted(subset.elements)))
        for name, perm in (("phi1", phi1(subset)), ("phi2", phi2(subset)[0])):
            for fmt in ("plain", "json"):
                out.append(["bijection", name, "-d", str(subset.d), text, "--format", fmt])
                out.append(["bijection", name, "--invert", str(perm), "--format", fmt])
    for name in ("phi1", "phi2"):
        out += [["bijection", name, "1,2"], ["bijection", name, "-d", "3", "1,2"], ["bijection", name, "--invert", "1 2 3"]]
    out += [["bijection", "phi1", "", "-d", "3"], ["bijection", "phi2", " ", "-d", "3"]]
    out += [["bijection", "phi1", "--invert", "8 5 4 3 9 7 6 2 1", "-d", "7"], ["bijection", "phi2", "--invert", "7 6 2 1 5 4 3", "-d", "99"]]
    return out + DIAGONAL_COUNTS + JSON_LISTINGS + LARGE_LISTINGS + WIDE_LISTINGS + REFUSALS + LARGE_COUNTS + LONG_TOKENS + SPELLINGS


def key(arg: str) -> str:
    # An argv element as the digests name it: itself, or past 64 characters
    # the first 16 hex digits of its sha256.
    return arg if len(arg) <= 64 else "sha256:" + hashlib.sha256(arg.encode()).hexdigest()[:16]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    answer = f"{code}\n{out.getvalue()}".encode()
    return {
        "argv": list(map(key, argv)),
        "out": hashlib.sha256(answer).hexdigest()[:16],
        "err": hashlib.sha256(err.getvalue().encode()).hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default=None, help="digests to compare with, from an earlier run")
    args = parser.parse_args(argv)
    digests = [run(request) for request in corpus()]
    if args.against is None:
        print("[", ",\n".join(map(json.dumps, digests)), "]", sep="\n")
        return 0
    with open(args.against) as f:
        before = {tuple(entry["argv"]): entry for entry in json.load(f)}
    differ = 0
    for entry in digests:
        old = before.get(tuple(entry["argv"]))
        parts = ["missing"] if old is None else [part for part in ("out", "err") if old[part] != entry[part]]
        if parts:
            differ += 1
            print(f"{'+'.join(parts)}: {' '.join(entry['argv'])}")
    print(f"{differ} of {len(digests)} argv differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
