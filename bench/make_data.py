#!/usr/bin/env python3
"""Regenerate the data files the benchmark checks outputs against.

    python3 bench/make_data.py

Writes ``bench/data/expected_counts.txt`` (slice sizes for d <= 13, from
``count_basis``) and ``bench/data/basis_p{1,2}.txt`` (the bases B_2 and B_4,
filtered from S_n by the removal definition in ``oracles.py``).  Every count
is cross-checked before anything is written: against the closed forms at
sizes d+1, d+2 and 2d, against the golden totals, against
``enumerate_basis_brute`` wherever n <= 9, and against the benchmark's own
brute-force filter wherever n <= 8.
"""

from __future__ import annotations

import sys

import checkout
import oracles

MAX_D = 13
BRUTE_LIBRARY_MAX_N = 9
BRUTE_OWN_MAX_N = 8


def main() -> int:
    permdl = checkout.import_permdl()
    golden = checkout.read_golden_totals()
    lines = ["# d n count: size-n minimal permutations with d descents (count_basis)"]
    totals: dict[int, int] = {}
    for d in range(1, MAX_D + 1):
        for n in range(d + 1, 2 * d + 1):
            count = permdl.count_basis(d, n)
            closed = oracles.closed_form_count(d, n)
            if closed is not None and closed != count:
                raise SystemExit(f"count_basis({d}, {n}) = {count}, closed form says {closed}")
            if n <= BRUTE_LIBRARY_MAX_N and permdl.enumerate_basis_brute(d, n).count != count:
                raise SystemExit(f"count_basis({d}, {n}) disagrees with enumerate_basis_brute")
            if n <= BRUTE_OWN_MAX_N and len(oracles.brute_basis(d, n)) != count:
                raise SystemExit(f"count_basis({d}, {n}) disagrees with the removal definition")
            totals[d] = totals.get(d, 0) + count
            lines.append(f"{d} {n} {count}")
            print(lines[-1], flush=True)
    for d, total in golden.items():
        if totals.get(d) != total:
            raise SystemExit(f"total for d={d} is {totals.get(d)}, golden file says {total}")
    (checkout.DATA / "expected_counts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    for p in (1, 2):
        d = 2**p
        words = [w for n in range(d + 1, 2 * d + 1) for w in oracles.brute_basis(d, n)]
        library = [q.values for n in range(d + 1, 2 * d + 1) for q in permdl.enumerate_basis(d, n).members]
        if sorted(words) != sorted(library):
            raise SystemExit(f"B_{d} by definition disagrees with enumerate_basis")
        body = [f"# basis B_{d}: the {len(words)} minimal permutations with {d} descents"]
        body += [oracles.text(w) for w in words]
        (checkout.DATA / f"basis_p{p}.txt").write_text("\n".join(body) + "\n", encoding="utf-8")
        print(f"B_{d}: {len(words)} patterns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
