#!/usr/bin/env python3
"""Tabulate how many minimal permutations with d descents exist per size.

Table rows come from ``count_table`` and the --series diagonals from
``count_basis``; both are polynomial in the size.  ``count_basis``
answers the sizes d+1..d+8 and 2d-3..2d in closed form, so the series at
offsets 1..8 cost no scan; the sizes d+9..2d-4 in between have no known
form and are always scanned, by ``count_table`` in one rank scan per d.
``--max-d 30`` prints its 30 rows in about 0.4 s (Python 3.11, 2-core VM),
against about 1.7 s for the band scans alone with one scan per size.

Examples:
    python scripts/basis_counts.py --max-d 8
    python scripts/basis_counts.py --max-d 30
    python scripts/basis_counts.py --series 3 --max-d 30
    python scripts/basis_counts.py --series 3 --max-d 30 --bfile
"""

from __future__ import annotations

import argparse

from permdl import count_basis, count_table


def print_table(max_d: int) -> None:
    for d in range(1, max_d + 1):
        counts = count_table(d).values()
        row = " ".join(str(c) for c in counts)
        print(f"d={d:<2} sizes {d + 1}..{2 * d}: {row} (total {sum(counts)})")


def print_series(offset: int, max_d: int, bfile: bool) -> None:
    # counts at size d + offset, one value per d where that size is feasible
    for d in range(1, max_d + 1):
        n = d + offset
        if not d + 1 <= n <= 2 * d:
            continue
        value = count_basis(d, n)
        print(f"{d} {value}" if bfile else f"d={d} size={n}: {value}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=8)
    parser.add_argument(
        "--series",
        type=int,
        default=None,
        metavar="OFFSET",
        help="print the diagonal at size d+OFFSET instead of the full table",
    )
    parser.add_argument("--bfile", action="store_true", help="emit bare 'd count' lines")
    args = parser.parse_args()
    if args.bfile and args.series is None:
        parser.error("--bfile applies only to --series")
    if args.series is None:
        print_table(args.max_d)
    else:
        print_series(args.series, args.max_d, args.bfile)


if __name__ == "__main__":
    main()
