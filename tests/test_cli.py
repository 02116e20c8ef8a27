import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path
from unittest import mock

import pytest

import permdl
from permdl import (
    DyckPath,
    cli,
    classify_s2,
    count_basis,
    dyck_to_perm,
    eco_children,
    eco_root,
    enumerate_basis,
    generating_tree,
    minimal,
    non_interval_subsets,
    parse_permutation,
    phi1,
    phi2,
    posets,
    random_evolution,
    scenario_to_json,
    slice_to_text,
    synthesize_scenario,
)
from permdl.cli import main

from helpers import digit_row, replay_rendered_scenario


# The separators of a plain listing's lines and of a JSON listing's lists:
# between the values of a row, and after its last.
SEPARATORS = [(" ", "\n"), (", ", "], [")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """Run a request the parser refuses; return the last line of its error."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.splitlines()[-1]


class TestStats:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "stats", "6 9 8 4 1 3 7 2 5")
        assert code == 0
        assert out == (
            "permutation: 6 9 8 4 1 3 7 2 5\n"
            "descents: 4 at positions 2 3 4 7\n"
            "runs: 6 9 | 8 | 4 | 1 3 7 | 2 5\n"
            "min steps: 3\n"
        )

    def test_plain_no_descents(self, capsys):
        code, out, _ = run(capsys, "stats", "1 2 3")
        assert code == 0
        assert "descents: 0\n" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "stats", "6 9 8 4 1 3 7 2 5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "permutation": [6, 9, 8, 4, 1, 3, 7, 2, 5],
            "descent_count": 4,
            "descent_positions": [2, 3, 4, 7],
            "runs": [[6, 9], [8], [4], [1, 3, 7], [2, 5]],
            "min_steps": 3,
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "stats", "3 1 4 2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "statistic,value"
        assert "min_steps,2" in out

    def test_many_runs_match_the_definition(self, capsys):
        # A size-2,000 Dyck member has 1,000 descents, so 1,001 runs.  The
        # runs are cut here pair by pair, straight from the definition.
        values = dyck_to_perm(DyckPath("UUDUDD" * 333 + "UD")).values
        runs, positions = [[values[0]]], []
        for i, (a, b) in enumerate(zip(values, values[1:]), start=1):
            if a > b:
                runs.append([])
                positions.append(str(i))
            runs[-1].append(b)
        assert len(runs) == 1001
        perm_text = " ".join(map(str, values))
        runs_text = " | ".join(" ".join(map(str, r)) for r in runs)
        assert run(capsys, "stats", perm_text) == (0, (
            f"permutation: {perm_text}\n"
            f"descents: 1000 at positions {' '.join(positions)}\n"
            f"runs: {runs_text}\n"
            "min steps: 10\n"
        ), "")
        assert run(capsys, "stats", perm_text, "--format", "csv")[1].splitlines()[1:5] == [
            f"permutation,{perm_text}",
            "descent_count,1000",
            f"descent_positions,{' '.join(positions)}",
            f"runs,{'|'.join(' '.join(map(str, r)) for r in runs)}",
        ]

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "stats", "3 1 4 2", "--grid")
        assert code == 0
        assert out.endswith(
            ". . o .\n"
            "o . . .\n"
            ". . . o\n"
            ". o . .\n"
        )

    def test_grid_cap(self, capsys):
        # A grid of n values prints n lines of n cells: 1000 values are
        # answered, 1001 refused in one line.
        code, out, _ = run(capsys, "stats", " ".join(map(str, range(1000, 0, -1))), "--grid")
        assert code == 0
        grid = out.splitlines()[-1000:]
        assert grid[0] == "o" + " ." * 999 and grid[-1] == ". " * 999 + "o"
        code, out, err = run(capsys, "stats", " ".join(map(str, range(1001, 0, -1))), "--grid")
        assert (code, out) == (2, "")
        assert err == "error: a grid of 1001 values has 1002001 cells, more than the 1000000 a request may hold\n"

    def test_bfile_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "2 1", "--format", "bfile"])
        assert exc.value.code == 2
        assert "error: argument --format" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "stats", "1 x 2")
        assert code == 2
        assert "x" in err

    def test_invalid_values_exit_2_with_one_line(self, capsys):
        # A value past the interpreter's limit on the digits of an int is
        # named by its digit count, not echoed.
        cases = [("1 1 2", "duplicate value 1"), ("1 5", "value 5 out of range 1..2"), ("0 1", "value 0")]
        cases += [("1 " + "9" * 5000, "value with 5000 digits out of range"), ("-" + "1" * 4301, "with 4301 digits")]
        for text, reason in cases:
            code, out, err = run(capsys, "stats", text)
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and len(err) < 100
            assert reason in err


class TestCheck:
    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "check", "6 4 2 1 9 7 3 8 5", "-d", "6")
        assert code == 0
        assert out == "minimal with 6 descents\n"

    def test_not_minimal_diamond(self, capsys):
        code, out, _ = run(capsys, "check", "1 3 2", "-d", "1")
        assert code == 1
        assert out == (
            "not minimal: ascent at position 1 violates the diamond condition; "
            "removing position 1 (value 1) keeps the descent count at 1\n"
        )

    def test_not_minimal_count(self, capsys):
        code, out, _ = run(capsys, "check", "3 2 1", "-d", "1")
        assert code == 1
        assert out == "not minimal: has 2 descents, expected 1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "3 2 1", "-d", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["minimal"] is True


class TestEnumerate:
    def test_summary_plain(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3")
        assert code == 0
        assert out == "# d=3 sizes 4..6\n4 1\n5 10\n6 5\ntotal 16\n"

    def test_summary_bfile(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "4", "--format", "bfile")
        assert code == 0
        assert out == "5 1\n6 32\n7 84\n8 14\n"

    def test_summary_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "2", "--format", "csv")
        assert code == 0
        assert out == "n,count\n3,1\n4,2\n"

    def test_summary_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3", "--format", "json")
        assert json.loads(out) == {"d": 3, "counts": {"4": 1, "5": 10, "6": 5}, "total": 16}

    def test_slice_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "2", "-n", "4")
        assert code == 0
        assert out == "# d=2 n=4 count=2\n2 1 4 3\n3 1 4 2\n"

    def test_slice_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3", "-n", "5", "--limit", "3")
        assert code == 0
        assert out == (
            "# d=3 n=5 count=10\n2 1 5 4 3\n3 1 5 4 2\n3 2 1 5 4\n# truncated at 3\n"
        )

    def test_slice_limit_must_be_positive(self, capsys):
        for limit in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["enumerate", "-d", "3", "-n", "5", "--limit", limit])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1].endswith("error: --limit must be at least 1")

    def test_limit_refused_without_listing(self, capsys):
        for argv in (
            ["enumerate", "-d", "3", "--limit", "1"],
            ["enumerate", "-d", "3", "-n", "5", "--count-only", "--limit", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1].endswith("error: --limit applies only to -n listings")

    def test_count_only_far_beyond_listing(self, capsys):
        # (30, 45) has 77.5 million descent compositions; (1200, 1201) one of
        # 1201 elements.  The sizes d+1..d+8 and 2d-3..2d are answered in
        # closed form; a scan of (400, 403) or (300, 598) would take
        # 20-50 s.  None may take long.
        for d, n, want in (
            (30, 45, count_basis(30, 45)),
            (1200, 1201, 1),
            (400, 402, 2**402 - 401 * 402 - 2),
            (1000, 1002, 2**1002 - 1001 * 1002 - 2),
            (400, 403, 3**403 - 4 * (400**2 + 4 * 400 + 7) * 2**400
             + (400**4 + 5 * 400**3 + 10 * 400**2 + 12 * 400 + 2) // 2),
            (300, 598, comb(598, 299) // 300
             * (301 * 4**299 - 2 * (2 * 300**2 + 3 * 300 + 4) * 3**297) // 301),
            (1200, 2399, 2**1198 * comb(2399, 1198)),
            (1200, 2400, comb(2400, 1200) // 1201),
        ):
            start = time.perf_counter()
            code, out, _ = run(capsys, "enumerate", "-d", str(d), "-n", str(n), "--count-only")
            assert time.perf_counter() - start < 1.0
            assert code == 0
            assert out == f"{want}\n"

    def test_counts_past_the_digit_limit_print_in_full(self, capsys, monkeypatch):
        # The Catalan number C_8000 has 4,811 digits, past the interpreter's
        # default limit of 4,300 on int-to-text conversion; the size-(d+2)
        # count at d = 100000 has 30,104.  The limit is lifted only while
        # the counts are printed.
        limit = sys.get_int_max_str_digits()
        for d, n, want in (
            (8000, 16000, comb(16000, 8000) // 8001),
            (100000, 100002, 2**100002 - 100001 * 100002 - 2),
        ):
            plain = run(capsys, "enumerate", "-d", str(d), "-n", str(n), "--count-only")
            as_json = run(capsys, "enumerate", "-d", str(d), "-n", str(n), "--count-only", "--format", "json")
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)
            try:
                assert plain == (0, f"{want}\n", "")
                assert as_json == (0, json.dumps({"d": d, "n": n, "count": want}) + "\n", "")
            finally:
                sys.set_int_max_str_digits(limit)
        assert len(plain[1]) > limit
        # Refused before the counts, and while they are printed.
        assert run(capsys, "enumerate", "-d", "1000000000", "-n", "1000000002", "--count-only")[0] == 2
        assert sys.get_int_max_str_digits() == limit

        def broken(lines):
            raise ValueError("output failed")

        monkeypatch.setattr(cli, "_emit", broken)
        assert run(capsys, "enumerate", "-d", "3", "--format", "bfile") == (2, "", "error: output failed\n")
        assert sys.get_int_max_str_digits() == limit

    def test_large_table_from_one_scan(self, capsys, monkeypatch):
        # One scan of the band 49..76 gives the 28 sizes that have no closed
        # form: the table makes a single band call of the rank scan, not one
        # per size.
        scan, calls = permdl.minimal._rank_scan, []

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(permdl.minimal, "_rank_scan", counted)
        code, out, _ = run(capsys, "enumerate", "-d", "40")
        assert calls == [(40, 49, 76)]
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# d=40 sizes 41..80"
        counts = dict(map(int, line.split()) for line in lines[1:-1])
        assert list(counts) == list(range(41, 81))
        # The first two sizes and the last, the Catalan number C_40, match their closed forms.
        assert counts[41] == 1 and counts[42] == 2**42 - 41 * 42 - 2
        assert counts[80] == 2622127042276492108820
        assert lines[-1] == f"total {sum(counts.values())}"

    def test_count_only_bfile(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "3", "-n", "6", "--count-only", "--format", "bfile")
        assert code == 0
        assert out == "6 5\n"

    def test_member_bfile_rejected(self, capsys):
        line = "error: --format bfile applies only to tables and --count-only"
        assert refused(capsys, "enumerate", "-d", "3", "-n", "5", "--format", "bfile").endswith(line)
        assert refused(capsys, "enumerate", "-d", "3", "-n", "5", "--format", "bfile", "--limit", "1").endswith(line)

    def test_bad_d(self, capsys):
        code, _, err = run(capsys, "enumerate", "-d", "0")
        assert code == 2


class TestListingRoute:
    """The raw-word listing against the public ``enumerate_basis`` route."""

    def test_plain_equals_slice_to_text(self, capsys):
        for n in range(0, 11):
            for d in range(1, 11):
                code, out, err = run(capsys, "enumerate", "-d", str(d), "-n", str(n))
                assert code == 0 and err == ""
                assert out == slice_to_text(enumerate_basis(d, n)) + "\n"

    def test_json_and_csv_list_the_same_first_members(self, capsys):
        for n in range(0, 11):
            for d in range(1, 11):
                s = enumerate_basis(d, n)
                first = [list(p.values) for p in s.members[:3]]
                args = ("enumerate", "-d", str(d), "-n", str(n), "--limit", "3")
                _, out, _ = run(capsys, *args, "--format", "json")
                data = json.loads(out)
                assert (data["count"], data["members"]) == (s.count, first)
                assert data.get("truncated", False) == (s.count > 3)
                _, out, _ = run(capsys, *args, "--format", "csv")
                rows = [line.split(",") for line in out.splitlines()[1 : 1 + len(first)]]
                assert [[int(i), [int(v) for v in w.split()]] for i, w in rows] == [
                    [i, w] for i, w in enumerate(first, start=1)
                ]

    def test_json_and_csv_listings_equal_their_members(self, capsys, monkeypatch):
        # Whole and cut to ten members, in text chunks down to one line, each
        # json listing is json.dumps of the enumerate_basis members and each
        # csv listing is each member after its index.
        default = posets._CHUNK_LINES
        slices = [(d, n) for d in range(1, 7) for n in range(d + 1, 2 * d + 1)] + [(7, 11), (13, 15)]
        for d, n in slices:
            members = [list(p.values) for p in enumerate_basis(d, n).members]
            for limit in (None, 10):
                shown, truncated = members[:limit], limit is not None and len(members) > limit
                head = {"d": d, "n": n, "count": len(members), "members": shown}
                want_json = json.dumps({**head, **({"truncated": True} if truncated else {})}) + "\n"
                lines = [" ".join(map(str, w)) for w in shown]
                want_csv = "index,permutation\n" + "".join(f"{i},{line}\n" for i, line in enumerate(lines, 1))
                want_csv += f"# truncated at {limit}\n" if truncated else ""
                argv = ["enumerate", "-d", str(d), "-n", str(n), *(() if limit is None else ("--limit", str(limit)))]
                for chunk_lines in (1, 7, default):
                    monkeypatch.setattr(posets, "_CHUNK_LINES", chunk_lines)
                    assert run(capsys, *argv, "--format", "json") == (0, want_json, "")
                    assert run(capsys, *argv, "--format", "csv") == (0, want_csv, "")

    def test_tree_levels_in_generating_tree_order(self, capsys):
        for depth in range(1, 11):
            code, out, _ = run(capsys, "bijection", "tree", "--depth", str(depth))
            assert code == 0
            *lines, sizes = out.splitlines()
            levels = [[] for _ in range(depth)]
            for line in lines:
                body = line.lstrip(" ")
                levels[(len(line) - len(body)) // 2].append(body)
            want = generating_tree(depth)
            assert levels == [[str(node.perm) for node in level] for level in want]
            assert sizes == "level sizes: " + " ".join(str(len(level)) for level in want)

    def test_tree_lines_in_depth_first_order(self, capsys, monkeypatch):
        # The plain tree is a preorder walk of the generating tree, each
        # node indented two spaces per level below the root, however its
        # lines are split into text chunks.  Through depth 4 every value's
        # name is as wide as the indent's, so only the named padding keeps
        # NUL bytes out of the text.
        def preorder(node, level, depth):
            yield "  " * level + str(node.perm) + "\n"
            if level + 1 < depth:
                for kid in eco_children(node):
                    yield from preorder(kid, level + 1, depth)

        for depth in range(1, 10):
            text = "".join(preorder(eco_root(), 0, depth))
            for chunk_lines in (1, 7, posets._CHUNK_LINES):
                monkeypatch.setattr(posets, "_CHUNK_LINES", chunk_lines)
                code, out, _ = run(capsys, "bijection", "tree", "--depth", str(depth))
                assert code == 0 and out[: len(text)] == text
                assert out[len(text) :].startswith("level sizes: ") and out[len(text) :].count("\n") == 1

    def test_reversed_identity_past_one_byte_digits(self, capsys):
        # The one member of the size-(d+1) slice, with values past 255.
        for d in (255, 256, 300):
            word = list(range(d + 1, 0, -1))
            text = " ".join(map(str, word))
            want = {
                "plain": f"# d={d} n={d + 1} count=1\n{text}\n",
                "json": json.dumps({"d": d, "n": d + 1, "count": 1, "members": [word]}) + "\n",
                "csv": f"index,permutation\n1,{text}\n",
            }
            for fmt, out in want.items():
                assert run(capsys, "enumerate", "-d", str(d), "-n", str(d + 1), "--format", fmt) == (0, out, "")

    def test_one_member_listing_is_the_reversed_identity(self, capsys):
        # Built as one word, not peeled: the peel copies a row of n digits in
        # each of its n layers, quadratic in all.
        d = 20000
        word = list(range(d + 1, 0, -1))
        text = " ".join(map(str, word))
        want = {
            "plain": f"# d={d} n={d + 1} count=1\n{text}\n",
            "json": json.dumps({"d": d, "n": d + 1, "count": 1, "members": [word]}) + "\n",
            "csv": f"index,permutation\n1,{text}\n",
        }
        for fmt, out in want.items():
            start = time.perf_counter()
            assert run(capsys, "enumerate", "-d", str(d), "-n", str(d + 1), "--format", fmt) == (0, out, "")
            assert time.perf_counter() - start < 1.0

    def test_wide_digits_render_like_words(self, monkeypatch):
        # Two- and four-byte digits, which only one-member slices and single
        # posets of 256 nodes or more reach, split across text chunks, with
        # the separators of plain lines and of JSON lists.
        default = posets._CHUNK_LINES
        for n, (sep, end) in itertools.product((256, 65536), SEPARATORS):
            rng = random.Random(n)
            words = sorted([tuple(range(n, 0, -1)), *(tuple(rng.sample(range(1, n + 1), n)) for _ in range(4))])
            want = "".join(sep.join(map(str, w)) + end for w in words)
            for chunk_lines in (1, 2, default):
                monkeypatch.setattr(posets, "_CHUNK_LINES", chunk_lines)
                assert "".join(posets._word_chunks([digit_row(w, n) for w in words], n, sep, end)) == want

    def test_one_byte_digits_render_at_every_name_width(self, monkeypatch):
        # Names of one to three digits, up to the largest one-byte n, in
        # chunks down to one row, with the separators of plain lines and of
        # JSON lists: each chunk writes its own row ends.
        default = posets._CHUNK_LINES
        for n, (sep, end) in itertools.product((1, 9, 10, 99, 100, 254, 255), SEPARATORS):
            rng = random.Random(n)
            words = sorted({tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)})
            want = "".join(sep.join(map(str, w)) + end for w in words)
            for chunk_lines in (1, 3, default):
                monkeypatch.setattr(posets, "_CHUNK_LINES", chunk_lines)
                assert "".join(posets._word_chunks([digit_row(w, n) for w in words], n, sep, end)) == want

    def test_chunked_writes_change_no_byte(self, capsys, monkeypatch):
        cases = [
            ("enumerate", "-d", str(d), "-n", str(n), "--format", fmt, *limit)
            for d in range(1, 7)
            for n in range(d + 1, 2 * d + 1)
            for fmt in ("plain", "csv", "json")
            for limit in ((), ("--limit", "3"), ("--limit", "7"))
        ]
        cases += [("bijection", "tree", "--depth", str(depth)) for depth in range(1, 9)]
        whole = [run(capsys, *argv) for argv in cases]
        monkeypatch.setattr(posets, "_CHUNK_LINES", 7)
        assert [run(capsys, *argv) for argv in cases] == whole

    def test_empty_slice_of_huge_size_answers_at_once(self, capsys):
        # n is far outside d+1..2d: the slice is empty, and nothing may be
        # sized from n itself.
        want = {
            "plain": "# d=1 n=1000000000 count=0\n",
            "json": '{"d": 1, "n": 1000000000, "count": 0, "members": []}\n',
            "csv": "index,permutation\n",
        }
        for fmt, text in want.items():
            for extra in ((), ("--limit", "3")):
                start = time.perf_counter()
                code, out, err = run(capsys, "enumerate", "-d", "1", "-n", "1000000000", "--format", fmt, *extra)
                assert time.perf_counter() - start < 1.0
                assert (code, out, err) == (0, text, "")


def no_scan(*args):
    raise AssertionError(f"a refusal ran the rank scan of {args}")


class TestRefusals:
    """Requests above ``cli.MAX_LISTED`` are refused before any work.

    That cap bounds the members of a listing, the nodes of a tree and the
    values an evolve walk, a poset or a phi member holds.
    """

    def refused(self, capsys, *argv) -> str:
        # A refusal never runs the rank scan: it is decided on sizes, the
        # diagonal floor and counts the closed forms give.
        start = time.perf_counter()
        with mock.patch.object(minimal, "_rank_scan", no_scan):
            code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        return err

    def test_listings_too_large_to_build(self, capsys):
        for argv in (
            ["enumerate", "-d", "10", "-n", "16"],
            ["enumerate", "-d", "10", "-n", "16", "--limit", "5"],
            ["enumerate", "-d", "30", "-n", "45", "--limit", "5", "--format", "json"],
            ["enumerate", "-d", "8", "-n", "12", "--format", "csv"],
            # Refused on the floor of their diagonal or on a few small
            # counts along it, never on their own count, which takes about
            # 1, 13, 5 and 13 s for (60, 90), (100, 150), (182, 186) and the
            # two d = 500000 slices.
            ["enumerate", "-d", "60", "-n", "90"],
            ["enumerate", "-d", "100", "-n", "150", "--limit", "5"],
            ["enumerate", "-d", "1200", "-n", "2399"],
            ["enumerate", "-d", "1000", "-n", "1002", "--format", "csv"],
            ["enumerate", "-d", "182", "-n", "186"],
            ["enumerate", "-d", "500000", "-n", "1000000"],
            ["enumerate", "-d", "500000", "-n", "999999", "--format", "json"],
        ):
            assert "--count-only" in self.refused(capsys, *argv)
        # Members of 2 * 10^9 values are refused before the slice is counted.
        err = self.refused(capsys, "enumerate", "-d", "1000000000", "-n", "2000000000")
        assert err == "error: a d=1000000000 member has 2000000000 values, more than the 1000000 a request may hold\n"

    def test_trees_too_large_to_print(self, capsys):
        for depth in ("13", "20", "1000000000"):
            for fmt in ("plain", "json"):
                err = self.refused(capsys, "bijection", "tree", "--depth", depth, "--format", fmt)
                assert "--count-only" in err

    def test_no_refusal_at_the_cap_scans(self, capsys):
        # Every nonempty slice n = D + j with j >= 2 is over the cap.  For
        # j = 2..20 the diagonal walk reads only the rows j <= 6 and the
        # forms at 2e-2, 2e-1 and 2e before it passes the cap, by e = 21;
        # from j = 21 on, the floor 2^(j-1) refuses before anything is
        # counted, so the sweep at D = 10^6 - j stops at j = 1000 and then
        # takes its last j.  Tree levels are Catalan numbers, from the 2d form.
        for d in (22, 1000):
            for j in range(2, d + 1):
                self.refused(capsys, "enumerate", "-d", str(d), "-n", str(d + j))
        for j in (*range(2, 1001), 500000):
            self.refused(capsys, "enumerate", "-d", str(10**6 - j), "-n", str(10**6))
        for depth in range(13, 21):
            self.refused(capsys, "bijection", "tree", "--depth", str(depth))

    def test_requests_too_large_to_hold(self, capsys):
        for argv in (
            ["evolve", "-n", "1", "--steps", "1000000000"],
            ["evolve", "-n", "1000000000", "--steps", "1"],
            ["evolve", "-n", "1000", "--steps", "1000", "--format", "json"],
            ["poset", "--ladder", "100000000"],
            ["poset", "--composition", "1000000000"],
            ["poset", "--composition", "3,999999,2", "--format", "json"],
            ["bijection", "phi1", "-d", "1000000000", "1,3"],
            ["bijection", "phi2", "-d", "1000000000", "1,3", "--format", "json"],
            ["enumerate", "-d", "1000000", "-n", "1000001"],
            ["enumerate", "-d", "1000000000", "-n", "1000000002", "--count-only"],
            # A whole table answers for members of size up to 2d.
            ["enumerate", "-d", "100000000"],
            ["enumerate", "-d", "100000000", "--format", "json"],
        ):
            assert "a request may hold" in self.refused(capsys, *argv)

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        # (3, 5) has 10 members; a tree of depth 3 has 1 + 2 + 5 nodes; a
        # 3-step walk on 2 values holds up to 8 values, the 4-step ladder and
        # the (2, 4) poset have 8 nodes, a d=6 member has 8 values, and so
        # has the largest member of the d=4 table.
        monkeypatch.setattr(cli, "MAX_LISTED", 10)
        assert run(capsys, "enumerate", "-d", "3", "-n", "5")[0] == 0
        monkeypatch.setattr(cli, "MAX_LISTED", 9)
        self.refused(capsys, "enumerate", "-d", "3", "-n", "5")
        at_eight = (
            ["bijection", "tree", "--depth", "3"],
            ["evolve", "-n", "2", "--steps", "3"],
            ["poset", "--ladder", "4"],
            ["poset", "--composition", "2,4"],
            ["bijection", "phi1", "-d", "6", "1,3"],
            ["bijection", "phi2", "-d", "6", "1,3"],
            ["enumerate", "-d", "4"],
        )
        monkeypatch.setattr(cli, "MAX_LISTED", 8)
        for argv in at_eight:
            assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_LISTED", 7)
        for argv in at_eight:
            self.refused(capsys, *argv)

    def test_diagonal_walk_refuses_before_counting(self, capsys, monkeypatch):
        # (5, 7) lies on the diagonal n - d = 2, whose slices (2, 4), (3, 5),
        # (4, 6) and (5, 7) have 2, 10, 32 and 84 members.  At a cap of 9 the
        # walk stops at (3, 5), and (5, 7) itself is never counted.
        counted = []
        monkeypatch.setattr(cli, "count_basis", lambda d, n: counted.append((d, n)) or count_basis(d, n))
        monkeypatch.setattr(cli, "MAX_LISTED", 9)
        err = self.refused(capsys, "enumerate", "-d", "5", "-n", "7")
        assert err == "error: the d=5 n=7 slice has at least 10 members, more than the 9 a listing may hold; use --count-only\n"
        assert counted == [(2, 4), (3, 5)]
        # Where the walk stops at the slice itself, its count is exact.
        err = self.refused(capsys, "enumerate", "-d", "3", "-n", "5")
        assert err == "error: the d=3 n=5 slice has 10 members, more than the 9 a listing may hold; use --count-only\n"
        # Past the floor 2^(j-1), nothing is counted; the member size comes
        # first, so the floor needs a cap of at least n.
        counted.clear()
        monkeypatch.setattr(cli, "MAX_LISTED", 15)
        err = self.refused(capsys, "enumerate", "-d", "6", "-n", "11")
        assert err == "error: the d=6 n=11 slice has at least 2^4 members, more than the 15 a listing may hold; use --count-only\n"
        monkeypatch.setattr(cli, "MAX_LISTED", 4)
        err = self.refused(capsys, "enumerate", "-d", "5", "-n", "7")
        assert err == "error: a d=5 member has 7 values, more than the 4 a request may hold\n"
        assert counted == []

    def test_count_past_the_digit_limit_refused_by_its_size(self, capsys):
        # The count, about 1.1 * 10^4516, has more digits than the 4,300 the
        # interpreter turns into text; the refusal never computes it: the
        # walk along its diagonal stops at the d=18 slice.
        for fmt in ("plain", "json"):
            err = self.refused(capsys, "enumerate", "-d", "15000", "-n", "15002", "--format", fmt)
            assert err == (
                "error: the d=15000 n=15002 slice has at least 1048194 members, "
                "more than the 1000000 a listing may hold; use --count-only\n"
            )


class TestScenario:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "scenario", "6 9 8 4 1 3 7 2 5")
        assert code == 0
        assert out == (
            "target: 6 9 8 4 1 3 7 2 5\n"
            "steps: 3\n"
            "step 1: keep 1 3 4 6 7 9 | 1 2 3 4 5 6 7 8 9 -> 1 3 4 6 7 9 2 5 8\n"
            "step 2: keep 1 2 3 5 6 7 8 9 | 1 3 4 6 7 9 2 5 8 -> 1 3 6 7 9 2 5 8 4\n"
            "step 3: keep 4 6 8 9 | 1 3 6 7 9 2 5 8 4 -> 6 9 8 4 1 3 7 2 5\n"
            "end: 6 9 8 4 1 3 7 2 5\n"
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "scenario", "2 1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "steps": [[2]], "end": [2, 1]}
        # The command writes the library's wire format from the synthesis's runs.
        for host in ("1", "6 9 8 4 1 3 7 2 5", str(random_evolution(10**4, 6, 4).end)):
            code, out, _ = run(capsys, "scenario", host, "--format", "json")
            assert out == json.dumps(scenario_to_json(synthesize_scenario(parse_permutation(host)))) + "\n"

    def test_large_hosts_replay_line_by_line(self, capsys):
        n = 10**4
        shuffled = list(range(1, n + 1))
        random.Random(3).shuffle(shuffled)
        for host in (list(random_evolution(n, 5, 11).end.values), shuffled, list(range(n, 0, -1))):
            text = " ".join(map(str, host))
            code, out, _ = run(capsys, "scenario", text)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == f"target: {text}"
            steps = int(lines[1].removeprefix("steps: "))
            assert steps == sum(a > b for a, b in zip(host, host[1:])).bit_length()
            assert len(lines) == steps + 3
            assert replay_rendered_scenario(lines[2:], n) == host


class TestSpellings:
    # The plain and csv texts name values by the input's own tokens only
    # when every token already reads as str(value); any other spelling of
    # the same host prints the canonical bytes.
    HOST = "6 9 8 4 1 3 7 2 5 10 12 11"
    SPELLINGS = [
        HOST.replace(" ", ","),
        HOST.replace(" ", ", "),
        "  " + HOST.replace(" ", " \t  \n ") + "\n",
        HOST.replace(" 2 ", " +2 "),
        HOST.replace(" 2 ", " 02 "),
        HOST.replace(" 2 ", " ２ "),
        HOST.replace(" 10 ", " 1_0 "),
        HOST.replace(" 10 ", " 010 ").replace("6 ", "+6 ", 1),
    ]

    @pytest.mark.parametrize(
        "command, flags",
        [("stats", ()), ("stats", ("--format", "csv")), ("stats", ("--format", "json")),
         ("scenario", ()), ("scenario", ("--format", "json"))],
    )
    def test_every_spelling_prints_the_canonical_bytes(self, capsys, command, flags):
        want = run(capsys, command, self.HOST, *flags)
        assert want[0] == 0
        for text in self.SPELLINGS:
            assert text != self.HOST
            assert run(capsys, command, text, *flags) == want, text


class TestEvolve:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "evolve", "-n", "6", "--steps", "3", "--seed", "1")
        assert code == 0
        assert out == (
            "n: 6\n"
            "steps: 3\n"
            "seed: 1\n"
            "step 1: keep 1 2 4 5 | 1 2 3 4 5 6 -> 1 2 4 5 3 6\n"
            "step 2: keep 1 2 5 | 1 2 4 5 3 6 -> 1 2 5 4 3 6\n"
            "step 3: keep 4 5 6 | 1 2 5 4 3 6 -> 5 4 6 1 2 3\n"
            "end: 5 4 6 1 2 3\n"
        )

    def test_empty_kept_set_prints_a_dash(self, capsys):
        code, out, _ = run(capsys, "evolve", "-n", "2", "--steps", "2", "--seed", "2")
        assert code == 0
        assert out.splitlines()[3:] == ["step 1: keep - | 1 2 -> 1 2", "step 2: keep 1 | 1 2 -> 1 2", "end: 1 2"]

    def test_large_walk_replays_line_by_line(self, capsys):
        n, steps, seed = 10**4, 6, 21
        code, out, _ = run(capsys, "evolve", "-n", str(n), "--steps", str(steps), "--seed", str(seed))
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == [f"n: {n}", f"steps: {steps}", f"seed: {seed}"]
        assert len(lines) == steps + 4
        walk = scenario_to_json(random_evolution(n, steps, seed))
        kept = [line.split(" | ", 1)[0].split(": keep ", 1)[1] for line in lines[3:-1]]
        assert kept == [" ".join(map(str, k)) or "-" for k in walk["steps"]]
        assert replay_rendered_scenario(lines[3:], n) == walk["end"]

    def test_json(self, capsys):
        want = json.dumps(scenario_to_json(random_evolution(6, 3, 1))) + "\n"
        assert run(capsys, "evolve", "-n", "6", "--steps", "3", "--seed", "1", "--format", "json") == (0, want, "")

    def test_deterministic(self, capsys):
        first = run(capsys, "evolve", "-n", "7", "--steps", "4", "--seed", "9")
        second = run(capsys, "evolve", "-n", "7", "--steps", "4", "--seed", "9")
        assert first == second


class TestBijectionCommands:
    def test_dyck_forward(self, capsys):
        code, out, _ = run(capsys, "bijection", "dyck", "UUDUUDDDUD")
        assert code == 0
        assert out == "3 1 6 2 7 4 8 5 10 9\n"

    def test_dyck_backward(self, capsys):
        code, out, _ = run(capsys, "bijection", "dyck", "3 1 6 2 7 4 8 5 10 9")
        assert code == 0
        assert out == "UUDUUDDDUD\n"

    def test_dyck_json(self, capsys):
        code, out, _ = run(capsys, "bijection", "dyck", "UDUD", "--format", "json")
        assert json.loads(out) == {"path": "UDUD", "permutation": [2, 1, 4, 3]}

    def test_dyck_bad_path(self, capsys):
        code, _, err = run(capsys, "bijection", "dyck", "UUDDDU")
        assert code == 2

    def test_phi1(self, capsys):
        code, out, _ = run(capsys, "bijection", "phi1", "-d", "7", "3,4,5,8")
        assert code == 0
        assert out == "8 5 4 3 9 7 6 2 1\n"

    def test_phi1_invert(self, capsys):
        code, out, _ = run(capsys, "bijection", "phi1", "--invert", "8 5 4 3 9 7 6 2 1")
        assert code == 0
        assert out == "3,4,5,8\n"

    def test_phi1_requires_d(self, capsys):
        line = refused(capsys, "bijection", "phi1", "3,4,5,8")
        assert line.endswith("error: one of the arguments -d/--descents --invert is required")

    def test_phi2(self, capsys):
        code, out, _ = run(capsys, "bijection", "phi2", "-d", "5", "1,2,5")
        assert code == 0
        assert out == "7 6 2 1 5 4 3\ntype: D\n"

    def test_phi2_invert(self, capsys):
        code, out, _ = run(capsys, "bijection", "phi2", "--invert", "7 6 2 1 5 4 3")
        assert code == 0
        assert out == "1,2,5\n"

    def test_phi2_json_has_diamond(self, capsys):
        code, out, _ = run(capsys, "bijection", "phi2", "-d", "5", "1,2,5", "--format", "json")
        data = json.loads(out)
        assert data["type"] == "D"
        assert data["subset"] == [1, 2, 5]
        assert set(data["diamond"]) == {"ascent_position", "left", "bottom", "top", "right"}

    def test_phi_round_trips_through_the_cli(self, capsys):
        # Every non-interval subset with d <= 6, forward and then inverted,
        # in plain and json; phi2 adds its member's S2 classification.
        for d in range(1, 7):
            for subset in non_interval_subsets(d):
                text = ",".join(map(str, sorted(subset.elements)))
                for name, perm in (("phi1", phi1(subset)), ("phi2", phi2(subset)[0])):
                    extra = {}
                    if name == "phi2":
                        cls = classify_s2(perm)
                        extra = {"type": cls.type_tag, "diamond": {
                            "ascent_position": cls.ascent_position,
                            "left": cls.left,
                            "bottom": cls.bottom,
                            "top": cls.top,
                            "right": cls.right,
                        }}
                    plain = f"{perm}\n" + (f"type: {cls.type_tag}\n" if extra else "")
                    assert run(capsys, "bijection", name, "-d", str(d), text) == (0, plain, "")
                    assert run(capsys, "bijection", name, "--invert", str(perm)) == (0, f"{text}\n", "")
                    want = {"d": d, "subset": sorted(subset.elements), "permutation": list(perm.values), **extra}
                    for argv in (["-d", str(d), text], ["--invert", str(perm)]):
                        code, out, err = run(capsys, "bijection", name, *argv, "--format", "json")
                        assert (code, err) == (0, "")
                        assert list(json.loads(out).items()) == list(want.items())

    def test_interval_subset_rejected(self, capsys):
        code, _, err = run(capsys, "bijection", "phi1", "-d", "3", "2,3")
        assert code == 2

    @pytest.mark.parametrize("name, text", [("phi1", ""), ("phi2", " ")])
    def test_empty_subset_rejected(self, capsys, name, text):
        assert run(capsys, "bijection", name, text, "-d", "3") == (2, "", "error: subset must be non-empty\n")

    def test_tree(self, capsys):
        code, out, _ = run(capsys, "bijection", "tree", "--depth", "3")
        assert code == 0
        assert out == (
            "2 1\n"
            "  2 1 4 3\n"
            "    2 1 4 3 6 5\n"
            "    2 1 5 3 6 4\n"
            "  3 1 4 2\n"
            "    3 1 4 2 6 5\n"
            "    3 1 5 2 6 4\n"
            "    4 1 5 2 6 3\n"
            "level sizes: 1 2 5\n"
        )

    def test_tree_depth_must_be_positive(self, capsys):
        assert run(capsys, "bijection", "tree", "--depth", "0") == (2, "", "error: depth must be at least 1\n")

    def test_tree_json(self, capsys):
        # The json tree equals json.dumps of the tree eco_children grows:
        # the same nodes, labels and children in the same order.
        def tree(node, depth):
            payload = {"perm": list(node.perm.values), "label": node.label}
            if depth > 1:
                payload["children"] = [tree(kid, depth - 1) for kid in eco_children(node)]
            return payload

        for depth in range(1, 9):
            want = json.dumps({"depth": depth, "root": tree(eco_root(), depth)}) + "\n"
            assert run(capsys, "bijection", "tree", "--depth", str(depth), "--format", "json") == (0, want, "")


class TestPoset:
    def test_ladder(self, capsys):
        code, out, _ = run(capsys, "poset", "--ladder", "2")
        assert code == 0
        assert out == "1 -> 3\n2 -> 1\n2 -> 4\n4 -> 3\n"

    def test_composition(self, capsys):
        code, out, _ = run(capsys, "poset", "--composition", "1,2")
        assert code == 0
        assert out == "1 -> 3\n2 -> 1\n2 -> 4\n4 -> 3\n5 -> 4\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "poset", "--ladder", "1", "--format", "json")
        assert json.loads(out) == {"size": 2, "covers": [[2, 1]]}

    def test_requires_exactly_one_source(self, capsys):
        line = refused(capsys, "poset")
        assert line.endswith("error: one of the arguments --composition --ladder is required")
        line = refused(capsys, "poset", "--ladder", "2", "--composition", "1,1")
        assert line.endswith("error: argument --composition: not allowed with argument --ladder")


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_flags_a_command_ignores_are_refused(self, capsys):
        for argv in (
            ["bijection", "--format", "json", "dyck", "UDUD"],
            ["stats", "--limit", "1", "2 1"],
            ["bijection", "tree", "--limit", "2"],
            ["check", "2 1", "-d", "1", "--format", "csv"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_flags_a_request_would_ignore_are_refused(self, capsys):
        # Like --limit outside a listing: the grid is drawn only in plain
        # output, so its cell cap never decides a json or csv request, and
        # --invert reads d off the member.
        wide = " ".join(map(str, range(1001, 0, -1)))
        cases = [
            (["stats", perm, "--grid", "--format", fmt], "error: --grid applies only to plain output")
            for perm in ("3 1 4 2", wide)
            for fmt in ("json", "csv")
        ]
        member = "7 6 2 1 5 4 3"
        cases += [
            (["bijection", name, "--invert", member, "-d", "99"], "error: argument -d/--descents: not allowed with argument --invert")
            for name in ("phi1", "phi2")
        ]
        cases.append(
            (["bijection", "phi2", "-d", "5", "--invert", member], "error: argument --invert: not allowed with argument -d/--descents")
        )
        for argv, line in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines()[-1].endswith(line)

    def test_help_is_written_for_users(self, capsys):
        # The module docstring is for developers; --help gives the size cap
        # and the exit codes in plain words.
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"more than {cli.MAX_LISTED} members" in text
        for code in ("0 for success", "1 for a false predicate", "2 for usage", "141 when"):
            assert code in text
        assert "_refuse_over" not in text and "``" not in text

    def test_one_parser_serves_every_call(self, capsys):
        # A refusal, help output and valid commands back to back on the
        # cached parser print exactly what each prints on a fresh one.
        argvs = [
            ["enumerate", "-d", "3", "--limit", "1"],
            ["--help"],
            ["stats", "--help"],
            ["stats", "2 1 3", "--format", "csv"],
            ["frobnicate"],
            ["check", "2 1", "-d", "1"],
            ["enumerate", "-d", "2", "-n", "4", "--limit", "1"],
            ["stats", "--limit", "1", "2 1"],
            ["scenario", "3 1 2", "--format", "json"],
            ["evolve", "-n", "5", "--steps", "2"],
            ["stats", "2 2"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [call(argv) for argv in argvs]
        assert cli.build_parser.cache_info().currsize == 1
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(call(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2]

    def test_import_builds_no_parser(self):
        code = "import permdl.cli; print(permdl.cli.build_parser.cache_info().currsize)"
        src = str(Path(permdl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_import_starts_no_process_machinery(self):
        code = "import sys, permdl.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        src = str(Path(permdl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_closed_pipe_ends_without_a_traceback(self):
        # Each reader closes its end before the command writes a byte, so a
        # listing, a tree and even a table short enough to be written in one
        # flush at the end all meet a closed pipe.
        src = str(Path(permdl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argvs = [["enumerate", "-d", "6", "-n", "9"], ["bijection", "tree", "--depth", "10"], ["enumerate", "-d", "12"]]
        procs = []
        for argv in argvs:
            proc = subprocess.Popen(
                [sys.executable, "-m", "permdl.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
            proc.stdout.close()
            procs.append(proc)
        for argv, proc in zip(argvs, procs):
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (141, b""), argv
