"""The four workloads: what each one asks permdl, and how each answer is checked.

Every workload is a closed loop with one client in one process.  A workload
hands the runner its requests cycle by cycle; every cycle holds the same
classes of request (same command, size and step count), and the seed picks
the concrete inputs and their order, so two runs see the same mix of work.
No request key repeats within a run, so no cache inside permdl can turn a
request into a hit.  ``count_tables`` and ``list_slices`` have a finite set
of keys, which is a single cycle; the other two generate fresh inputs forever.

Checks compare against the benchmark's own references (``oracles``), the
table committed with the benchmark, the repository's golden totals, and the
paper's theorems; a check returns None when the answer is right and a short
reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import checkout
import oracles


@dataclass
class Outcome:
    ns: int
    code: int | None = None
    out: str = ""
    err: str = ""
    value: object = None
    crash: str | None = None  # traceback of an exception that escaped permdl


@dataclass
class Request:
    key: tuple
    check: Callable[[Outcome], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    route: str = ""


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _expect_code(outcome: Outcome, code: int) -> str | None:
    if outcome.code != code:
        return f"exit code {outcome.code}, expected {code}: {outcome.err.strip()[:200]}"
    return None


class Workload:
    name = ""
    single_cycle = False

    def load(self) -> None:
        """Read input files; not part of set-up time."""

    def prepare(self, permdl) -> None:
        """One-off program-side preparation; part of set-up time."""

    def cycles(self, rng: random.Random, permdl) -> Iterator[Iterator[Request]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# count_tables: the composition DP behind per-size counts


class CountTables(Workload):
    """``enumerate -d D`` tables and ``enumerate -d D -n N --count-only``.

    Tables for d = 2..12 (d <= 5 so the golden totals apply), every size for
    d = 6..12, and the sizes of d = 13 with at most 220 descent compositions.
    The output format is drawn per request, so rendering varies too.
    """

    name = "count_tables"
    single_cycle = True
    FORMATS = ("plain", "json", "bfile", "csv")
    TABLE_DS = range(2, 13)
    COUNT_DS = range(6, 13)
    D13_SIZES = (14, 15, 16, 17, 23, 24, 25, 26)

    def load(self) -> None:
        self.expected = checkout.read_expected_counts()
        self.golden = checkout.read_golden_totals()

    def _count(self, d: int, n: int) -> int:
        count = self.expected[d, n]
        closed = oracles.closed_form_count(d, n)
        if closed is not None and closed != count:
            raise ValueError(f"expected table disagrees with the closed form at ({d}, {n})")
        return count

    def _table_check(self, d: int, fmt: str):
        sizes = list(range(d + 1, 2 * d + 1))
        want = {n: self._count(d, n) for n in sizes}
        total = sum(want.values())
        if d in self.golden and self.golden[d] != total:
            raise ValueError(f"expected table disagrees with the golden total for d={d}")
        rows = "\n".join(f"{n} {c}" for n, c in want.items())
        text = {
            "plain": f"# d={d} sizes {d + 1}..{2 * d}\n{rows}\ntotal {total}\n",
            "bfile": rows + "\n",
            "csv": "n,count\n" + "\n".join(f"{n},{c}" for n, c in want.items()) + "\n",
        }.get(fmt)

        def check(o: Outcome) -> str | None:
            if bad := _expect_code(o, 0):
                return bad
            if fmt == "json":
                got = json.loads(o.out)
                ok = got == {"d": d, "counts": {str(n): c for n, c in want.items()}, "total": total}
            else:
                ok = o.out == text
            return None if ok else f"table d={d} {fmt}: wrong counts"

        return check

    def _count_check(self, d: int, n: int, fmt: str):
        c = self._count(d, n)
        text = {"plain": f"{c}\n", "bfile": f"{n} {c}\n", "csv": f"n,count\n{n},{c}\n"}.get(fmt)

        def check(o: Outcome) -> str | None:
            if bad := _expect_code(o, 0):
                return bad
            ok = json.loads(o.out) == {"d": d, "n": n, "count": c} if fmt == "json" else o.out == text
            return None if ok else f"count ({d}, {n}) {fmt}: wrong count"

        return check

    def cycles(self, rng, permdl):
        keys = [("table", d) for d in self.TABLE_DS]
        keys += [("count", d, n) for d in self.COUNT_DS for n in range(d + 1, 2 * d + 1)]
        keys += [("count", 13, n) for n in self.D13_SIZES]
        rng.shuffle(keys)
        requests = []
        for key in keys:
            fmt = rng.choice(self.FORMATS)
            d = key[1]
            argv = ["enumerate", "-d", str(d), "--format", fmt]
            if key[0] == "table":
                requests.append(Request(key, self._table_check(d, fmt), argv=argv))
            else:
                n = key[2]
                argv += ["-n", str(n), "--count-only"]
                requests.append(Request(key, self._count_check(d, n, fmt), argv=argv))
        yield iter(requests)


# ---------------------------------------------------------------------------
# list_slices: materializing slices and the generating tree


class ListSlices(Workload):
    """Plain ``enumerate -d D -n N`` listings and ``bijection tree --depth T``.

    Listings cover sizes on both enumeration routes (n <= 9 goes through the
    brute-force filter, n >= 10 through the composition posets), each with at
    most about 150k members.  Trees have depth 8..10.
    """

    name = "list_slices"
    single_cycle = True
    BRUTE = [(3, 5), (4, 5), (3, 6), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7), (4, 8), (5, 8),
             (6, 8), (7, 8), (5, 9), (6, 9), (7, 9), (8, 9)]
    COMPOSITION = [(5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (6, 11), (7, 11), (8, 11),
                   (9, 11), (10, 11), (6, 12), (10, 12), (11, 12), (7, 13), (11, 13), (12, 13),
                   (7, 14), (12, 14), (13, 14), (13, 15), (14, 15), (8, 16), (14, 16), (15, 16),
                   (15, 17), (9, 18), (10, 20), (11, 22)]
    DEPTHS = (8, 9, 10)
    ORACLE_SAMPLE = 12

    def load(self) -> None:
        self.expected = checkout.read_expected_counts()

    def _count(self, d: int, n: int) -> int:
        closed = oracles.closed_form_count(d, n)
        table = self.expected.get((d, n))
        if closed is not None and table is not None and closed != table:
            raise ValueError(f"expected table disagrees with the closed form at ({d}, {n})")
        return closed if closed is not None else table

    def _sample_check(self, permdl, words, d, rng_seed) -> str | None:
        sample = random.Random(rng_seed).sample(words, min(self.ORACLE_SAMPLE, len(words)))
        for w in sample:
            if not permdl.is_minimal_oracle(permdl.Permutation(w), d):
                return f"{oracles.text(w)} fails is_minimal_oracle for d={d}"
        return None

    def _listing_check(self, permdl, d: int, n: int, sample_seed: int):
        want = self._count(d, n)

        def check(o: Outcome) -> str | None:
            if bad := _expect_code(o, 0):
                return bad
            lines = o.out.splitlines()
            if not lines or lines[0] != f"# d={d} n={n} count={want}":
                return f"listing ({d}, {n}): header {lines[:1]}, expected count {want}"
            words = [tuple(map(int, line.split())) for line in lines[1:]]
            if len(words) != want:
                return f"listing ({d}, {n}): {len(words)} members, expected {want}"
            if any(a >= b for a, b in zip(words, words[1:])):
                return f"listing ({d}, {n}): not sorted or has duplicates"
            full = list(range(1, n + 1))
            for w in words:
                if sorted(w) != full or not oracles.is_minimal_local(w, d):
                    return f"listing ({d}, {n}): {oracles.text(w)} is not a minimal permutation"
            return self._sample_check(permdl, words, d, sample_seed)

        return check

    def _tree_check(self, permdl, depth: int, sample_seed: int):
        def check(o: Outcome) -> str | None:
            if bad := _expect_code(o, 0):
                return bad
            lines = o.out.splitlines()
            sizes = [oracles.catalan(t) for t in range(1, depth + 1)]
            if lines[-1:] != ["level sizes: " + " ".join(map(str, sizes))]:
                return f"tree depth {depth}: level sizes {lines[-1:]}"
            levels: list[set[tuple[int, ...]]] = [set() for _ in range(depth)]
            for line in lines[:-1]:
                body = line.lstrip(" ")
                t = (len(line) - len(body)) // 2 + 1
                w = tuple(map(int, body.split()))
                if t > depth or len(w) != 2 * t or not oracles.is_minimal_local(w, t):
                    return f"tree depth {depth}: bad node {line!r}"
                levels[t - 1].add(w)
            if [len(level) for level in levels] != sizes:
                return f"tree depth {depth}: distinct nodes per level differ from Catalan numbers"
            return self._sample_check(permdl, sorted(levels[-1]), depth, sample_seed)

        return check

    def cycles(self, rng, permdl):
        keys = [("list", d, n) for d, n in self.BRUTE + self.COMPOSITION]
        keys += [("tree", t) for t in self.DEPTHS]
        rng.shuffle(keys)
        requests = []
        for key in keys:
            sample_seed = rng.getrandbits(32)
            if key[0] == "tree":
                t = key[1]
                argv = ["bijection", "tree", "--depth", str(t)]
                requests.append(Request(key, self._tree_check(permdl, t, sample_seed), argv=argv, route="tree"))
            else:
                _, d, n = key
                argv = ["enumerate", "-d", str(d), "-n", str(n)]
                route = "brute" if n <= 9 else "composition"
                check = self._listing_check(permdl, d, n, sample_seed)
                requests.append(Request(key, check, argv=argv, route=route))
        yield iter(requests)


# ---------------------------------------------------------------------------
# scenario_large: parsing, validation and scenario synthesis on big hosts


class ScenarioLarge(Workload):
    """``stats``, ``check -d`` and ``scenario`` on hosts of n = 10^4..10^5.

    Per size and cycle: one 8-step ``random_evolution`` walk whose 8
    intermediate permutations get ``scenario``; a second walk whose hosts
    alternate between ``stats`` and ``check`` (given the host's own descent
    count, so the ascent scan runs and rejects); and two size-n members built
    from random Dyck paths for ``stats`` and an accepting ``check``.  Requests
    keep only the host's text, and checks rebuild the host from it, so the
    harness's own memory stays small beside permdl's.
    """

    name = "scenario_large"
    SIZES = (10_000, 30_000, 100_000)
    STEPS = 8

    def _walk(self, permdl, n: int, seed: int) -> list[list[int]]:
        scenario = permdl.random_evolution(n, self.STEPS, seed)
        hosts, current = [], list(range(1, n + 1))
        for step in scenario.steps:
            current = oracles.apply_step(current, step.kept_first)
            hosts.append(current)
        if hosts[-1] != list(scenario.end.values):
            raise ValueError("replayed walk does not end where random_evolution says")
        return hosts

    @staticmethod
    def _host(text: str) -> list[int]:
        return list(map(int, text.split()))

    def _stats_request(self, text: str) -> Request:
        def check(o: Outcome) -> str | None:
            if bad := _expect_code(o, 0):
                return bad
            host = self._host(text)
            positions = oracles.descent_positions(host)
            desc = f"{len(positions)} at positions {oracles.text(positions)}" if positions else "0"
            want = (
                f"permutation: {text}\ndescents: {desc}\n"
                f"runs: {' | '.join(oracles.text(r) for r in oracles.increasing_runs(host))}\n"
                f"min steps: {oracles.min_steps(host)}\n"
            )
            return None if o.out == want else f"stats n={len(host)}: wrong output"

        return Request(("stats", digest(text)), check, argv=["stats", text])

    def _check_request(self, text: str, d: int) -> Request:
        def check(o: Outcome) -> str | None:
            host = self._host(text)
            if oracles.is_minimal_local(host, d):
                return _expect_code(o, 0) or (
                    None if o.out == f"minimal with {d} descents\n" else "check: wrong acceptance text"
                )
            if bad := _expect_code(o, 1):
                return bad
            words = o.out.split()
            try:
                ascent = int(words[words.index("position") + 1])
                pos = int(words[words.index("removing") + 2])
                value = int(words[words.index("(value") + 1].rstrip(")"))
            except (ValueError, IndexError):
                return f"check n={len(host)}: no witness in {o.out[:120]!r}"
            if not (host[ascent - 1] < host[ascent] and host[pos - 1] == value):
                return f"check n={len(host)}: witness does not match the host"
            if not oracles.removal_keeps_descents(host, pos, d):
                return f"check n={len(host)}: removing position {pos} loses a descent"
            return None

        return Request(("check", d, digest(text)), check, argv=["check", text, "-d", str(d)])

    def _scenario_request(self, text: str) -> Request:
        def check(o: Outcome) -> str | None:
            if bad := _expect_code(o, 0):
                return bad
            host = self._host(text)
            steps = oracles.min_steps(host)
            lines = o.out.splitlines()
            if lines[:2] != [f"target: {text}", f"steps: {steps}"] or len(lines) != steps + 3:
                return f"scenario n={len(host)}: header or step count wrong (want {steps})"
            current = list(range(1, len(host) + 1))
            for i, line in enumerate(lines[2:-1], start=1):
                head, _, rest = line.partition(" | ")
                before, _, after = rest.partition(" -> ")
                prefix = f"step {i}: keep "
                if not head.startswith(prefix) or before != oracles.text(current):
                    return f"scenario n={len(host)}: step {i} does not start where the last ended"
                kept = head[len(prefix):]
                current = oracles.apply_step(current, set() if kept == "-" else set(map(int, kept.split())))
                if after != oracles.text(current):
                    return f"scenario n={len(host)}: step {i} does not replay"
            if current != host or lines[-1] != f"end: {text}":
                return f"scenario n={len(host)}: replay does not reach the target"
            return None

        return Request(("scenario", digest(text)), check, argv=["scenario", text])

    def _size_group(self, rng, permdl, n: int) -> list[Request]:
        requests = [self._scenario_request(oracles.text(h)) for h in self._walk(permdl, n, rng.getrandbits(63))]
        for i, host in enumerate(self._walk(permdl, n, rng.getrandbits(63))):
            if i % 2:
                requests.append(self._check_request(oracles.text(host), oracles.descent_total(host)))
            else:
                requests.append(self._stats_request(oracles.text(host)))
        members = [oracles.dyck_member(oracles.random_dyck_word(n // 2, rng)) for _ in range(2)]
        requests.append(self._stats_request(oracles.text(members[0])))
        requests.append(self._check_request(oracles.text(members[1]), n // 2))
        rng.shuffle(requests)
        return requests

    def cycles(self, rng, permdl):
        while True:
            sizes = list(self.SIZES)
            rng.shuffle(sizes)
            yield (req for n in sizes for req in self._size_group(rng, permdl, n))


# ---------------------------------------------------------------------------
# basis_avoid: the pattern layer, checked by the paper's theorem


class BasisAvoid(Workload):
    """``avoids_basis(host, B_{2^p})`` for p = 1, 2 on hosts of n = 8..20.

    Hosts are ``random_evolution`` walks of p and p+1 steps: a p-step host
    always avoids the basis and forces a full search; a (p+1)-step host is
    redrawn until it has at least 2^p descents, so it involves the basis and
    the search exits early.  Exactly half the hosts avoid, so a rare costly
    host cannot swing a run.  By the paper's theorem the answer must equal
    ``reachable_within(host, p)``.
    """

    name = "basis_avoid"
    SIZES = (8, 11, 14, 17, 20)
    PATTERN_COUNTS = {1: 3, 2: 131}

    def load(self) -> None:
        self.texts = {p: checkout.read_basis_text(p) for p in (1, 2)}

    def prepare(self, permdl) -> None:
        self.bases = {p: permdl.parse_basis(text) for p, text in self.texts.items()}

    def _request(self, permdl, p: int, host) -> Request:
        basis = self.bases[p]
        want = permdl.reachable_within(host, p)
        own = oracles.descent_total(host.values) < 2**p

        def check(o: Outcome) -> str | None:
            if want != own:
                return f"reachable_within disagrees with the descent count for {host}"
            return None if o.value is want else f"avoids B_{2**p}: {o.value!r} for {host}, expected {want}"

        return Request(("avoids", p, host.values), check, call=lambda: permdl.avoids_basis(host, basis))

    def cycles(self, rng, permdl):
        for p, count in self.PATTERN_COUNTS.items():
            if len(self.bases[p].patterns) != count:
                raise ValueError(f"basis B_{2**p} has {len(self.bases[p].patterns)} patterns, expected {count}")
        seen: set[tuple] = set()
        while True:
            classes = [(p, steps, n) for p in (1, 2) for steps in (p, p + 1) for n in self.SIZES]
            rng.shuffle(classes)
            requests = []
            for p, steps, n in classes:
                while True:
                    host = permdl.random_evolution(n, steps, rng.getrandbits(63)).end
                    avoids = oracles.descent_total(host.values) < 2**p
                    if (p, host.values) not in seen and avoids == (steps == p):
                        break
                seen.add((p, host.values))
                requests.append(self._request(permdl, p, host))
            yield iter(requests)


WORKLOADS = {w.name: w for w in (CountTables, ListSlices, ScenarioLarge, BasisAvoid)}
