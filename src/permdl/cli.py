"""Command-line interface.

Every command is deterministic for fixed arguments (including --seed), and
identical invocations print byte-identical output.  Slice listings come from
the labellings of the shape posets, the one production enumeration route,
as sorted rows of digits that each format's separators render in one pass;
the library built them, so they are not checked again on the way out.  Both
tree formats come from one walk over rows of digits, and the plain one,
padded to one width, goes through the same renderer.

One cap rule bounds every request: an answer is built whole in memory before
it is printed, so one with more than MAX_LISTED parts is refused before
anything is built, with one line from ``_refuse_over``.  The parts are the
members of a listing, the nodes of a tree, the values of an evolve walk, a
poset or a phi member, the cells of a stats grid, and the values of the
largest member a count or a table answers for.  A listing is refused on its
member size first, before anything is counted, then on the diagonal
n - d = j it lies on: slice counts never fall along it, and it starts at a
slice of at least 2^(j-1) members, so a floor and a walk of a few small
counts up the diagonal refuse it.  Counts of listings over the cap stay
available through --count-only, and are printed in full however many digits
they have.
Exit codes: 0 for success or a true predicate, 1 for a false predicate
(``check`` on a non-minimal permutation), 2 for usage or parse errors and
refused requests, and 141 (128 + SIGPIPE, what a shell reports for a
process that signal ended) when the reader of stdout closes it early, as
``head`` does; the rest of the output is dropped, without a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

from .bijections import (
    DyckPath,
    NonIntervalSubset,
    _phi2_inverse,
    dyck_to_perm,
    perm_to_dyck,
    phi1,
    phi1_inverse,
    phi2,
)
from .duploss import _synthesis, apply_step, random_evolution, scenario_to_json
from .minimal import count_basis, count_table, is_minimal
from .perm import _integers, _parse_spelled, descents, maximal_runs, parse_permutation
from .posets import (
    DescentComposition,
    _line_chunks,
    _slice_words,
    _word_chunks,
    build_poset,
    ladder,
    poset_edges,
)


# The most members a listing, nodes a tree or cells a stats grid may hold,
# and the most values an evolve walk, a poset, a phi member or the largest
# member a count or a table answers for may hold: a larger answer is refused
# up front, since it is built whole in memory before it is printed.
MAX_LISTED = 10**6


def _refuse_over(amount: int, what: str, holder: str = "a request", hint: str = "") -> None:
    # The one cap rule: a request whose answer holds amount parts, described
    # by what, is refused in one line once amount passes MAX_LISTED.
    if amount > MAX_LISTED:
        raise ValueError(f"{what}, more than the {MAX_LISTED} {holder} may hold{hint}")


def _word_renderer(
    n: int, values: Sequence[int] = (), tokens: list[str] | None = None
) -> Callable[[Iterable[int]], str]:
    # Renders words over 1..n through one table of value names, so a value
    # shared by many words (the states of a scenario) is turned into text
    # once.  Given a permutation's values and its tokens, each already
    # str(value), the table holds those tokens, scattered by value.
    names = [str(v) for v in range(n + 1)] if tokens is None else [""] * (n + 1)
    for v, tok in zip(values, tokens or ()):
        names[v] = tok
    return lambda word: " ".join(map(names.__getitem__, word))


def _emit(lines: Iterable[str]) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_stats(args: argparse.Namespace) -> int:
    p, tokens = _parse_spelled(args.perm)
    if args.grid:
        _refuse_over(p.n * p.n, f"a grid of {p.n} values has {p.n * p.n} cells")
    ds = descents(p)
    cost = ds.count.bit_length()  # min_steps without a second descent scan
    if args.format == "json":
        print(
            json.dumps(
                {
                    "permutation": list(p.values),
                    "descent_count": ds.count,
                    "descent_positions": list(ds.positions),
                    "runs": [list(r) for r in maximal_runs(p).runs],
                    "min_steps": cost,
                }
            )
        )
        return 0
    # One list of names, the input's own tokens when each reads str(value),
    # serves the permutation and its runs: a run ends after each descent.
    names = list(map(str, p.values)) if tokens is None else tokens
    perm_text = " ".join(names)
    for i in ds.positions:
        names[i - 1] += " |"
    runs_text = " ".join(names)
    positions_text = " ".join(map(str, ds.positions))
    if args.format == "csv":
        _emit(
            [
                "statistic,value",
                f"permutation,{perm_text}",
                f"descent_count,{ds.count}",
                f"descent_positions,{positions_text or '-'}",
                f"runs,{runs_text.replace(' | ', '|')}",
                f"min_steps,{cost}",
            ]
        )
        return 0
    lines = [f"permutation: {perm_text}"]
    if ds.count:
        lines.append(f"descents: {ds.count} at positions {positions_text}")
    else:
        lines.append("descents: 0")
    lines.append(f"runs: {runs_text}")
    lines.append(f"min steps: {cost}")
    if args.grid:
        for v in range(p.n, 0, -1):
            lines.append(" ".join("o" if x == v else "." for x in p.values))
    _emit(lines)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    p = parse_permutation(args.perm)
    report = is_minimal(p, args.descents)
    if args.format == "json":
        fields = dataclasses.asdict(report)
        print(json.dumps({"minimal": fields.pop("is_minimal"), "expected_descents": args.descents, **fields}))
        return 0 if report.is_minimal else 1
    if report.is_minimal:
        print(f"minimal with {args.descents} descents")
        return 0
    if report.bad_ascent is None:
        print(f"not minimal: has {report.descent_count} descents, expected {args.descents}")
    else:
        pos = report.removable_position
        value = p.values[pos - 1]
        print(
            f"not minimal: ascent at position {report.bad_ascent} violates the "
            f"diamond condition; removing position {pos} (value {value}) keeps "
            f"the descent count at {args.descents}"
        )
    return 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    d = args.descents
    n = args.size
    listing = n is not None and not args.count_only
    # The closed forms of count_basis, the rank scan of a table and the
    # posets of a listing take memory in proportion to the largest member
    # answered for: size n, or 2d for a whole table.  An empty slice, n
    # outside d+1..2d, has no members and passes.
    largest = 2 * d if n is None else n if d < n <= 2 * d else 0
    _refuse_over(largest, f"a d={d} member has {largest} values")
    if not listing:
        # --count-only is the table of one size.
        counts = count_table(d) if n is None else {n: count_basis(d, n)}
        # Counts are printed in full, past the interpreter's limit on the
        # digits of an int turned into text; the limit holds again
        # afterwards, and for everything else, the parsing of input included.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if args.format == "bfile":
                _emit(f"{size} {c}" for size, c in counts.items())
            elif args.format == "csv":
                _emit(["n,count"] + [f"{size},{c}" for size, c in counts.items()])
            elif args.format == "json" and n is None:
                print(json.dumps({"d": d, "counts": counts, "total": sum(counts.values())}))
            elif args.format == "json":
                print(json.dumps({"d": d, "n": n, "count": counts[n]}))
            elif n is None:
                print(f"# d={d} sizes {d + 1}..{2 * d}")
                _emit(f"{size} {c}" for size, c in counts.items())
                print(f"total {sum(counts.values())}")
            else:
                print(counts[n])
        finally:
            sys.set_int_max_str_digits(limit)
        return 0
    # The whole slice is built before --limit truncates it, so the cap holds
    # with or without --limit.  Slice counts never fall along a diagonal
    # n - d = j: prepending a new largest value to a member keeps it minimal
    # with one more descent.  The diagonal starts at the size-2j slice, with
    # Cat(j) >= 2^(j-1) members, and every one with j >= 2 passes the cap by
    # d = 18, so a few small counts refuse any slice over it.
    j = n - d
    if 1 < j <= d:
        hint = "; use --count-only"
        _refuse_over(1 << (j - 1), f"the d={d} n={n} slice has at least 2^{j - 1} members", "a listing", hint)
        for e in range(j, d + 1):
            count = count_basis(e, e + j)
            least = "" if e == d else "at least "
            _refuse_over(count, f"the d={d} n={n} slice has {least}{count} members", "a listing", hint)
    rows = _slice_words(d, n)
    truncated = args.limit is not None and len(rows) > args.limit
    shown = rows[: args.limit] if truncated else rows
    if args.format == "json":
        # json.dumps's text: each member one list, values and lists separated
        # by ", ".  A member's "], [" opens the next list; the last closes all.
        sys.stdout.write(f'{{"d": {d}, "n": {n}, "count": {len(rows)}, "members": ' + ("[[" if shown else "[]"))
        sys.stdout.writelines(_word_chunks(shown[:-1], n, ", ", "], ["))
        sys.stdout.writelines(_word_chunks(shown[-1:], n, ", ", "]]"))
        print((', "truncated": true' if truncated else "") + "}")
        return 0
    if args.format == "csv":
        # The CSV rows are the plain lines, each after its index.
        print("index,permutation")
        index = 1
        for chunk in _word_chunks(shown, n, " ", "\n"):
            sys.stdout.write("".join(map("%d,%s\n".__mod__, enumerate(lines := chunk.splitlines(), index))))
            index += len(lines)
    else:
        print(f"# d={d} n={n} count={len(rows)}")
        sys.stdout.writelines(_word_chunks(shown, n, " ", "\n"))
    if truncated:
        print(f"# truncated at {args.limit}")
    return 0


def _scenario_lines(
    kept_sets: Iterable[Iterable[int]], states: Iterable[str], render: Callable[[Iterable[int]], str]
) -> Iterator[str]:
    # The sorted kept sets and the states come from the caller, each state
    # rendered once, the start first: one step's result is the next step's
    # start and, after the last step, the end.  Only two states are held.
    states = iter(states)
    before = next(states)
    for i, (kept_set, after) in enumerate(zip(kept_sets, states), start=1):
        kept = render(kept_set) or "-"
        yield f"step {i}: keep {kept} | {before} -> {after}"
        before = after
    yield f"end: {before}"


def cmd_scenario(args: argparse.Namespace) -> int:
    target, tokens = _parse_spelled(args.perm)
    states = _synthesis(target)
    # The step into a state of k runs keeps its first ceil(k/2) runs, each
    # sorted, so one sort merges them into the list scenario_to_json gives.
    kept_sets = (sorted(itertools.chain.from_iterable(runs[: (len(runs) + 1) // 2])) for runs in states[1:])
    if args.format == "json":
        print(json.dumps({"n": target.n, "steps": list(kept_sets), "end": list(target.values)}))
        return 0
    # Every state holds the values 1..n, so one table names them all (the
    # input's own tokens, when exact).  The states come as their runs, laid
    # end to end here; the last is the target, already spelled.
    render = _word_renderer(target.n, target.values, tokens)
    shown = render(target) if tokens is None else " ".join(tokens)
    _emit([f"target: {shown}", f"steps: {len(states) - 1}"])
    words = map(itertools.chain.from_iterable, states[:-1])
    _emit(_scenario_lines(kept_sets, itertools.chain(map(render, words), [shown]), render))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    n = args.size
    # The scenario holds up to n kept values per step and its n-value end.
    values = max(n, 0) * (args.steps + 1)
    _refuse_over(values, f"a walk with n={n} and steps={args.steps} holds up to {values} values")
    scenario = random_evolution(n, args.steps, args.seed)
    if args.format == "json":
        print(json.dumps(scenario_to_json(scenario)))
        return 0
    _emit([f"n: {n}", f"steps: {args.steps}", f"seed: {args.seed}"])
    render = _word_renderer(n)
    states = itertools.accumulate(scenario.steps, apply_step, initial=scenario.start)
    _emit(_scenario_lines((sorted(step.kept_first) for step in scenario.steps), map(render, states), render))
    return 0


def cmd_bijection_dyck(args: argparse.Namespace) -> int:
    text = args.arg.strip()
    is_path = set(text) <= {"U", "D"}
    if is_path:
        path = DyckPath(text)
        perm = dyck_to_perm(path)
    else:
        perm = parse_permutation(text)
        path = perm_to_dyck(perm)
    if args.format == "json":
        print(json.dumps({"path": path.steps, "permutation": list(perm.values)}))
    elif is_path:
        print(perm)
    else:
        print(path.steps)
    return 0


def _resolve_subset(args: argparse.Namespace) -> NonIntervalSubset:
    subset = NonIntervalSubset(args.descents, frozenset(_integers(args.arg)[1]))
    _refuse_over(subset.d + 2, f"a d={subset.d} member has {subset.d + 2} values")
    return subset


def cmd_bijection_phi(args: argparse.Namespace) -> int:
    # phi1 and phi2 map the same subsets to size-(d+2) members; phi2 also
    # reports the S2 classification of its member, which both of its
    # directions make anyway.
    phi2_named = args.bijection == "phi2"
    if args.invert:
        perm = parse_permutation(args.arg)
        subset, cls = _phi2_inverse(perm) if phi2_named else (phi1_inverse(perm), None)
    else:
        subset = _resolve_subset(args)
        perm, cls = phi2(subset) if phi2_named else (phi1(subset), None)
    payload = {"d": subset.d, "subset": sorted(subset.elements), "permutation": list(perm.values)}
    if cls is not None:
        diamond = dataclasses.asdict(cls)
        payload["type"] = diamond.pop("type_tag")
        payload["diamond"] = diamond
    if args.format == "json":
        print(json.dumps(payload))
    elif args.invert:
        print(",".join(map(str, payload["subset"])))
    else:
        print(perm)
        if cls is not None:
            print(f"type: {cls.type_tag}")
    return 0


def cmd_bijection_tree(args: argparse.Namespace) -> int:
    if args.depth < 1:
        raise ValueError("depth must be at least 1")
    # Level t holds the size-2t slice; stop counting once past the cap.
    # Below the cap, these counts are the level sizes printed after the tree.
    hint = "; count level t with 'enumerate -d t -n 2t --count-only'"
    sizes, nodes = [], 0
    for t in range(1, args.depth + 1):
        sizes.append(count_basis(t, 2 * t))
        nodes += sizes[-1]
        _refuse_over(nodes, f"a tree of depth {args.depth} has at least {nodes} nodes", hint=hint)

    # Both formats walk the nodes as rows: a size-2t node is the bytes of its
    # values, and its child with new last value i is the node with every value
    # >= i bumped up by one, then 2t+2 and i (eco_children's rule).  Its
    # children are the i past its last value j, moves[2t][j-1:], where moves[2t]
    # pairs bump[i] with 2t+2, i for i = 2..2t+1: a stack pops them in
    # eco_children's order.  The cap keeps depth <= 12: values are one byte.
    top, width = 2 * args.depth, 3 * args.depth - 1
    bump = {i: bytes(range(i)) + bytes(range(i + 1, 256)) + b"\0" for i in range(2, top)}
    moves = {size: [(bump[i], bytes((size + 2, i))) for i in range(2, size + 2)] for size in range(2, top, 2)}

    def walk(prefixes: dict[int, bytes]) -> Iterator[bytes]:
        # Depth first, each row after the prefix of its size.
        stack = [bytes((2, 1))]
        while stack:
            row = stack.pop()
            yield prefixes[len(row)] + row
            if len(row) < top:
                stack += [row.translate(table) + tail for table, tail in moves[len(row)][row[-1] - 1 :]]

    if args.format == "json":
        # In depth-first order each node is the next child of the last node
        # one level up, whose list of children kids holds by its size.
        kids: dict[int, list] = {0: []}
        for row in walk(dict.fromkeys(range(2, top + 1, 2), b"")):
            node: dict = {"perm": list(row), "label": len(row) - row[-1] + 1}
            kids[len(row) - 2].append(node)
            if len(row) < top:
                node["children"] = kids[len(row)] = []
        print(json.dumps({"depth": args.depth, "root": kids[0][0]}))
        return 0
    # Every line has width digits, named by the listings' column rule: one
    # digit top+1, "  ", per level below the root, then padding digits 0,
    # "" (unnamed, they would print as NULs), then the row: "v ", "v\n".
    prefixes = {2 * t: bytes([top + 1]) * (t - 1) + bytes(3 * (args.depth - t)) for t in range(1, args.depth + 1)}
    values = range(1, top + 1)
    names = {0: "", top + 1: "  ", **{v: f"{v} " for v in values}}
    sys.stdout.writelines(_line_chunks(walk(prefixes), names, {v: f"{v}\n" for v in values}, width))
    print(f"level sizes: {' '.join(str(s) for s in sizes)}")
    return 0


def cmd_poset(args: argparse.Namespace) -> int:
    if args.ladder is not None:
        composition, size = None, 2 * args.ladder
    else:
        composition = DescentComposition(tuple(_integers(args.composition)[1]))
        size = composition.n
    _refuse_over(size, f"a poset has {size} nodes")
    poset = ladder(args.ladder) if composition is None else build_poset(composition)
    if args.format == "json":
        print(json.dumps({"size": poset.size, "covers": sorted(list(c) for c in poset.covers)}))
    else:
        print(poset_edges(poset))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The permdl parser, built on first use and then shared by every call.

    Parsing leaves the parser unchanged, so one instance serves any number
    of ``main`` calls in a process; importing this module builds nothing.
    """
    parser = argparse.ArgumentParser(
        prog="permdl",
        description=(
            "Minimal permutations with d descents and the duplication-loss steps whose "
            "reachable permutations they bound: statistics, minimality checks, listings "
            "and counts of the size-n slices, shortest scenarios, bijections, random "
            f"walks and shape posets. An answer with more than {MAX_LISTED} members, "
            "nodes, cells or values is refused before it is built; counts of larger "
            "slices stay available through enumerate --count-only. Exit codes: 0 for "
            "success or a true predicate, 1 for a false predicate (check on a "
            "non-minimal permutation), 2 for usage or parse errors and refused "
            "requests, 141 when the reader of stdout closes it early."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, func, help, *extra_formats) -> argparse.ArgumentParser:
        # Each command declares exactly the formats it renders.
        p = group.add_parser(name, help=help)
        formats = ("plain", "json", *extra_formats)
        p.add_argument("--format", choices=formats, default="plain", help="output format")
        p.set_defaults(func=func)
        return p

    p_stats = leaf(sub, "stats", cmd_stats, "descents, runs, and step cost of a permutation", "csv")
    p_stats.add_argument("perm", help="permutation, e.g. '6 9 8 4 1 3 7 2 5'")
    p_stats.add_argument("--grid", action="store_true", help="append a dot-grid rendering")

    p_check = leaf(sub, "check", cmd_check, "test minimality for d descents")
    p_check.add_argument("perm")
    p_check.add_argument("-d", "--descents", type=int, required=True)

    p_enum = leaf(sub, "enumerate", cmd_enumerate, "list or count minimal permutations", "bfile", "csv")
    p_enum.add_argument("--limit", type=int, default=None, help="truncate -n listings")
    p_enum.add_argument("-d", "--descents", type=int, required=True)
    p_enum.add_argument("-n", "--size", type=int, default=None)
    p_enum.add_argument("--count-only", action="store_true")

    p_scen = leaf(sub, "scenario", cmd_scenario, "shortest derivation from the identity")
    p_scen.add_argument("perm")

    p_bij = sub.add_parser("bijection", help="slice bijections")
    bij_sub = p_bij.add_subparsers(dest="bijection", required=True)

    b_dyck = leaf(bij_sub, "dyck", cmd_bijection_dyck, "Dyck path <-> size-2d member")
    b_dyck.add_argument("arg", help="a U/D word, or a permutation to map back")

    for name in ("phi1", "phi2"):
        b = leaf(bij_sub, name, cmd_bijection_phi, f"{name}: subset <-> size-(d+2) member")
        b.add_argument("arg", help="subset '1,2,5' (or a permutation with --invert)")
        # The inverse reads d off the member, so it takes --invert instead of -d.
        direction = b.add_mutually_exclusive_group(required=True)
        direction.add_argument("-d", "--descents", type=int, default=None)
        direction.add_argument("--invert", action="store_true")

    b_tree = leaf(bij_sub, "tree", cmd_bijection_tree, "generating tree of the size-2d slices")
    b_tree.add_argument("--depth", type=int, default=4)

    p_evolve = leaf(sub, "evolve", cmd_evolve, "random duplication-loss walk")
    p_evolve.add_argument("-n", "--size", type=int, required=True)
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--seed", type=int, default=0)

    p_poset = leaf(sub, "poset", cmd_poset, "export a shape poset as an edge list")
    shape = p_poset.add_mutually_exclusive_group(required=True)
    shape.add_argument("--composition", help="descent composition, e.g. '3,3,1,7,2'")
    shape.add_argument("--ladder", type=int, help="ladder with this many steps")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "limit", None) is not None:
        if args.limit < 1:
            parser.error("--limit must be at least 1")
        if args.size is None or args.count_only:
            parser.error("--limit applies only to -n listings")
    if getattr(args, "grid", False) and args.format != "plain":
        parser.error("--grid applies only to plain output")
    if args.format == "bfile" and args.size is not None and not args.count_only:
        parser.error("--format bfile applies only to tables and --count-only")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The signal module's recipe for SIGPIPE: what stdout still buffers
        # goes to devnull when the interpreter flushes it on exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
