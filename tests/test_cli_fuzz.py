"""Property test of ``cli.main`` over arbitrary argument lists.

Every input must get an answer or a refusal: exit code 0, 1 or 2 (argparse's
``SystemExit(2)`` counts as 2), no exception escaping ``main``, and the same
stdout when run twice.  Sizes stay small, apart from huge sizes that must be
answered at once (their listings are empty) or refused, so an accepted
request finishes quickly; a per-example deadline and an alarm make a slow or
hung run fail.
"""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from permdl.cli import main

# Integers up to 6 keep every accepted listing, tree and walk small.
INTS = st.integers(-2, 6).map(str)
# Sizes also take a huge value.  A listing of that size is empty, so it must
# be answered at once, never sized from n; a walk, poset or phi member that
# large must be refused before it is built.
SIZES = st.one_of(INTS, st.sampled_from([str(10**8), str(10**9)]))
FORMATS = st.sampled_from(["plain", "json", "csv", "bfile"])
PERMS = st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1)))
TEXTS = st.one_of(
    PERMS.map(lambda v: " ".join(map(str, v))),
    st.sampled_from(["UD", "UDUD", "UUDD", "UUDDUD", "UDUUDD", "DU", "UDX", "", " ", "1 x", "2,,1"]),
    st.lists(st.integers(-1, 9), min_size=1, max_size=8).map(lambda v: " ".join(map(str, v))),
    st.lists(st.integers(0, 8), min_size=1, max_size=5).map(lambda v: ",".join(map(str, v))),
)
# Each command with the arguments it takes: a strategy is a positional
# argument, a (flag, strategy) pair an option, (flag, None) a switch.
SHAPES = {
    ("stats",): [TEXTS, ("--grid", None), ("--format", FORMATS)],
    ("check",): [TEXTS, ("-d", INTS), ("--format", FORMATS)],
    ("enumerate",): [("-d", INTS), ("-n", SIZES), ("--limit", INTS), ("--count-only", None), ("--format", FORMATS)],
    ("scenario",): [TEXTS, ("--format", FORMATS)],
    ("evolve",): [("-n", SIZES), ("--steps", SIZES), ("--seed", st.integers(-3, 2**70).map(str)), ("--format", FORMATS)],
    ("poset",): [("--composition", TEXTS), ("--ladder", SIZES), ("--format", FORMATS)],
    ("bijection", "dyck"): [TEXTS, ("--format", FORMATS)],
    ("bijection", "phi1"): [TEXTS, ("-d", SIZES), ("--invert", None), ("--format", FORMATS)],
    ("bijection", "phi2"): [TEXTS, ("-d", SIZES), ("--invert", None), ("--format", FORMATS)],
    ("bijection", "tree"): [("--depth", INTS), ("--format", FORMATS)],
    ("bijection",): [],
    ("frobnicate",): [],
    (): [],
}
NOISE = st.one_of(st.sampled_from(["-h", "--limit", "-d", "--depth", "--invert", "-x", "--"]), INTS, TEXTS)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SHAPES)))
    argv = list(command)
    for slot in SHAPES[command]:
        if isinstance(slot, tuple):
            flag, value = slot
            if draw(st.integers(0, 3)):
                argv += [flag] if value is None else [flag, draw(value)]
        elif draw(st.integers(0, 9)):
            argv.append(draw(slot))
    if draw(st.booleans()):  # one stray token, anywhere after the command
        argv.insert(draw(st.integers(len(command), len(argv))), draw(NOISE))
    return argv


def _alarm(signum, frame):
    raise TimeoutError("cli.main did not return within 5 s")


def run_once(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=timedelta(seconds=1))
@given(argvs())
def test_every_request_answers_or_is_refused(argv):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        first = run_once(argv)
        second = run_once(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert second[:2] == first[:2]
