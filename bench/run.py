#!/usr/bin/env python3
"""permdl benchmark: one closed-loop client driving permdl in-process.

    python3 bench/run.py --workload count_tables --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8 --trace 0

CLI workloads call ``permdl.cli.main(argv)`` with stdout captured;
``basis_avoid`` calls the library.  Each request is timed on its own and its
output is checked after the clock stops.  A run keeps issuing whole cycles of
requests until the timed requests add up to ``--seconds``; the fixed-key
workloads stop after their single cycle.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; ``setup_s`` is the median over this process and several
fresh interpreters, each timing ``import permdl`` plus the workload's
preparation.  With ``--trace 1`` the layers are wrapped (see ``tracer.py``)
and the JSON holds the per-layer metrics; the same requests are then replayed
untraced in a fresh interpreter to give ``trace.overhead_ratio``, and
``list_slices`` times its composition-route listings with PERMDL_JOBS=2 to
give ``minimal.pool_speedup``.  ``--workload all`` runs every workload, each
in its own interpreter, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import exp, lgamma, log, log1p
from time import perf_counter, perf_counter_ns

FRESH_INTERPRETER = "permdl" not in sys.modules

import checkout  # noqa: E402
from speed import REFERENCE_NS, SpeedTrack, reference_ns  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Request  # noqa: E402

SETUP_PROBES = 6  # fresh interpreters, on top of the measuring process itself
WALL_CAP_S = 120.0  # stop issuing requests past this, whatever --seconds says
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "posets.compositions.items": "count/req",
    "posets.compositions.self_s": "s/req",
    "posets.build_poset.calls": "count/req",
    "posets.build_poset.self_s": "s/req",
    "posets.count_labellings.calls": "count/req",
    "posets.count_labellings.self_s": "s/req",
    "posets.labellings.items": "count/req",
    "posets.labellings.self_s": "s/req",
    "minimal.enumerate_brute.self_s": "s/req",
    "minimal.enumerate_brute.hit_ratio": "ratio",
    "minimal.enumerate_compositions.self_s": "s/req",
    "minimal.is_minimal.calls": "count/req",
    "minimal.is_minimal.self_s": "s/req",
    "minimal.pool_speedup": "ratio",
    "perm.validate.calls": "count/req",
    "perm.validate.self_s": "s/req",
    "perm.parse.calls": "count/req",
    "perm.parse.self_s": "s/req",
    "duploss.synthesize.calls": "count/req",
    "duploss.synthesize.self_s": "s/req",
    "duploss.steps.items": "count/req",
    "duploss.apply_step.calls": "count/req",
    "duploss.apply_step.self_s": "s/req",
    "bijections.eco_children.calls": "count/req",
    "bijections.eco_nodes.items": "count/req",
    "bijections.eco_children.self_s": "s/req",
    "patterns.avoids.calls": "count/req",
    "patterns.involves.calls": "count/req",
    "patterns.involves.hit_ratio": "ratio",
    "patterns.involves.self_s": "s/req",
    "patterns.parse_basis.self_s": "s",
    "patterns.parse_basis.total_s": "s",
    "cli.main.calls": "count/req",
    "cli.self_s": "s/req",
    "cli.stdout_bytes": "bytes/req",
    "perm.self_s": "s/req",
    "posets.self_s": "s/req",
    "minimal.self_s": "s/req",
    "bijections.self_s": "s/req",
    "duploss.self_s": "s/req",
    "patterns.self_s": "s/req",
    "trace.overhead_ratio": "ratio",
}


def execute(permdl, req: Request, tracer: Tracer | None) -> Outcome:
    """Run one request; only the call into permdl is inside the clock."""
    if tracer:
        tracer.active = True
    if req.call is not None:
        start = perf_counter_ns()
        try:
            value = req.call()
            outcome = Outcome(perf_counter_ns() - start, value=value)
        except Exception:
            outcome = Outcome(perf_counter_ns() - start, crash=traceback.format_exc())
    else:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter_ns()
            try:
                code = permdl.cli.main(req.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code, crash = None, traceback.format_exc()
            ns = perf_counter_ns() - start
        outcome = Outcome(ns, code=code, out=out.getvalue(), err=err.getvalue(), crash=crash)
    if tracer:
        tracer.active = False
        tracer.count("cli.stdout_bytes", len(outcome.out.encode()))
    return outcome


class Loop:
    """Results of one pass of the closed loop.

    ``latencies_ns`` are raw wall times; ``scaled_ns`` the same timings at the
    reference speed of ``speed.py``, which the reported metrics use.
    """

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.routes: list[str] = []
        self.failed = 0
        self.repeats = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def timed_ns(self) -> int:
        return sum(self.latencies_ns)


def run_loop(permdl, workload, seed: int, seconds: float, *, tracer=None, limit=None, check=True) -> Loop:
    rng = random.Random(f"{workload.name}:{seed}")
    loop = Loop()
    seen: set[tuple] = set()
    track = SpeedTrack()
    # Objects alive now (permdl's modules, the harness) are never garbage;
    # freezing them keeps the collection before each request cheap.
    gc.collect()
    gc.freeze()
    scaled_total = 0.0
    wall_start = perf_counter()
    for cycle in workload.cycles(rng, permdl):
        for req in cycle:
            if req.key in seen:
                loop.repeats += 1
            seen.add(req.key)
            # Each request starts on a clean heap, as it would in its own process.
            gc.collect()
            track.before()
            outcome = execute(permdl, req, tracer)
            raw_ns, scaled_ns = track.after(outcome.ns)
            loop.latencies_ns.append(raw_ns)
            loop.scaled_ns.append(scaled_ns)
            scaled_total += scaled_ns
            loop.routes.append(req.route)
            if check:
                problem = outcome.crash or req.check(outcome)
                if problem:
                    loop.failed += 1
                    if len(loop.errors) < 5:
                        loop.errors.append(problem.splitlines()[-1][:300])
            if limit is not None and loop.attempted >= limit or perf_counter() - wall_start > WALL_CAP_S:
                break
        else:
            if not workload.single_cycle and scaled_total < seconds * 1e9:
                continue
        break
    return loop


def quantile(values: list[float], p: float, grid: int = 20_000) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) density integrated over each one's share of
    [0, 1].  Where the requests of a run are few and of very different
    sizes, a single order statistic jumps between neighbours that differ by
    tens of percent; this estimate moves smoothly and varies about half as
    much from run to run.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    weights = [0.0] * n
    for k in range(grid):
        x = (k + 0.5) / grid
        weights[min(int(x * n), n - 1)] += exp((a - 1) * log(x) + (b - 1) * log1p(-x) - log_beta)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(latencies_ns: list[float]) -> tuple[float, float, int]:
    """Latency (ms) at the highest percentile that still has at least 10 requests beyond it."""
    n = len(latencies_ns)
    if n <= 10:
        return max(latencies_ns) / 1e6, 100.0, n
    p = (n - 10) / n
    return quantile(latencies_ns, p) / 1e6, 100.0 * p, n


def time_setup(workload) -> tuple[float, float]:
    """Seconds for ``import permdl`` plus the workload's preparation: (scaled, raw)."""
    workload.load()
    before = reference_ns(5)
    start = perf_counter_ns()
    permdl = checkout.import_permdl()
    workload.prepare(permdl)
    elapsed = perf_counter_ns() - start
    after = reference_ns(5)
    return elapsed / 1e9 * 2 * REFERENCE_NS / (before + after), elapsed / 1e9


def child(args: list[str]) -> dict:
    env = dict(os.environ, PERMDL_JOBS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        cwd=checkout.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_metrics(metrics: dict, notes: dict[str, str] | None = None) -> None:
    for name, m in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())


def result_line(loop: Loop, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }
    )


def report_load(workload, seed: int, trace: int, loop: Loop) -> None:
    share = loop.repeats / loop.attempted
    print(f"workload {workload.name}  seed {seed}  trace {trace}")
    print(
        f"  requests {loop.attempted}, failed {loop.failed}, repeated-key share {share:.3f}, "
        f"fresh interpreter {'yes' if FRESH_INTERPRETER else 'no'}, "
        f"timed {loop.timed_ns / 1e9:.3f} s raw, {sum(loop.scaled_ns) / 1e9:.3f} s scaled"
    )
    for problem in loop.errors:
        print(f"  failure: {problem}", file=sys.stderr)


def run_untraced(args, workload) -> int:
    samples = [time_setup(workload)]
    import permdl

    loop = run_loop(permdl, workload, args.seed, args.seconds)
    for _ in range(SETUP_PROBES):
        probe = child(["--setup-probe", "--workload", workload.name])
        samples.append((probe["setup_s"], probe["raw_s"]))
    tail_ms, tail_pct, count = tail(loop.scaled_ns)
    values = {
        "throughput_rps": loop.attempted / (sum(loop.scaled_ns) / 1e9),
        "latency_p50_ms": quantile(loop.scaled_ns, 0.5) / 1e6,
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(scaled for scaled, _ in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - loop.failed / loop.attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    report_load(workload, args.seed, 0, loop)
    print_metrics(
        metrics,
        {
            "latency_tail_ms": f"p{tail_pct:.1f} of {count} requests, {min(10, count - 1)} beyond",
            "setup_s": f"median of {len(samples)} interpreters",
            "success_rate": f"error_rate {loop.failed / loop.attempted:.4f}",
        },
    )
    print(
        f"  raw wall times: throughput {loop.attempted / (loop.timed_ns / 1e9):.6g} 1/s, "
        f"p50 {quantile(loop.latencies_ns, 0.5) / 1e6:.6g} ms, tail {tail(loop.latencies_ns)[0]:.6g} ms, "
        f"setup {statistics.median(raw for _, raw in samples):.6g} s"
    )
    print(result_line(loop, metrics))
    return 0


def run_replay(args, workload) -> int:
    """Untraced, unchecked pass over the first --replay requests; internal to --trace 1."""
    workload.load()
    permdl = checkout.import_permdl()
    workload.prepare(permdl)
    loop = run_loop(permdl, workload, args.seed, args.seconds, limit=args.replay, check=False)
    print(json.dumps({"scaled_ns": loop.scaled_ns, "routes": loop.routes}))
    return 0


def pool_speedup(permdl, workload, seed: int, count: int, untraced_ns: list[float]) -> float:
    """Composition-route requests with PERMDL_JOBS=2 against the untraced replay."""
    rng = random.Random(f"{workload.name}:{seed}")
    requests = [req for cycle in workload.cycles(rng, permdl) for req in cycle][:count]
    track = SpeedTrack()
    serial = parallel = 0.0
    os.environ["PERMDL_JOBS"] = "2"
    try:
        for req, ns in zip(requests, untraced_ns):
            if req.route != "composition":
                continue
            gc.collect()
            track.before()
            outcome = execute(permdl, req, None)
            parallel += track.after(outcome.ns)[1]
            if req.check(outcome):
                raise RuntimeError(f"PERMDL_JOBS=2 changed the answer to {req.argv}")
            serial += ns
    finally:
        os.environ["PERMDL_JOBS"] = "1"
    return serial / parallel if parallel else 0.0


def run_traced(args, workload) -> int:
    workload.load()
    permdl = checkout.import_permdl()
    # Set-up gets its own tracer, so work done once per process (parsing the
    # bases and their antichain check) stays out of the per-request figures.
    setup = Tracer()
    setup.install()
    setup.active = True
    workload.prepare(permdl)
    setup.active = False
    setup.uninstall()
    tracer = Tracer()
    tracer.install()
    loop = run_loop(permdl, workload, args.seed, args.seconds, tracer=tracer)
    tracer.uninstall()
    replay = child(
        ["--workload", workload.name, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0", "--replay", str(loop.attempted)]
    )
    untraced_ns = replay["scaled_ns"]
    if len(untraced_ns) != loop.attempted or replay["routes"] != loop.routes:
        raise RuntimeError("the untraced replay did not see the same requests")
    speedup = 0.0
    if workload.name == "list_slices":
        speedup = pool_speedup(permdl, workload, args.seed, loop.attempted, untraced_ns)

    calls, self_ns, counters = tracer.calls, tracer.self_ns, tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(base, 0)
        elif stat == "self_s" and "." in base:
            values[name] = self_ns.get(base, 0) / 1e9
        elif stat in ("items", "stdout_bytes"):
            values[name] = counters.get(name, 0)
    for layer, seconds in tracer.layer_self_s().items():
        values[f"{layer}.self_s"] = seconds
    values["minimal.enumerate_brute.hit_ratio"] = ratio(
        counters.get("minimal.enumerate_brute.members", 0), counters.get("minimal.enumerate_brute.scanned", 0)
    )
    values["patterns.involves.hit_ratio"] = ratio(
        counters.get("patterns.involves.hits", 0), calls.get("patterns.involves", 0)
    )
    values["patterns.parse_basis.self_s"] = setup.self_ns.get("patterns.parse_basis", 0) / 1e9
    values["patterns.parse_basis.total_s"] = setup.total_ns.get("patterns.parse_basis", 0) / 1e9
    values["minimal.pool_speedup"] = speedup
    values["trace.overhead_ratio"] = ratio(sum(loop.scaled_ns), sum(untraced_ns))
    # Per-request figures: a time-bounded run's totals would only restate its budget.
    for name, unit in PER_LAYER.items():
        if unit.endswith("/req"):
            values[name] /= loop.attempted
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    report_load(workload, args.seed, 1, loop)
    print_metrics(metrics)
    print("  heaviest parent -> child edges (calls, total s):")
    for parent, name, n, seconds in tracer.top_edges():
        print(f"    {parent} -> {name}: {n}, {seconds:.4f}")
    print(result_line(loop, metrics))
    return 0


def run_all(args) -> int:
    summary, attempted, failed, merged = [], 0, 0, {}
    for name in WORKLOADS:
        result = child(
            ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            merged[f"{name}.{metric}"] = m
        summary.append((name, result))
    for name, result in summary:
        print(f"workload {name}: {result['attempted']} requests, {result['failed']} failed")
        print_metrics(result["metrics"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ["PERMDL_JOBS"] = "1"
    try:
        checkout.require_sources()
        if args.workload == "all":
            return run_all(args)
        workload = WORKLOADS[args.workload]()
        if args.setup_probe:
            scaled, raw = time_setup(workload)
            print(json.dumps({"setup_s": scaled, "raw_s": raw}))
            return 0
        if args.replay is not None:
            return run_replay(args, workload)
        return run_traced(args, workload) if args.trace else run_untraced(args, workload)
    except checkout.MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
