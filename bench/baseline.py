#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 1-10                      # untraced spread check
    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 --write bench/baseline.json

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  Traced seeds give the medians of the per-layer metrics.
``--write`` stores all of it, with every run's values, as the baseline that
later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import checkout

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    tail_note = next((line.split("ms", 1)[1].strip() for line in lines if "latency_tail_ms" in line), "")
    result["tail_note"] = tail_note
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default=None)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--write", default=None, help="path of the baseline JSON to write")
    args = parser.parse_args()

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "run_seconds": seconds,
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seed_range(args.seeds)]
        entry = {
            "seeds": seed_range(args.seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "tail": [r["tail_note"] for r in runs],
            "end_to_end": {},
        }
        print(f"{name}: requests {entry['attempted']}, failed {sum(entry['failed'])}")
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            print(
                f"  {metric:<16} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} q3 {s['q3']:<12.5g}"
                f" spread {s['spread']:.4f} bound {bound} {flag}"
            )
        if args.trace_seeds:
            traced = [run_once(name, seed, seconds, 1) for seed in seed_range(args.trace_seeds)]
            entry["per_layer"] = {
                metric: {
                    "median": statistics.median(r["metrics"][metric]["value"] for r in traced),
                    "unit": traced[0]["metrics"][metric]["unit"],
                }
                for metric in traced[0]["metrics"]
            }
            ratio = entry["per_layer"]["trace.overhead_ratio"]["median"]
            print(f"  traced seeds {args.trace_seeds}: trace.overhead_ratio median {ratio:.3f}")
        report["workloads"][name] = entry
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
