"""Steadiness check: repeated sets of runs, with medians and quartiles.

    python3 perfbench/steady.py --runs 10 --sets 2

Each set runs every workload ``--runs`` times, seeds ``--first-seed`` and
up, with the workloads interleaved; odd sets reverse the workload order.
For each set, workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which
is the interquartile distance as a share of the median. A spread is
steady when it is below a third of the metric's bound in BENCHMARK.json
and acceptable when it is within the bound (``setup_s`` is exempt). From
the second set on, each median is compared with the first set's: it may
not be worse by more than the bound. The exit code is 1 when a run fails
or a comparison misses its bound. Results also go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = json.loads((HERE / "seeds.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """Run the benchmark command once; return its result line."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def worsening(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=SEEDS["default"])
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]
    sets = []
    ok = True
    for k in range(args.sets):
        order = workloads if k % 2 == 0 else workloads[::-1]
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            for w in order:
                result = run_once(w, args.first_seed + i, args.seconds)
                if not result["correct"]:
                    print(f"set {k} {w} seed {args.first_seed + i}: correct is false")
                    ok = False
                for m in metrics:
                    values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {k} run {i} {w}: attempted {result['attempted']} "
                      f"failed {result['failed']}", flush=True)
        sets.append({w: {name: summarize(v) for name, v in per.items()}
                     for w, per in values.items()})

    print(f"\n{'set':<4}{'workload':<19}{'metric':<13}{'median':>13}{'q1':>13}"
          f"{'q3':>13}{'spread':>9}{'bound':>7}  verdict")
    for k, summary in enumerate(sets):
        for w in workloads:
            for m in metrics:
                s = summary[w][m["name"]]
                if m["name"] == "setup_s":
                    verdict = "exempt"
                elif s["spread"] <= m["bound"] / 3:
                    verdict = "steady"
                elif s["spread"] <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                if k > 0:
                    worse = worsening(m, sets[0][w][m["name"]]["median"], s["median"])
                    verdict += f"; vs set 0 {worse:+.3f}"
                    if worse > m["bound"]:
                        verdict += " WORSE THAN BOUND"
                        ok = False
                print(f"{k:<4}{w:<19}{m['name']:<13}{s['median']:>13.6g}{s['q1']:>13.6g}"
                      f"{s['q3']:>13.6g}{s['spread']:>9.4f}{m['bound']:>7.3f}  {verdict}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(
        {"runs": args.runs, "seconds": args.seconds, "first_seed": args.first_seed,
         "sets": sets}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
