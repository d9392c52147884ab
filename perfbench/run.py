"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-lp --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The script imports ``persuasion`` from the
checkout's ``src/`` and refuses to run on any other copy. It sets up the
workload (several times, reporting the median), self-tests its
correctness checks, then runs whole rounds of operations until
``--seconds`` have passed, checking every output. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps the package's
layers and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full records
(provenance, failure ledger, layer table, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One caller, one thread: keep BLAS from spreading a solve over the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SEEDS = json.loads((HERE / "seeds.json").read_text())
SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
# Times the imports in a fresh interpreter; argv[1] is the checkout's src/.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import numpy, persuasion; "
                "print(time.perf_counter() - start)")
# Listed here so that argument parsing imports nothing before import_checkout.
WORKLOAD_NAMES = ("exact-lp", "blackbox-signal", "iid-route", "oracle-crosscheck",
                  "iid-route-wide")


def import_checkout():
    """Import numpy and persuasion from this checkout; return persuasion."""
    if not (SRC / "persuasion" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'persuasion'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import persuasion
    where = Path(persuasion.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"error: persuasion imported from {where}, not from {SRC}")
    return persuasion


def import_seconds() -> list[float]:
    """Import time of numpy and persuasion, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def tail(latencies_s: list[float], highest: float):
    """(percentile, value in ms) at the highest ladder percentile, up to
    `highest`, that has at least TAIL_BEYOND samples above it; nearest-rank
    percentiles."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    best = (0.0, ordered[-1] * 1e3)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if p <= highest and n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1] * 1e3)
    return best


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "persuasion").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=_seed, default=SEEDS["default"])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    P = import_checkout()
    import numpy as np

    import checks
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS, Harness

    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(P, args.seed)
        first_round = workload.ops(0)
        workload.warm_up()
        setups.append(time.perf_counter() - start)
    imports = import_seconds()
    setup_s = statistics.median(imports) + statistics.median(setups)

    missed = checks.self_test(P)
    if missed:
        print("checker self-test failed: " + "; ".join(missed), file=sys.stderr)
        return 3

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    harness = Harness(args.workload, args.seed, tracer)
    round_ops = []  # (first op, op count, wall seconds) of each round
    start = time.perf_counter()
    while True:
        ops = first_round if not round_ops else workload.ops(len(round_ops))
        first, began = harness.attempted, time.perf_counter()
        workload.run_round(harness, ops)
        round_ops.append((first, harness.attempted - first, time.perf_counter() - began))
        if time.perf_counter() - start >= args.seconds:
            break
    wall_s = time.perf_counter() - start
    rounds = len(round_ops)
    with harness.checking():
        workload.finish(harness)
    if tracer:
        tracer.uninstall()

    attempted = harness.attempted
    failed = len(harness.failed)
    tail_p, tail_ms = tail(harness.latencies, workload.tail_percentile)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": statistics.median(harness.latencies) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": tail_ms, "unit": "ms"},
        "ops_per_s": {"value": attempted / wall_s, "unit": "1/s"},
        "ok_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    metrics = per_layer_metrics(tracer, attempted) if tracer else end_to_end
    correct = harness.wrong_answers == 0

    kinds = dict(Counter(harness.failed.values()))
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "persuasion_file": P.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "run_seconds": args.seconds,
        "rounds": rounds,
        "wall_s": wall_s,
        "tail_percentile": tail_p,
        "samples": {"setup_s": SETUP_REPEATS, "op_ms_p50": len(harness.latencies),
                    "op_ms_tail": len(harness.latencies), "ops_per_s": attempted,
                    "ok_share": attempted, "peak_rss_mb": 1},
    }
    record = {
        "provenance": provenance,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failed_by_kind": kinds,
        "setup_runs_s": setups,
        "import_runs_s": imports,
        "end_to_end": end_to_end,
        "op_ms_mean": statistics.fmean(harness.latencies) * 1e3,
        # per round, to tell a change in the program from a drift in host speed
        "round_table": [
            {"ops": k, "wall_s": w,
             "op_ms_p50": statistics.median(harness.latencies[a:a + k]) * 1e3}
            for a, k, w in round_ops],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        table = tracer.layer_table()
        for row in table.values():
            row.pop("durations")
        record["per_layer"] = metrics
        record["layers"] = table
        tracer.write(OUT / f"spans-{stem}.jsonl")
    with open(OUT / f"ledger-{stem}.jsonl", "w") as out:
        for entry in harness.ledger:
            out.write(json.dumps(entry) + "\n")
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in end_to_end.items():
        print(f"{args.workload:<18} {name:<12} {m['value']:>14.6f} {m['unit']}")
    print(f"{args.workload:<18} {'failed_share':<12} {failed / attempted:>14.6f} "
          f"ratio ({failed} of {attempted}; {kinds or 'none'})")
    print(f"{args.workload:<18} tail percentile p{tail_p:g} of {len(harness.latencies)} ops; "
          f"{rounds} rounds in {wall_s:.2f} s")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
