"""Traced-run report: per-layer self time and counts, and tracing overhead.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]

For each workload this runs the benchmark twice with the same seed, once
untraced and once traced, then prints a table with, for every layer, its
calls, self time and inclusive time per op and its share of the traced op
time. Below the table it prints the tracing overhead, which is each
traced end-to-end number minus the untraced one. It checks that the self
times inside ops add up to the traced op time and that the layers (not
the harness glue) account for at least 99% of it. The report is also
written to ``perfbench/out/report.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from steady import HERE, SEEDS, SPEC, run_once


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the benchmark once; return the full record it wrote."""
    run_once(workload, seed, seconds, trace)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((HERE / "out" / f"result-{stem}.json").read_text())


def section(workload: str, plain: dict, traced: dict) -> list[str]:
    ops = traced["attempted"]
    layers = traced["layers"]
    op_s = layers["op"]["s"]
    lines = [f"## {workload}",
             "",
             f"seed {traced['provenance']['seed']}; untraced {plain['attempted']} ops, "
             f"traced {ops} ops; self and inclusive times are per traced op.",
             "",
             "| layer | calls/op | self ms/op | incl ms/op | share of op time |",
             "|---|---:|---:|---:|---:|"]
    in_op_self = 0.0
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        in_op_self += row["in_op_self_s"]
        label = "op (unattributed)" if name == "op" else name
        if row["in_op_self_s"] < row["self_s"] * 0.999:
            label += " (partly outside ops)"
        lines.append(f"| {label} | {row['calls'] / ops:.3f} | {row['self_s'] / ops * 1e3:.4f} | "
                     f"{row['s'] / ops * 1e3:.4f} | {row['in_op_self_s'] / op_s:.1%} |")
    lines += ["", "| end-to-end | untraced | traced | overhead |", "|---|---:|---:|---:|"]
    pairs = [(m["name"], plain["end_to_end"][m["name"]]["value"],
              traced["end_to_end"][m["name"]]["value"]) for m in SPEC["end_to_end"]]
    pairs.append(("op_ms_mean", plain["op_ms_mean"], traced["op_ms_mean"]))
    for name, a, b in pairs:
        share = f" ({(b - a) / a:+.1%})" if a else ""
        lines.append(f"| {name} | {a:.6g} | {b:.6g} | {b - a:+.6g}{share} |")
    untraced_ms = plain["op_ms_mean"]
    traced_ms = traced["op_ms_mean"]
    self_ms = in_op_self / ops * 1e3
    unattributed_ms = layers["op"]["in_op_self_s"] / ops * 1e3
    covered = (self_ms - unattributed_ms) / traced_ms
    lines += ["",
              f"Self times inside ops add up to {self_ms:.4f} ms/op against a traced op "
              f"mean of {traced_ms:.4f} ms; the layers cover {covered:.2%} of it and "
              f"{unattributed_ms:.4f} ms/op is unattributed. Untraced op mean "
              f"{untraced_ms:.4f} ms, so the measured tracing overhead is "
              f"{traced_ms - untraced_ms:+.4f} ms/op ({(traced_ms - untraced_ms) / untraced_ms:+.1%}); "
              f"a negative value means run-to-run noise exceeds the overhead. "
              f"Layers cover at least 99% of op time: {'yes' if covered >= 0.99 else 'NO'}.",
              ""]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=SEEDS["default"])
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to report (repeatable; default: all)")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    lines = ["# Traced-run report", ""]
    for w in workloads:
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        lines += section(w, plain, traced)
    text = "\n".join(lines)
    print(text)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "report.md").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
