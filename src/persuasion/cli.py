"""Command-line interface.

Subcommands: solve, signal, audit, blackbox, khintchine, verify, bench.
Exit status is 0 on success, 1 on a domain error, 2 on usage errors.
All floating-point output goes through the same 17-significant-digit
formatting as the file layer, so runs with a fixed --seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

import numpy as np

from . import fixtures
from .approx import IndependentSignalSampler, solve_relaxation
from .blackbox import BlackboxSampler, ExplicitOracle, sample_count
from .errors import PersuasionError, ValidationError
from .exact import expand_product, profiles_of, solve_exact, type_counts
from .files import (
    SchemeRecord,
    dumps,
    load_instance,
    load_scheme,
    save_scheme,
)
from .iid import SSignature, implement_s_signature, solve_s_signature
from .khintchine import khintchine_constant, solve_khintchine_lp
from .model import DirectScheme, ExplicitInstance, IIDInstance, audit
from .suites import run_suite
from .verify import DirectSchemeSampler, IIDSource, OracleSource, monte_carlo_eval


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _as_explicit(instance):
    if isinstance(instance, ExplicitInstance):
        return instance, None
    order = [list(map(int, p)) for p in profiles_of(instance)]
    return expand_product(instance), order


def _cmd_solve(args) -> int:
    instance = load_instance(args.input)
    seed = args.seed
    if args.method == "exact":
        explicit, order = _as_explicit(instance)
        sol = solve_exact(explicit, epsilon=args.epsilon)
        record = SchemeRecord(
            method="exact",
            value=sol.value,
            ic_report={
                "min_slack": sol.audit.min_slack,
                "epsilon_certified": sol.audit.epsilon_certified,
            },
            phi=sol.scheme.phi,
            state_order=order if order is not None else list(range(explicit.state_count)),
            seed=seed,
        )
        print(f"method exact, value {_fmt(sol.value)}")
        print(f"min IC slack {_fmt(sol.audit.min_slack)}")
    else:
        if not isinstance(instance, IIDInstance):
            raise ValidationError(f"method {args.method} needs an iid instance")
        if args.method == "iid-opt":
            ssig, value = solve_s_signature(instance)
            x, y = ssig.recommended, ssig.other
        elif args.method == "iid-approx":
            x, y, value = solve_relaxation(instance)
        else:
            raise ValidationError(f"unknown method {args.method!r}")
        margin = float(instance.receiver_payoffs @ (x - y))
        record = SchemeRecord(
            method=args.method,
            value=value,
            ic_report={
                "min_slack": min(0.0, margin),
                "epsilon_certified": max(0.0, -margin),
            },
            s_signature={"x": x, "y": y},
            seed=seed,
        )
        print(f"method {args.method}, value {_fmt(value)}")
    if args.output:
        save_scheme(record, args.output)
        print(f"scheme written to {args.output}")
    return 0


def _parse_state(instance, text: str):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"state {text!r}: expected integers") from exc
    if isinstance(instance, ExplicitInstance):
        if len(values) != 1:
            raise ValidationError("explicit instances take a single state index")
        if not 0 <= values[0] < instance.state_count:
            raise ValidationError(f"state index {values[0]} out of range")
        return values[0]
    if len(values) != instance.action_count:
        raise ValidationError(
            f"need one type per action ({instance.action_count} values)"
        )
    if any(not 0 <= v < k for v, k in zip(values, type_counts(instance))):
        raise ValidationError("type index out of range")
    return values


def _cmd_signal(args) -> int:
    instance = load_instance(args.input)
    record = load_scheme(args.scheme)
    state = _parse_state(instance, args.state)
    rng = np.random.default_rng(args.seed)
    if record.phi is not None:
        if isinstance(instance, ExplicitInstance):
            row_index = state
        else:
            order = record.state_order
            if order is None:
                raise ValidationError("scheme file lacks a state ordering")
            try:
                row_index = order.index(state)
            except ValueError as exc:
                raise ValidationError(f"state {state} not in scheme ordering") from exc
        signal = DirectSchemeSampler(DirectScheme(record.phi)).sample(row_index, rng)
    else:
        if not isinstance(instance, IIDInstance):
            raise ValidationError("s-signature schemes need an iid instance")
        x, y = (np.array(record.s_signature[k]) for k in ("x", "y"))
        if record.method == "iid-approx":
            sampler = IndependentSignalSampler(instance, x, y)
        else:
            sampler = implement_s_signature(instance, SSignature(x, y, instance.action_count))
        signal = sampler.sample(state, rng)
    print(f"signal {signal}")
    return 0


def _cmd_audit(args) -> int:
    instance = load_instance(args.input)
    record = load_scheme(args.scheme)
    if record.phi is None:
        raise ValidationError("audit needs a scheme file with an explicit phi")
    explicit, _ = _as_explicit(instance)
    report = audit(explicit, DirectScheme(record.phi))
    print(f"sender utility {_fmt(report.sender_utility)}")
    print(f"min IC slack {_fmt(report.min_slack)}")
    print(f"epsilon certified {_fmt(report.epsilon_certified)}")
    print(f"stored value {_fmt(record.value)}")
    drift = abs(report.sender_utility - record.value)
    print(f"value drift {_fmt(drift)}")
    return 0


def _cmd_blackbox(args) -> int:
    instance = load_instance(args.input)
    explicit, _ = _as_explicit(instance)
    oracle = ExplicitOracle(explicit)
    full_k = sample_count(oracle.action_count, args.epsilon) if args.epsilon > 0 else None
    K = args.samples if args.samples is not None else full_k
    if K is None:
        raise ValidationError("epsilon 0 has no guarantee bound; pass --samples")
    if full_k is not None and K < full_k and not args.force_k:
        print(
            f"error: K={K} is below the guarantee bound {full_k}; "
            "pass --force-K to run anyway",
            file=sys.stderr,
        )
        return 2
    if full_k is not None:
        print(f"guarantee sample bound {full_k}, using K {K}")
    else:
        print(f"using K {K}")
    sampler = BlackboxSampler(oracle, epsilon=args.epsilon, K=K)
    rng = np.random.default_rng(args.seed)
    report = monte_carlo_eval(sampler, OracleSource(oracle), args.trials, rng)
    print(f"trials {report.trials}")
    print(f"mean sender utility {_fmt(report.mean_sender_utility)}")
    print(f"std error {_fmt(report.std_error)}")
    print(f"min IC slack estimate {_fmt(report.ic_slack_mean.min())}")
    print(f"follow rate {_fmt(report.follow_rate)}")
    counts = ", ".join(str(int(c)) for c in report.signal_counts)
    print(f"signal counts {counts}")
    if args.output:
        data = {
            "epsilon": args.epsilon,
            "K": K,
            "guarantee_K": full_k,
            "trials": report.trials,
            "mean_sender_utility": report.mean_sender_utility,
            "std_error": report.std_error,
            "ic_slack_mean": [list(r) for r in report.ic_slack_mean],
            "follow_rate": report.follow_rate,
            "seed": args.seed,
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dumps(data) + "\n")
        print(f"report written to {args.output}")
    return 0


def _cmd_khintchine(args) -> int:
    try:
        a = [float(p) for p in args.a.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"--a {args.a!r}: expected comma-separated numbers") from exc
    both = not (args.lp or args.brute)
    if args.brute or both:
        print(f"brute {_fmt(khintchine_constant(a))}")
    if args.lp or both:
        print(f"lp {_fmt(solve_khintchine_lp(a))}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _bench_independent_eval() -> float:
    inst = fixtures.random_iid(np.random.default_rng(4), actions=4, types=8)
    with warnings.catch_warnings():
        # mixed-sign payoffs void the guarantee, not the cost being timed
        warnings.simplefilter("ignore")
        sampler = IndependentSignalSampler(inst)
    report = monte_carlo_eval(sampler, IIDSource(inst), 250_000,
                              np.random.default_rng(4))
    return report.mean_sender_utility


def _bench_iid_implement() -> float:
    base = fixtures.investor()
    inst = IIDInstance(100, base.type_probs, base.sender_payoffs, base.receiver_payoffs)
    ssig, _ = solve_s_signature(inst)
    report = monte_carlo_eval(implement_s_signature(inst, ssig), IIDSource(inst),
                              10_000, np.random.default_rng(100))
    return report.mean_sender_utility


def _cmd_bench(args) -> int:
    jobs = [
        ("prosecutor exact", lambda: solve_exact(fixtures.prosecutor()).value),
        ("investor expansion exact",
         lambda: solve_exact(expand_product(fixtures.investor())).value),
        ("iid expansion exact S=243",
         lambda: solve_exact(expand_product(fixtures.random_iid(
             np.random.default_rng(243), actions=5, types=3))).value),
        ("iid expansion exact S=2187 seed 4",
         lambda: solve_exact(expand_product(fixtures.random_iid(
             np.random.default_rng(4), actions=7, types=3)), 0.05).value),
        ("investor s-signature",
         lambda: solve_s_signature(fixtures.investor())[1]),
        ("khintchine lp n=6",
         lambda: solve_khintchine_lp(np.linspace(1.0, 2.0, 6))),
        ("iid independent monte-carlo T=250000", _bench_independent_eval),
        ("iid implement + monte-carlo n=100", _bench_iid_implement),
    ]
    for name, job in jobs:
        t0 = time.perf_counter()
        value = job()
        elapsed = time.perf_counter() - t0
        print(f"{name}: value {_fmt(value)}")
        print(f"{name}: {elapsed * 1000:.1f} ms", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persuasion",
        description="Optimal and approximate signaling schemes, with verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an optimal or approximate scheme")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--method", required=True,
                   choices=["exact", "iid-opt", "iid-approx"])
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="IC relaxation for method exact")
    p.add_argument("--output", help="write the scheme file here")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("signal", help="one-shot: state in, signal out")
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--state", required=True,
                   help="state index, or comma-separated type profile")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_signal)

    p = sub.add_parser("audit", help="re-audit a saved scheme")
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("blackbox", help="evaluate the sample-and-solve scheme")
    p.add_argument("--input", required=True, help="explicit instance used as oracle")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("-K", "--samples", type=int, default=None)
    p.add_argument("--force-K", dest="force_k", action="store_true",
                   help="allow K below the guarantee bound")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="write an evaluation report here")
    p.set_defaults(func=_cmd_blackbox)

    p = sub.add_parser("khintchine", help="Khintchine constant, two ways")
    p.add_argument("--a", required=True, help="comma-separated coefficients")
    p.add_argument("--lp", action="store_true")
    p.add_argument("--brute", action="store_true")
    p.set_defaults(func=_cmd_khintchine)

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p.add_argument("--suite", choices=["small", "full"], default="small")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="representative solve sizes and timings")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PersuasionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
