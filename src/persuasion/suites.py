"""Oracle-equivalence and guarantee suites.

Each check pits a solver against an independent route to the same answer
(brute-force enumeration, product expansion, concavification, simulation)
and reports a pass/fail with the measured gap. The acceptance tests run
these checks at full scale; the CLI verify subcommand runs them at a
configurable scale. Statistical checks use 3-standard-error bands with
fixed seeds.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from . import fixtures
from .approx import IndependentSignalSampler, solve_relaxation
from .blackbox import BlackboxSampler, ExplicitOracle, sample_count
from .exact import expand_product, honest_scheme, no_information_scheme, solve_exact
from .iid import (
    border_feasible,
    decompose_reduced_form,
    reduced_form_of,
    signature_of,
    solve_s_signature,
    symmetrize,
)
from .model import audit
from .verify import (
    DirectSchemeSampler,
    ExplicitSource,
    IIDSource,
    OracleSource,
    allocation_exists_bruteforce,
    concavification_value,
    monte_carlo_eval,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name:<28} {self.elapsed:7.2f}s  {self.detail}"


def check_prosecutor() -> CheckResult:
    """Exact value 2/3, cross-checked against the concavification oracle."""
    t0 = time.perf_counter()
    inst = fixtures.prosecutor()
    sol = solve_exact(inst)
    cav = concavification_value(inst)
    elapsed = time.perf_counter() - t0
    gap_exact = abs(sol.value - 2.0 / 3.0)
    gap_cav = abs(cav - sol.value)
    passed = gap_exact <= 1e-9 and gap_cav <= 1e-6 and elapsed < 0.1
    return CheckResult(
        "prosecutor fixture", passed,
        f"value gap {gap_exact:.1e}, envelope gap {gap_cav:.1e}", elapsed,
    )


def check_investor(trials: int = 10 ** 6, seed: int = 2002) -> CheckResult:
    """5/9 by both solvers; 1/3 for full and no information by simulation."""
    t0 = time.perf_counter()
    inst = fixtures.investor()
    full = expand_product(inst)
    v_exact = solve_exact(full).value
    _, v_sig = solve_s_signature(inst)
    rng = np.random.default_rng(seed)
    src = ExplicitSource(full)
    rep_full = monte_carlo_eval(DirectSchemeSampler(honest_scheme(full)), src, trials, rng)
    rep_none = monte_carlo_eval(DirectSchemeSampler(no_information_scheme(full)), src,
                                trials, rng)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(v_exact - 5.0 / 9.0) <= 1e-9
        and abs(v_sig - 5.0 / 9.0) <= 1e-6
        and abs(rep_full.mean_sender_utility - 1.0 / 3.0) <= 3 * rep_full.std_error
        and abs(rep_none.mean_sender_utility - 1.0 / 3.0) <= 3 * rep_none.std_error
        and elapsed < 10.0
    )
    return CheckResult(
        "investor fixture", ok,
        f"exact {v_exact:.9f}, s-sig {v_sig:.9f}, "
        f"full-info {rep_full.mean_sender_utility:.4f}, "
        f"no-info {rep_none.mean_sender_utility:.4f}", elapsed,
    )


def check_iid_equivalence(count: int = 100, seed: int = 2003) -> CheckResult:
    """s-signature optimum equals the exact optimum on the expansion."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        inst = fixtures.random_iid(rng, max_actions=4, max_types=3)
        _, v_sig = solve_s_signature(inst)
        v_exact = solve_exact(expand_product(inst)).value
        worst = max(worst, abs(v_sig - v_exact))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-6 and elapsed < 60.0
    return CheckResult(
        "iid end-to-end equivalence", passed,
        f"{count} instances, max value gap {worst:.2e}", elapsed,
    )


def _border_draws(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        q = fixtures.random_simplex(rng, m)
        tau = fixtures.random_reduced_form(rng, m)
        yield tau, q, n


def check_border_oracle(count: int = 200, seed: int = 2004) -> CheckResult:
    """Subset inequalities agree with the flow feasibility oracle."""
    t0 = time.perf_counter()
    disagreements = 0
    feasible = 0
    for tau, q, n in _border_draws(count, seed):
        fast = border_feasible(tau, q, n).feasible
        slow = allocation_exists_bruteforce(tau, q, n)
        if fast != slow:
            disagreements += 1
        feasible += int(slow)
    elapsed = time.perf_counter() - t0
    passed = disagreements == 0 and elapsed < 60.0
    return CheckResult(
        "border oracle equivalence", passed,
        f"{count} draws ({feasible} feasible), {disagreements} disagreements",
        elapsed,
    )


def check_decomposition(count: int = 200, seed: int = 2004) -> CheckResult:
    """Decomposing a feasible reduced form reproduces it exactly."""
    t0 = time.perf_counter()
    worst = 0.0
    used = 0
    for tau, q, n in _border_draws(count, seed):
        if not border_feasible(tau, q, n).feasible:
            continue
        used += 1
        rule = decompose_reduced_form(tau, q, n)
        got = reduced_form_of(rule, q)
        worst = max(worst, float(np.max(np.abs(got - tau[None, :]))))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-8
    return CheckResult(
        "decomposition fidelity", passed,
        f"{used} feasible draws, max reduced-form gap {worst:.2e}", elapsed,
    )


def _guarantee_on(inst, trials: int, rng: np.random.Generator):
    """(margin over the guarantee, receiver rational) on one instance.

    A function of its own, so that the instance's (trials, n) draws are
    freed before the next instance draws.
    """
    n = inst.action_count
    x, y, bound = solve_relaxation(inst)
    profiles = IIDSource(inst).draw_many(trials, rng)
    recs, highs = IndependentSignalSampler(inst, x, y).sample_many_detailed(profiles, rng)
    idx = np.arange(trials)
    rec_types = profiles[idx, recs]
    util = inst.sender_payoffs[rec_types]
    se = util.std(ddof=0) / np.sqrt(trials)
    ratio = 1.0 - (1.0 - 1.0 / n) ** n
    margin = util.mean() - (ratio * bound - 3 * se)
    # conditional receiver rationality: recommended-and-HIGH actions
    # must look like n*rho.x, LOW components like n*rho.y
    hit = highs[idx, recs]
    if not hit.any():
        return margin, True
    r_rec = inst.receiver_payoffs[rec_types[hit]]
    est_high = r_rec.mean()
    se_high = r_rec.std(ddof=0) / np.sqrt(r_rec.size)
    target_high = n * float(inst.receiver_payoffs @ x)
    target_low = n * float(inst.receiver_payoffs @ y)
    # LOW components per type: every draw minus the HIGH ones
    low = (np.bincount(profiles.ravel(), minlength=inst.type_count)
           - np.bincount(profiles[highs], minlength=inst.type_count))
    est_low = inst.receiver_payoffs @ low / low.sum() if low.any() else target_low
    rational = not (abs(est_high - target_high) > 3 * se_high + 1e-9
                    or est_high < est_low - 3 * se_high - 1e-9)
    return margin, rational


def check_independent_guarantee(count: int = 20, trials: int = 10 ** 6,
                                seed: int = 2006) -> CheckResult:
    """Componentwise scheme beats the 1-(1-1/n)^n fraction of its bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    sizes = [2, 3, 5]
    ok = True
    worst_margin = np.inf
    for k in range(count):
        inst = fixtures.random_iid(rng, nonnegative=True, actions=sizes[k % len(sizes)],
                                   types=int(rng.integers(1, 5)))
        margin, rational = _guarantee_on(inst, trials, rng)
        worst_margin = min(worst_margin, margin)
        if margin < 0 or not rational:
            ok = False
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 300.0
    return CheckResult(
        "independent-signal guarantee", passed,
        f"{count} instances x {trials} trials, worst margin {worst_margin:+.4f}",
        elapsed,
    )


def check_blackbox_bicriteria(trials: int = 10 ** 4, K: int = 2000,
                              epsilon: float = 0.2, seed: int = 2007) -> CheckResult:
    """Sample-and-solve is eps-optimal and eps-IC on explicit test priors.

    Runs with a documented override K far below the guarantee bound
    (reported in the detail string), which the statistical audit makes up
    for at this scale.
    """
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, inst in (
        ("investor/2", fixtures.investor_blackbox_instance()),
        ("rain-shine", fixtures.rain_shine_mixed(0.1)),
    ):
        opt = solve_exact(inst).value
        oracle = ExplicitOracle(inst)
        sampler = BlackboxSampler(oracle, epsilon=epsilon, K=K)
        rep = monte_carlo_eval(sampler, OracleSource(oracle), trials,
                               np.random.default_rng(seed))
        if rep.mean_sender_utility < opt - epsilon - 3 * rep.std_error:
            ok = False
        slack_floor = rep.ic_slack_mean + 3 * rep.ic_slack_se
        if slack_floor.min() < -epsilon - 1e-12:
            ok = False
        details.append(
            f"{name}: mean {rep.mean_sender_utility:.4f} vs OPT {opt:.4f}"
        )
        full_k = sample_count(oracle.action_count, epsilon)
        details.append(f"guarantee K {full_k}")
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 300.0
    return CheckResult(
        "black-box bicriteria", passed,
        f"K={K}, " + "; ".join(details), elapsed,
    )


def check_khintchine(count: int = 50, seed: int = 2008) -> CheckResult:
    """Two-signal signature LP equals brute-force sign enumeration."""
    from .khintchine import khintchine_constant, solve_khintchine_lp

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    vectors = [np.array([1.0, 1.0]), np.array([3.0, 1.0, 1.0])]
    while len(vectors) < count:
        n = int(rng.integers(1, 9))
        vectors.append(rng.uniform(-2.0, 2.0, n))
    worst = 0.0
    for a in vectors:
        worst = max(worst, abs(solve_khintchine_lp(a) - khintchine_constant(a)))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-6 and elapsed < 60.0
    return CheckResult(
        "khintchine equivalence", passed,
        f"{len(vectors)} vectors, max gap {worst:.2e}", elapsed,
    )


def check_symmetrization(count: int = 20, seed: int = 2009) -> CheckResult:
    """Permutation averaging keeps the value and evens out the signature."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_value = 0.0
    worst_shape = 0.0
    for _ in range(count):
        inst = fixtures.random_iid(rng, max_actions=4, max_types=3)
        full = expand_product(inst)
        sol = solve_exact(full)
        sym = symmetrize(inst, sol.scheme)
        worst_value = max(
            worst_value,
            abs(audit(full, sym).sender_utility - sol.audit.sender_utility),
        )
        M = signature_of(inst, sym).matrices
        n = inst.action_count
        x_bar = np.mean([M[i, i] for i in range(n)], axis=0)
        gap = max(abs(float(np.max(np.abs(M[i, i] - x_bar)))) for i in range(n))
        if n > 1:
            y_bar = np.mean([M[i, j] for i in range(n) for j in range(n) if i != j],
                            axis=0)
            gap = max(gap, max(float(np.max(np.abs(M[i, j] - y_bar)))
                               for i in range(n) for j in range(n) if i != j))
        worst_shape = max(worst_shape, gap)
    elapsed = time.perf_counter() - t0
    passed = worst_value <= 1e-9 and worst_shape <= 1e-9
    return CheckResult(
        "symmetrization", passed,
        f"{count} instances, value drift {worst_value:.1e}, "
        f"shape gap {worst_shape:.1e}", elapsed,
    )


def check_blackbox_behavior(trials: int = 10 ** 4, K: int = 2000,
                            seed: int = 2010) -> CheckResult:
    """Exact IC never walks on the rainy point mass; relaxed IC mostly walks."""
    t0 = time.perf_counter()
    point = fixtures.rain_shine_point(0.1)
    mixed = fixtures.rain_shine_mixed(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        strict = BlackboxSampler(ExplicitOracle(point), epsilon=0.0, K=K)
    rep_r = monte_carlo_eval(strict, OracleSource(ExplicitOracle(point)), trials,
                             np.random.default_rng(seed))
    relaxed = BlackboxSampler(ExplicitOracle(mixed), epsilon=0.2, K=K)
    rep_s = monte_carlo_eval(relaxed, OracleSource(ExplicitOracle(mixed)), trials,
                             np.random.default_rng(seed))
    walks_point = int(rep_r.signal_counts[0])
    walk_rate = rep_s.signal_counts[0] / trials
    elapsed = time.perf_counter() - t0
    passed = walks_point == 0 and walk_rate >= 0.6
    return CheckResult(
        "black-box behavior gap", passed,
        f"point-mass walks {walks_point}/{trials}, relaxed walk rate {walk_rate:.2f}",
        elapsed,
    )


SMALL_SCALE = dict(
    investor_trials=10 ** 5,
    iid_count=25,
    border_count=60,
    guarantee_count=6,
    guarantee_trials=10 ** 5,
    blackbox_trials=500,
    blackbox_K=400,
    khintchine_count=15,
    symmetrize_count=8,
    behavior_trials=500,
)

FULL_SCALE = dict(
    investor_trials=10 ** 6,
    iid_count=100,
    border_count=200,
    guarantee_count=20,
    guarantee_trials=10 ** 6,
    blackbox_trials=10 ** 4,
    blackbox_K=2000,
    khintchine_count=50,
    symmetrize_count=20,
    behavior_trials=10 ** 4,
)


def run_suite(scale: str = "small", seed: int = 7) -> List[CheckResult]:
    p = SMALL_SCALE if scale == "small" else FULL_SCALE
    return [
        check_prosecutor(),
        check_investor(trials=p["investor_trials"], seed=seed + 2),
        check_iid_equivalence(count=p["iid_count"], seed=seed + 3),
        check_border_oracle(count=p["border_count"], seed=seed + 4),
        check_decomposition(count=p["border_count"], seed=seed + 4),
        check_independent_guarantee(count=p["guarantee_count"],
                                    trials=p["guarantee_trials"], seed=seed + 6),
        check_blackbox_bicriteria(trials=p["blackbox_trials"],
                                  K=p["blackbox_K"], seed=seed + 7),
        check_khintchine(count=p["khintchine_count"], seed=seed + 8),
        check_symmetrization(count=p["symmetrize_count"], seed=seed + 9),
        check_blackbox_behavior(trials=p["behavior_trials"],
                                K=p["blackbox_K"], seed=seed + 10),
    ]
