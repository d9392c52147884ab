"""The seeded workloads, each a closed loop with one caller.

A workload runs in rounds. A round is a fixed mix of operation kinds and
sizes whose random contents come from ``(seed, workload, round index)``,
so every run sees the same mix, and a run's inputs depend only on the
seed and how many rounds it completes. Each operation (op) goes through
``Harness.timed``; its output is checked afterwards, outside the timed
region and with tracing paused.

Workloads only call the public API of ``persuasion`` and look names up on
the package at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import nullcontext

import numpy as np

import checks

CHECK_EPSILON = 0.05  # epsilon of the relaxed exact-lp ops
WARM_UP_ROUND = 2 ** 32 - 1  # stream of the warm-up inputs, never a timed round


class Harness:
    """Times operations, records failures, and owns the failure ledger."""

    def __init__(self, workload: str, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed: dict[int, str] = {}  # op id -> first failure kind
        self.ledger: list[dict] = []
        self.wrong_answers = 0

    def timed(self, params: dict, fn, *args):
        """Run one op; return (op id, output), output None if it raised."""
        op_id = self.attempted
        self.attempted += 1
        span = self.tracer.op(op_id) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.latencies.append(time.perf_counter() - start)
            self.fail(op_id, params, checks.classify_exception(exc))
            return op_id, None
        self.latencies.append(time.perf_counter() - start)
        return op_id, out

    def checking(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def fail(self, op_id: int, params: dict, failure) -> None:
        if failure is None:
            return
        kind, detail = failure
        self.ledger.append({"workload": self.workload, "seed": self.seed,
                            "op": op_id, "params": params, "kind": kind,
                            "detail": detail})
        self.failed.setdefault(op_id, kind)
        if kind in checks.WRONG_ANSWER_KINDS:
            self.wrong_answers += 1

    def count(self, name: str) -> None:
        if self.tracer:
            self.tracer.count[name] += 1


def _params(**kw) -> dict:
    return {k: int(v) if isinstance(v, (np.integer, bool)) else v for k, v in kw.items()}


class _Workload:
    """A round is a list of argument tuples, each run as one op by _run.

    tail_percentile is the percentile op_ms_tail reports: the highest on
    the ladder that keeps at least ten ops above it in a run on a slow
    host. It is fixed per workload so that it does not jump between
    ladder steps as the number of ops in a run varies.
    """

    tail_percentile = 90.0

    def run_round(self, h: Harness, ops) -> None:
        for op in ops:
            self._run(h, *op)

    def finish(self, h: Harness) -> None:
        """Checks that need the whole run; none by default."""


# ---------------------------------------------------------------------------
# exact-lp


# (kind, S for explicit priors or m for expansions, n, epsilon) of one
# round. The mix is fixed so that every round has the same latency profile
# and the median and tail land on the same kinds of op in every run.
EXACT_DESIGN = (("explicit", 100, 5, 0.0), ("explicit", 150, 3, 0.0),
                ("explicit", 200, 4, CHECK_EPSILON), ("explicit", 250, 3, 0.0),
                ("explicit", 300, 3, CHECK_EPSILON), ("expansion", 3, 4, 0.0),
                ("expansion", 3, 5, 0.0), ("expansion", 3, 5, 0.0))


class ExactLp(_Workload):
    """One op is one certified solve_exact on an explicit prior.

    A round is the eight ops of EXACT_DESIGN: five random explicit priors
    with S = 100..300 states and 3..5 actions, two of them with
    epsilon = 0.05, and three i.i.d. expansions with m = 3, one with n = 4
    (81 states) and two with n = 5 (243 states), each expanded inside the
    op. Checks: the LP value matches the audit of the returned scheme, the
    scheme is epsilon-IC, and on expansions the value matches
    solve_s_signature.
    """

    name = "exact-lp"
    salt = 1
    tail_percentile = 75.0

    def __init__(self, P, seed: int):
        self.P = P
        self.seed = seed
        from persuasion import fixtures
        self.F = fixtures

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.salt, r])
        F = self.F
        out = []
        for kind, size, n, eps in EXACT_DESIGN:
            nonnegative = bool(rng.integers(2))
            if kind == "explicit":
                out.append((kind, F.random_explicit(rng, size, n, nonnegative), eps))
            else:
                out.append((kind, F.random_iid(rng, actions=n, types=size,
                                               nonnegative=nonnegative), eps))
        return [out[k] for k in rng.permutation(len(out))]

    def _expand_and_solve(self, iid):
        full = self.P.expand_product(iid)
        return full, self.P.solve_exact(full)

    def _run(self, h: Harness, kind, inst, eps) -> None:
        P = self.P
        if kind == "explicit":
            params = _params(kind=kind, S=inst.state_count, n=inst.action_count, eps=eps)
            op_id, sol = h.timed(params, P.solve_exact, inst, eps)
            if sol is not None:
                with h.checking():
                    h.fail(op_id, params, checks.check_exact(inst, sol, eps, P.audit))
            return
        params = _params(kind=kind, S=inst.type_count ** inst.action_count,
                         n=inst.action_count, m=inst.type_count, eps=eps)
        op_id, out = h.timed(params, self._expand_and_solve, inst)
        if out is None:
            return
        full, sol = out
        with h.checking():
            try:
                _, reference = P.solve_s_signature(inst)
            except Exception as exc:  # the oracle side failed; still a failed op
                h.fail(op_id, params, checks.classify_exception(exc))
                return
            h.fail(op_id, params, checks.check_exact(full, sol, eps, P.audit, reference))

    def warm_up(self) -> None:
        h = Harness(self.name, self.seed)
        rng = np.random.default_rng([self.seed, self.salt, WARM_UP_ROUND])
        self._run(h, "explicit", self.F.random_explicit(rng, 12, 3), CHECK_EPSILON)
        self._run(h, "expansion", self.F.random_iid(rng, actions=2, types=3), 0.0)


# ---------------------------------------------------------------------------
# blackbox-signal


BLACKBOX_K = 2000
BLACKBOX_EPSILON = 0.2
BLACKBOX_CHUNK = 100  # signals per fixture per round


class _Pooled:
    """Exact pooling of monte_carlo_eval reports over chunks of one fixture."""

    def __init__(self, n: int):
        self.trials = 0
        self.u1 = 0.0
        self.u2 = 0.0
        self.s1 = np.zeros((n, n))
        self.s2 = np.zeros((n, n))

    def add(self, rep) -> None:
        T = rep.trials
        self.trials += T
        self.u1 += T * rep.mean_sender_utility
        self.u2 += T * (rep.std_error ** 2 * T + rep.mean_sender_utility ** 2)
        self.s1 += T * rep.ic_slack_mean
        self.s2 += T * (rep.ic_slack_se ** 2 * T + rep.ic_slack_mean ** 2)

    def utility(self):
        mean = self.u1 / self.trials
        var = max(self.u2 / self.trials - mean ** 2, 0.0)
        return mean, math.sqrt(var / self.trials)

    def slack(self):
        mean = self.s1 / self.trials
        var = np.clip(self.s2 / self.trials - mean ** 2, 0.0, None)
        return mean, np.sqrt(var / self.trials)


class _TimedSampler:
    """Sampler adapter that makes each BlackboxSampler.sample call an op."""

    def __init__(self, h: Harness, sampler, params: dict, op_ids: list):
        self.h = h
        self.sampler = sampler
        self.params = params
        self.op_ids = op_ids

    def sample(self, state, rng):
        op_id, signal = self.h.timed(self.params, self.sampler.sample, state, rng)
        self.op_ids.append(op_id)
        if signal is None:
            raise _ChunkAborted()
        return signal


class _ChunkAborted(Exception):
    pass


class BlackboxSignal(_Workload):
    """One op is one BlackboxSampler.sample for a realized state.

    Finite-support ExplicitOracles over three fixtures (investor/2,
    rain-shine mixed, three-action shifted), K=2000 and epsilon=0.2, as
    in acceptance criteria 07 and 10. A round evaluates 100 realized
    states per fixture with monte_carlo_eval. At the end of the run the
    pooled reports of each fixture must pass the epsilon-optimality and
    epsilon-IC gates at 5 standard errors; a tripped gate fails every op
    of that fixture.
    """

    name = "blackbox-signal"
    salt = 2

    def __init__(self, P, seed: int):
        from persuasion import fixtures as F
        self.P = P
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.salt])
        self.fixtures = []
        for label, inst in (("investor/2", F.investor_blackbox_instance()),
                            ("rain-shine-mixed", F.rain_shine_mixed(0.1)),
                            ("three-action-shifted", F.three_action_shifted(0.1))):
            oracle = P.ExplicitOracle(inst)
            self.fixtures.append({
                "label": label,
                "oracle": oracle,
                "sampler": P.BlackboxSampler(oracle, epsilon=BLACKBOX_EPSILON, K=BLACKBOX_K),
                "opt": P.solve_exact(inst).value,
                "pooled": _Pooled(inst.action_count),
                "op_ids": [],
                "params": _params(fixture=label, S=inst.state_count,
                                  n=inst.action_count, K=BLACKBOX_K),
            })

    def ops(self, r: int) -> list:
        return self.fixtures

    def run_round(self, h: Harness, fixtures) -> None:
        P = self.P
        for fx in fixtures:
            timed = _TimedSampler(h, fx["sampler"], fx["params"], fx["op_ids"])
            try:
                rep = P.monte_carlo_eval(timed, P.OracleSource(fx["oracle"]),
                                         BLACKBOX_CHUNK, self.rng)
            except _ChunkAborted:
                continue  # the raising op is in the ledger; the chunk has no report
            with h.checking():
                fx["pooled"].add(rep)

    def warm_up(self) -> None:
        P = self.P
        for fx in self.fixtures:
            P.monte_carlo_eval(fx["sampler"], P.OracleSource(fx["oracle"]), 5, self.rng)

    def finish(self, h: Harness) -> None:
        for fx in self.fixtures:
            pooled = fx["pooled"]
            if pooled.trials == 0:
                continue
            mean, se = pooled.utility()
            failure = checks.check_at_least(
                f"{fx['label']} utility", mean, se, fx["opt"] - BLACKBOX_EPSILON)
            if failure is None:
                slack, slack_se = pooled.slack()
                worst = np.unravel_index(np.argmin(slack + checks.GATE_SE * slack_se),
                                         slack.shape)
                failure = checks.check_at_least(
                    f"{fx['label']} IC slack {worst}", float(slack[worst]),
                    float(slack_se[worst]), -BLACKBOX_EPSILON)
            if failure is not None:
                for op_id in fx["op_ids"]:
                    h.fail(op_id, fx["params"], failure)


# ---------------------------------------------------------------------------
# iid-route


IID_PROFILE_ENTRIES = 10 ** 6  # Monte-Carlo trials times actions per evaluation
IID_DECOMPOSE_CAP = 256  # decompose only when m**n is at most this
# (n, lowest m, highest m) of the ten ops of one round; m is drawn per op.
# Only n <= 4 is run: from n = 5 up, solve_s_signature sometimes returns an
# x that its own Border certificate rejects, or its LP ends in
# numerical_failure (IID_WIDE_DESIGN shows this). The round has six ops
# that do not decompose, one n = 2 op that decomposes (at most 144
# profiles), and three that decompose at 216 and 256 profiles, at the cap.
# The mix is fixed so that the median lands among the first group and the
# tail among the last in every run.
IID_DESIGN = ((3, 7, 12), (3, 7, 12), (4, 5, 12), (4, 5, 12), (4, 5, 12), (4, 5, 12),
              (2, 2, 12), (3, 6, 6), (4, 4, 4), (4, 4, 4))
# The full range of n, for showing the known defects; not in BENCHMARK.json.
# n runs over 22 log-spaced points of [2, 300] and every m in 2..12 appears
# twice; (8, 2) sits at the 256-profile cap.
IID_WIDE_DESIGN = tuple((n, m, m) for n, m in (
    (2, 12), (3, 5), (4, 3), (4, 9), (6, 10), (7, 11), (8, 2), (11, 4), (14, 7), (17, 12),
    (22, 2), (27, 8), (34, 6), (43, 10), (54, 3), (68, 9), (85, 5), (107, 11), (134, 4),
    (168, 7), (211, 6), (265, 8)))


class IidRoute(_Workload):
    """One op takes a random i.i.d. instance through the headline route.

    Steps, in order: solve_s_signature; border_feasible certification;
    solve_relaxation, IndependentSignalSampler and monte_carlo_eval over
    about 10**6 profile entries; when m**n <= 256, implement_s_signature
    and monte_carlo_eval of its sampler. A round runs the ten ops of
    IID_DESIGN on fresh random priors and payoffs; each op alternates
    between nonnegative and mixed-sign payoffs from round to round. No
    instance is filtered or re-drawn.

    Checks: the certificate holds; the relaxation value bounds the
    s-signature value; on nonnegative instances the independent sampler
    reaches 1 - (1 - 1/n)^n of the relaxation value; the decomposed
    sampler's mean matches the s-signature value (gates at 5 SE).
    """

    name = "iid-route"
    salt = 3
    design = IID_DESIGN
    tail_percentile = 75.0

    def __init__(self, P, seed: int):
        from persuasion import fixtures
        self.P = P
        self.F = fixtures
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.salt])
        warnings.filterwarnings("ignore", message="negative payoffs")

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.salt, r])
        out = [(self.F.random_iid(rng, actions=n, types=int(rng.integers(lo, hi + 1)),
                                  nonnegative=(k + r) % 2 == 0),)
               for k, (n, lo, hi) in enumerate(self.design)]
        return [out[k] for k in rng.permutation(len(out))]

    def _route(self, inst):
        P = self.P
        n, m = inst.action_count, inst.type_count
        q = inst.type_probs
        trials = max(1, IID_PROFILE_ENTRIES // n)
        ssig, value = P.solve_s_signature(inst)
        certified = P.border_feasible(ssig.recommended / q, q, n).feasible
        x, y, bound = P.solve_relaxation(inst)
        sampler = P.IndependentSignalSampler(inst, x, y)
        approx = P.monte_carlo_eval(sampler, P.IIDSource(inst), trials, self.rng)
        implemented = None
        if m ** n <= IID_DECOMPOSE_CAP:
            if not certified:
                # implement_s_signature refuses an x that fails the certificate
                return ssig, value, bound, approx, None
            implemented = P.monte_carlo_eval(P.implement_s_signature(inst, ssig),
                                             P.IIDSource(inst), trials, self.rng)
        return ssig, value, bound, approx, implemented

    def _run(self, h: Harness, inst) -> None:
        n, m = inst.action_count, inst.type_count
        nonneg = bool(inst.sender_payoffs.min() >= 0 and inst.receiver_payoffs.min() >= 0)
        params = _params(n=n, m=m, profiles=m ** n if m ** n <= IID_DECOMPOSE_CAP else None,
                         nonnegative=nonneg)
        op_id, out = h.timed(params, self._route, inst)
        if out is None:
            return
        ssig, value, bound, approx, implemented = out
        with h.checking():
            uncertified = checks.check_certified(ssig.recommended, inst.type_probs, n,
                                                 self.P.border_feasible)
            if uncertified is not None:
                h.count("iid.uncertified")
                h.fail(op_id, params, uncertified)
            if bound < value - checks.VALUE_TOL:
                h.fail(op_id, params, ("disagreement",
                                       f"relaxation {bound!r} below s-signature value {value!r}"))
            if nonneg:
                ratio = 1.0 - (1.0 - 1.0 / n) ** n
                h.fail(op_id, params, checks.check_at_least(
                    "independent guarantee", approx.mean_sender_utility,
                    approx.std_error, ratio * bound))
            if implemented is not None:
                slack = n * checks.REDUCED_FORM_TOL * float(np.abs(inst.sender_payoffs).max())
                h.fail(op_id, params, checks.check_close(
                    "implemented s-signature", implemented.mean_sender_utility,
                    implemented.std_error, value, slack))

    def warm_up(self) -> None:
        h = Harness(self.name, self.seed)
        rng = np.random.default_rng([self.seed, self.salt, WARM_UP_ROUND])
        for n, m in ((2, 3), (4, 6)):
            self._run(h, self.F.random_iid(rng, actions=n, types=m, nonnegative=True))


class IidRouteWide(IidRoute):
    """iid-route over IID_WIDE_DESIGN, n up to 300, where known defects show."""

    name = "iid-route-wide"
    salt = 5
    design = IID_WIDE_DESIGN
    tail_percentile = 90.0


# ---------------------------------------------------------------------------
# oracle-crosscheck


# Sizes of one round. The host's speed changes by up to 1.6x in phases of
# minutes, and small checks, which spend their time in the interpreter, slow
# by 1.3-1.5x while khintchine n = 8, which spends it in numpy, slows by
# about 1.06x. So the median falls among sixteen border checks with n = 4,
# m = 3 (brute force over 81 profiles, about 15 ms, mostly LP work), the
# tail among four khintchine n = 8 checks, and those two kinds with
# khintchine n = 7 take most of the round's time.
ORACLE_KHINTCHINE = (2, 3, 4, 5, 6) + (7,) * 5 + (8,) * 4  # n
ORACLE_BORDER = ((2, 2), (3, 2), (3, 3)) + ((4, 3),) * 16  # (n, m)
ORACLE_CONCAVIFICATION = ((2, 3), (3, 3))  # (states, actions)


class OracleCrosscheck(_Workload):
    """One op is one independent cross-check; a disagreement fails it.

    A round holds 41 checks: solve_khintchine_lp against
    khintchine_constant for the 14 n of ORACLE_KHINTCHINE, all in 2..8;
    border_feasible against allocation_exists_bruteforce for the 19 (n, m)
    of ORACLE_BORDER, all with n <= 4 and m <= 3 (many are infeasible,
    which drives the LP's phase 1 and Farkas path); realizability_check of
    signature_of on a solve_exact scheme for each (n, m) in {2, 3}^2;
    concavification_value against solve_exact on a 2-state and a 3-state
    prior; and, for 2 and 3 actions, one exactly-IC (epsilon = 0)
    BlackboxSampler signal, K = 2000, on a random point-mass prior against
    the recommendation of solve_exact (acceptance criterion 10 in
    miniature). The last kind keeps the blackbox layer traced when
    blackbox-signal is not run. The sizes are fixed; the seed draws the
    contents. The four khintchine n = 8 checks are the slowest 10% of the
    ops, so p95, which op_ms_tail reports, lies in the middle of them.
    """

    name = "oracle-crosscheck"
    salt = 4
    tail_percentile = 95.0

    def __init__(self, P, seed: int):
        from persuasion import fixtures
        self.P = P
        self.F = fixtures
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.salt])
        warnings.filterwarnings("ignore", message="epsilon = 0")

    def ops(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.salt, r])
        F = self.F
        out = [("khintchine", rng.uniform(-2.0, 2.0, n)) for n in ORACLE_KHINTCHINE]
        for n, m in ORACLE_BORDER:
            q = F.random_simplex(rng, m)
            out.append(("border", (rng.random(m), q, n)))
        for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
            out.append(("realizability", F.random_iid(rng, actions=n, types=m)))
        for S, n in ORACLE_CONCAVIFICATION:
            out.append(("concavification", F.random_explicit(rng, S, n)))
        for n in (2, 3):
            out.append(("blackbox", F.random_explicit(rng, 1, n)))
        return [out[k] for k in rng.permutation(len(out))]

    def _khintchine(self, a):
        return self.P.solve_khintchine_lp(a), self.P.khintchine_constant(a)

    def _border(self, tau, q, n):
        return (self.P.border_feasible(tau, q, n).feasible,
                self.P.allocation_exists_bruteforce(tau, q, n))

    def _realizability(self, iid):
        P = self.P
        sol = P.solve_exact(P.expand_product(iid))
        return P.realizability_check(P.signature_of(iid, sol.scheme), iid), True

    def _blackbox(self, inst):
        P = self.P
        oracle = P.ExplicitOracle(inst)
        sampler = P.BlackboxSampler(oracle, epsilon=0.0, K=BLACKBOX_K)
        signal = sampler.sample(oracle.draw(self.rng), self.rng)
        return signal, int(np.argmax(P.solve_exact(inst).scheme.phi[0]))

    def _concavification(self, inst, *resolution):
        return self.P.concavification_value(inst, *resolution), self.P.solve_exact(inst).value

    def _run(self, h: Harness, kind, arg, *resolution) -> None:
        if kind == "khintchine":
            params = _params(kind=kind, n=arg.size, S=2 ** arg.size)
            op_id, out = h.timed(params, self._khintchine, arg)
        elif kind == "border":
            tau, q, n = arg
            params = _params(kind=kind, n=n, m=q.size, S=q.size ** n)
            op_id, out = h.timed(params, self._border, tau, q, n)
        elif kind == "realizability":
            params = _params(kind=kind, n=arg.action_count, m=arg.type_count,
                             S=arg.type_count ** arg.action_count)
            op_id, out = h.timed(params, self._realizability, arg)
        elif kind == "blackbox":
            params = _params(kind=kind, S=1, n=arg.action_count, K=BLACKBOX_K)
            op_id, out = h.timed(params, self._blackbox, arg)
        else:
            params = _params(kind=kind, S=arg.state_count, n=arg.action_count)
            op_id, out = h.timed(params, self._concavification, arg, *resolution)
        if out is not None:
            with h.checking():
                h.fail(op_id, params, checks.check_agree(kind, *out))

    def warm_up(self) -> None:
        h = Harness(self.name, self.seed)
        rng = np.random.default_rng([self.seed, self.salt, WARM_UP_ROUND])
        F = self.F
        self._run(h, "khintchine", rng.uniform(-2.0, 2.0, 3))
        self._run(h, "border", (rng.random(2), F.random_simplex(rng, 2), 2))
        self._run(h, "realizability", F.random_iid(rng, actions=2, types=2))
        self._run(h, "concavification", F.random_explicit(rng, 2, 3))
        self._run(h, "concavification", F.random_explicit(rng, 3, 3), 8)
        self._run(h, "blackbox", F.random_explicit(rng, 1, 2))


WORKLOADS = {w.name: w for w in (ExactLp, BlackboxSignal, IidRoute, OracleCrosscheck,
                                 IidRouteWide)}
