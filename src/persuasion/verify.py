"""Independent oracles and statistical evaluation.

Everything here exists to check the solvers from a different direction:
concavification_value recomputes small-instance optima from the geometry
of posteriors, realizability_check decides whether a claimed signature is
achievable by any scheme at all, and monte_carlo_eval estimates utility
and incentive slacks of an arbitrary signal sampler by simulation.

A simulation costs O(trials * actions) numpy work in three stages: the
source draws states through a table-driven inverse CDF
(model.InverseCDF), the sampler draws recommendations, and every
per-signal statistic is one weighted np.bincount over (recommendation,
action) cells. The draws consume the generator exactly as a binary
search over the cumulative probabilities would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .blackbox import SampleOracle
from .errors import InstanceTooLargeError, SolverError, ValidationError
from .exact import honest_scheme, no_information_scheme
from .iid import Signature, all_profiles, transport_lp
from .khintchine import TwoSignalSignature, membership_check
from .lp import LinearProgram, solve
from .model import (
    DirectScheme,
    ExplicitInstance,
    IIDInstance,
    InverseCDF,
    best_response,
    best_response_many,
)

GRID_RESOLUTION = 512


# ---------------------------------------------------------------------------
# simulation sources and samplers


class ExplicitSource:
    """Draws state indices from an explicit instance."""

    def __init__(self, instance: ExplicitInstance):
        self.instance = instance
        self.action_count = instance.action_count
        self._state_of = InverseCDF(instance.state_probs)

    def draw_many(self, trials: int, rng: np.random.Generator):
        idx = self._state_of(rng.random(trials))
        return idx, self.instance.sender_payoffs[idx], self.instance.receiver_payoffs[idx]

    @staticmethod
    def iter_states(batch):
        return iter(batch)


class IIDSource:
    """Draws type profiles from an i.i.d. instance."""

    def __init__(self, instance: IIDInstance):
        self.instance = instance
        self.action_count = instance.action_count
        self._type_of = InverseCDF(instance.type_probs)

    def draw_many(self, trials: int, rng: np.random.Generator):
        profiles = self._type_of(rng.random((trials, self.action_count)))
        sender = self.instance.sender_payoffs[profiles]
        receiver = self.instance.receiver_payoffs[profiles]
        return profiles, sender, receiver

    @staticmethod
    def iter_states(batch):
        return iter(batch)


class OracleSource:
    """Draws payoff pairs from a black-box oracle."""

    def __init__(self, oracle: SampleOracle):
        self.oracle = oracle
        self.action_count = oracle.action_count

    def draw_many(self, trials: int, rng: np.random.Generator):
        s, r = self.oracle.draw_batch(trials, rng)
        return (s, r), s, r

    @staticmethod
    def iter_states(batch):
        s, r = batch
        return zip(s, r)


class DirectSchemeSampler:
    """Samples signals from an explicit row-stochastic scheme by state index."""

    def __init__(self, scheme: DirectScheme):
        self.scheme = scheme
        self._cum = np.cumsum(scheme.phi, axis=1)

    def sample(self, state: int, rng: np.random.Generator) -> int:
        return int(self.sample_many(np.array([state]), rng)[0])

    def sample_many(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rows = self._cum[states]
        draws = rng.random((states.size, 1))
        k = self.scheme.signal_count
        return np.minimum((rows <= draws).sum(axis=1), k - 1)


class FullInformationSampler:
    """Recommends the receiver-best action of the realized state."""

    def __init__(self, instance: ExplicitInstance):
        self._rec = honest_scheme(instance).phi.argmax(axis=1)

    def sample(self, state: int, rng: np.random.Generator) -> int:
        return int(self._rec[state])

    def sample_many(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._rec[states]


class NoInformationSampler:
    """Constant recommendation of the receiver's prior-best action."""

    def __init__(self, instance: ExplicitInstance):
        self._rec = int(no_information_scheme(instance).phi[0].argmax())

    def sample(self, state: int, rng: np.random.Generator) -> int:
        return self._rec

    def sample_many(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full(states.shape[0], self._rec, dtype=int)


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation


@dataclass(frozen=True)
class EvalReport:
    """Simulation estimates for a signal sampler.

    ic_slack_mean[i, j] estimates the prior-weighted advantage of following
    recommendation i over deviating to j, with entrywise standard errors in
    ic_slack_se. follow_rate is the fraction of trials whose recommendation
    is a best response to the empirical posterior of its signal.
    """

    trials: int
    mean_sender_utility: float
    std_error: float
    ic_slack_mean: np.ndarray
    ic_slack_se: np.ndarray
    follow_rate: float
    signal_counts: np.ndarray


def _checked_recommendations(raw, trials: int, n: int) -> np.ndarray:
    """Sampler output as an integer array of actions, or ValidationError."""
    recs = np.asarray(raw)
    if recs.shape != (trials,):
        raise ValidationError(
            f"sampler returned shape {recs.shape}, expected ({trials},)")
    if recs.dtype.kind not in "iu":
        if recs.dtype.kind != "f" or not np.all(np.mod(recs, 1.0) == 0.0):
            raise ValidationError("recommendations must be integers")
        recs = recs.astype(int)
    lo, hi = int(recs.min()), int(recs.max())
    if lo < 0 or hi >= n:
        raise ValidationError(
            f"recommendation {lo if lo < 0 else hi} outside actions 0..{n - 1}")
    return recs


def monte_carlo_eval(sampler, source, trials: int,
                     rng: np.random.Generator) -> EvalReport:
    """Simulate a sampler against a state source, assuming recommendations
    are followed. Deterministic given the generator's seed.

    Every per-signal statistic is one weighted np.bincount over the
    (recommendation, action) cells of the trials-by-actions payoff
    matrices: IC slack sums, squared-slack sums, and the receiver and
    sender payoff sums behind the empirical posteriors. The cost is a
    fixed number of passes over trials * actions entries, with no copy
    per action, and a few trials-by-actions temporaries. Each sum adds in
    trial order. Recommendations must be integer actions in 0..n-1;
    anything else raises ValidationError.
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    n = source.action_count
    batch, sender, receiver = source.draw_many(trials, rng)
    if hasattr(sampler, "sample_many"):
        raw = sampler.sample_many(batch, rng)
    else:
        raw = [sampler.sample(state, rng) for state in source.iter_states(batch)]
    recs = _checked_recommendations(raw, trials, n)
    rows = np.arange(trials)
    utilities = sender[rows, recs]
    mean = float(utilities.mean())
    se = float(utilities.std(ddof=0) / np.sqrt(trials))

    cells = (recs[:, None] * n + np.arange(n)).ravel()

    def cell_sums(weights):
        return np.bincount(cells, weights.ravel(), minlength=n * n).reshape(n, n)

    # moments of the indicator-weighted slack over all trials, not over hits
    diffs = receiver[rows, recs][:, None] - receiver
    slack_mean = cell_sums(diffs) / trials
    second = cell_sums(diffs * diffs) / trials
    slack_se = np.sqrt(np.clip(second - slack_mean ** 2, 0.0, None) / trials)
    counts = np.bincount(recs, minlength=n).astype(float)
    r_sum, s_sum = cell_sums(receiver), cell_sums(sender)
    followed = sum(counts[i] for i in np.flatnonzero(counts)
                   if best_response(r_sum[i] / counts[i], s_sum[i] / counts[i]) == i)
    return EvalReport(
        trials=trials,
        mean_sender_utility=mean,
        std_error=se,
        ic_slack_mean=slack_mean,
        ic_slack_se=slack_se,
        follow_rate=followed / trials,
        signal_counts=counts,
    )


# ---------------------------------------------------------------------------
# realizability


def realizability_check(signature: Union[Signature, TwoSignalSignature],
                        instance: Optional[IIDInstance] = None,
                        cap: int = 4096) -> bool:
    """Does any signaling scheme have this signature?

    Solved as a feasibility LP over per-state signal probabilities of the
    product expansion; two-signal signatures use the dedicated membership
    program for the uniform sign prior.
    """
    if isinstance(signature, TwoSignalSignature):
        return membership_check(signature)
    if instance is None:
        raise ValidationError("realizability of a full signature needs the instance")
    n, m = instance.action_count, instance.type_count
    M = signature.matrices
    if M.shape != (n, n, m):
        raise ValidationError("signature shape does not match the instance")
    marg = M.sum(axis=0)
    if np.max(np.abs(marg - instance.type_probs[None, :])) > 1e-9:
        return False
    profiles = all_profiles(m, n, cap=cap)
    S = profiles.shape[0]
    lam = np.prod(instance.type_probs[profiles], axis=1)
    # variables phi[t, i] at t*n + i; one "=" row per (signal i, action j,
    # type k) in that order, then one per state making its row a distribution
    A = np.zeros((n * n * m + S, S, n))
    i, j = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
    A[(i * n + j) * m + profiles.T, np.arange(S), i] = lam
    A[n * n * m + np.arange(S), np.arange(S)] = 1.0
    out = solve(LinearProgram(np.zeros(S * n), A=A.reshape(-1, S * n),
                              relations=np.full(n * n * m + S, "="),
                              b=np.concatenate([M.ravel(), np.ones(S)])))
    if out.status == "optimal":
        return True
    if out.status == "infeasible":
        return False
    raise SolverError(f"realizability LP ended with status {out.status}")


def allocation_exists_bruteforce(tau, q, n: int, cap: int = 4096) -> bool:
    """Flow-style feasibility oracle for symmetric reduced forms.

    Decides directly, by a transportation LP over all m^n type profiles
    (iid.transport_lp, the program decompose_reduced_form solves), whether
    any allocation rule gives every bidder of type j the item with
    conditional probability tau[j]. Used to cross-check the subset
    inequalities of border_feasible: it shares the program with the
    decomposition, never the decision, so it does not call border_feasible.
    """
    tau = np.asarray(tau, dtype=float)
    q = np.asarray(q, dtype=float)
    out = solve(transport_lp(all_profiles(q.size, n, cap=cap), q, tau))
    if out.status == "optimal":
        return True
    if out.status == "infeasible":
        return False
    raise SolverError(f"brute-force feasibility LP ended with status {out.status}")


# ---------------------------------------------------------------------------
# concavification


def _value_at(instance: ExplicitInstance, posteriors: np.ndarray) -> np.ndarray:
    """Sender value of the receiver's tie-broken best response, per posterior row."""
    r = posteriors @ instance.receiver_payoffs
    s = posteriors @ instance.sender_payoffs
    choice = best_response_many(r, s)
    return s[np.arange(len(s)), choice]


def concavification_value(instance: ExplicitInstance,
                          resolution: int = GRID_RESOLUTION) -> float:
    """Optimal sender value via the concave envelope of the posterior value.

    The sender's value as a function of the receiver's posterior is
    piecewise linear with pieces bounded by best-response switching loci,
    and the optimum is the concave envelope of that function at the prior.
    With two states the construction is exact via the switching
    breakpoints; with three states the candidate set is a triangulated
    grid plus all switching loci, their pairwise intersections, and the
    sender-indifference points along each locus, which again contains
    every vertex of the piecewise-linear arrangement. Supports at most
    three states; this is an oracle, not a solver.
    """
    S = instance.state_count
    if S > 3:
        raise InstanceTooLargeError(S, 3)
    if S == 1:
        return float(_value_at(instance, np.ones((1, 1)))[0])
    if S == 2:
        return _concavify_two(instance)
    return _concavify_three(instance, resolution)


def _concavify_two(instance: ExplicitInstance) -> float:
    r = instance.receiver_payoffs  # (2, n)
    s = instance.sender_payoffs
    ps = {0.0, 1.0, float(instance.state_probs[1])}
    n = instance.action_count
    for i in range(n):
        for j in range(i + 1, n):
            for mat in (r, s):
                d0 = mat[0, i] - mat[0, j]
                d1 = mat[1, i] - mat[1, j]
                if d0 != d1:
                    p = d0 / (d0 - d1)
                    if 0.0 < p < 1.0:
                        ps.add(float(p))
    pts = np.array(sorted(ps))
    posts = np.stack([1.0 - pts, pts], axis=1)
    vals = _value_at(instance, posts)
    prior = float(instance.state_probs[1])
    best = -np.inf
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            a, b = pts[i], pts[j]
            if not (a - 1e-15 <= prior <= b + 1e-15):
                continue
            if j == i:
                cand = vals[i]
            else:
                t = (prior - a) / (b - a)
                cand = (1 - t) * vals[i] + t * vals[j]
            best = max(best, float(cand))
    return best


def _simplex_grid(resolution: int) -> np.ndarray:
    """Points (i, j, resolution - i - j) / resolution, i then j ascending."""
    steps = np.arange(resolution + 1)
    i, j = np.nonzero(steps[:, None] + steps <= resolution)
    return np.stack([i, j, resolution - i - j], axis=1).astype(float) / resolution


def _loci_points(instance: ExplicitInstance, resolution: int) -> np.ndarray:
    """Points on and around best-response switching loci in the 2-simplex."""
    r = instance.receiver_payoffs  # (3, n)
    s = instance.sender_payoffs
    n = instance.action_count
    normals = []
    for i, j in itertools.combinations(range(n), 2):
        normals.append(r[:, i] - r[:, j])
        normals.append(s[:, i] - s[:, j])
    pts = [np.eye(3)[k] for k in range(3)]

    def clip_to_simplex(p):
        if np.all(p >= -1e-12) and abs(p.sum() - 1.0) < 1e-9:
            pts.append(np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum())

    ones = np.ones(3)
    for d in normals:
        # segment endpoints: intersections with the simplex boundary mu_k = 0
        for k in range(3):
            rows = np.array([d, ones, np.eye(3)[k]])
            rhs = np.array([0.0, 1.0, 0.0])
            try:
                p = np.linalg.solve(rows, rhs)
            except np.linalg.LinAlgError:
                continue
            clip_to_simplex(p)
        for d2 in normals:
            if d2 is d:
                continue
            rows = np.array([d, d2, ones])
            rhs = np.array([0.0, 0.0, 1.0])
            try:
                p = np.linalg.solve(rows, rhs)
            except np.linalg.LinAlgError:
                continue
            clip_to_simplex(p)
    # sampled points along each locus segment, for robustness
    base = np.array(pts)
    extra = []
    for d in normals:
        on_locus = base[np.abs(base @ d) < 1e-11]
        if len(on_locus) >= 2:
            gaps = ((on_locus[:, None, :] - on_locus[None, :, :]) ** 2).sum(-1)
            i0, j0 = np.unravel_index(np.argmax(gaps), gaps.shape)
            lo, hi = on_locus[i0], on_locus[j0]
            ts = np.linspace(0.0, 1.0, resolution // 4 + 2)
            extra.append(np.outer(1 - ts, lo) + np.outer(ts, hi))
    if extra:
        base = np.vstack([base] + extra)
    return base


def _concavify_three(instance: ExplicitInstance, resolution: int) -> float:
    pts = np.vstack([
        _simplex_grid(resolution),
        _loci_points(instance, resolution),
        instance.state_probs[None, :],
    ])
    vals = _value_at(instance, pts)
    # envelope at the prior: the best mixture of candidate posteriors
    # averaging back to the prior
    out = solve(LinearProgram(vals, A=pts.T, relations=["="] * 3,
                              b=instance.state_probs))
    if out.status != "optimal":
        raise SolverError(f"envelope LP ended with status {out.status}")
    return float(out.value)
