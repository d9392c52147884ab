"""Independent oracles and statistical evaluation.

Everything here exists to check the solvers from a different direction:
concavification_value recomputes the optimum of an instance with at most
three states exactly, as the concave envelope of the posterior value over
the vertices of the best-response arrangement; realizability_check
decides whether a claimed signature, with any number of signals, is
achievable by any scheme at all, by one feasibility LP built on
iid.signature_map (a TwoSignalSignature is the two-signal case over the
uniform sign prior); and monte_carlo_eval estimates utility and
incentive slacks of an arbitrary signal sampler by simulation. Fixed
schemes, full and no information included, sample through
DirectSchemeSampler; only the black-box sampler draws trial by trial.
allocation_exists_bruteforce decides realizability of a symmetric
reduced form by a transportation LP over all type profiles, sharing
nothing with border_feasible or with iid's priority decomposition.

A simulation costs O(trials * actions) numpy work in three stages: the
source draws state indices or type profiles through a table-driven
inverse CDF (model.InverseCDF), the sampler draws recommendations, and
the per-signal statistics are (recommendation, action) cell sums that
np.add.at accumulates in trial order, one block of BLOCK_TRIALS trials
at a time. Sources hand out indices and read payoffs per block
(payoffs(batch, rows)), so memory is the batch plus O(BLOCK_TRIALS *
actions) temporaries. The draws consume the generator exactly as a
binary search over the cumulative probabilities would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .blackbox import SampleOracle
from .errors import InstanceTooLargeError, SolverError, ValidationError
from .exact import type_profiles
from .iid import Signature, signature_map
from .khintchine import TwoSignalSignature
from .lp import LinearProgram, solve
from .model import (
    DirectScheme,
    ExplicitInstance,
    IIDInstance,
    InverseCDF,
    _unit_factors,
    best_response_many,
)

VERTEX_DET_TOL = 1e-12  # on unit normals and the all-ones row
SIMPLEX_TOL = 1e-12
ORACLE_PROFILE_CAP = 4096
BLOCK_TRIALS = 2 ** 14  # trials per block of the Monte-Carlo cell sums
_GATHER_BLOCK = 2 ** 16  # (trial, signal) entries per sampler block


# ---------------------------------------------------------------------------
# simulation sources and samplers


class ExplicitSource:
    """Draws state indices from an explicit instance."""

    def __init__(self, instance: ExplicitInstance):
        self.instance = instance
        self.action_count = instance.action_count
        self._state_of = InverseCDF(instance.state_probs)

    def draw_many(self, trials: int, rng: np.random.Generator):
        return self._state_of(rng.random(trials))

    def payoffs(self, batch, rows: slice):
        idx = batch[rows]
        return self.instance.sender_payoffs[idx], self.instance.receiver_payoffs[idx]

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
        return self._type_of(rng.random((trials, self.action_count)))

    def payoffs(self, batch, rows: slice):
        profiles = batch[rows]
        return self.instance.sender_payoffs[profiles], self.instance.receiver_payoffs[profiles]

    @staticmethod
    def iter_states(batch):
        return iter(batch)


class OracleSource:
    """Draws payoff pairs from a black-box oracle."""

    def __init__(self, oracle: SampleOracle):
        self.oracle = oracle
        self.action_count = oracle.action_count

    def draw_many(self, trials: int, rng: np.random.Generator):
        return self.oracle.draw_batch(trials, rng)

    @staticmethod
    def payoffs(batch, rows: slice):
        s, r = batch
        return s[rows], r[rows]

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
        draws = rng.random((states.size, 1))
        k = self.scheme.signal_count
        out = np.empty(states.size, dtype=np.intp)
        rows = -(-_GATHER_BLOCK // k)  # blocks: no (T, k) gather or compare
        for lo in range(0, states.size, rows):
            block = slice(lo, lo + rows)
            (self._cum[states[block]] <= draws[block]).sum(axis=1, out=out[block])
        return np.minimum(out, k - 1, out=out)


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation


@dataclass(frozen=True)
class EvalReport:
    """Simulation estimates for a signal sampler.

    ic_slack_mean[i, j] estimates the prior-weighted advantage of following
    recommendation i over deviating to j, with entrywise standard errors in
    ic_slack_se. follow_rate is the fraction of trials whose recommendation
    is a best response to the empirical posterior of its signal, with ties
    judged on the signals' mean payoffs scaled by powers of two into
    (1/2, 1], so that scaling the payoffs by 2**k leaves it as it is.

    std_error is the empirical standard error of the mean utility. It
    reads 0 when every trial paid the same, for instance when no trial
    drew a rare type, so a "within k standard errors" gate needs a floor
    of its own.
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

    The source draws a batch of indices (or, for an oracle, payoff pairs)
    and the sampler recommends an action per trial. The payoffs are then
    read in blocks of BLOCK_TRIALS trials: each block fills its slice of
    the utilities vector and adds the IC slack, squared slack, receiver
    and sender payoffs to their (recommendation, action) cell sums with
    np.add.at. Each sum adds in trial order from +0.0, so the blocks give
    the same bits as one pass. Memory is the batch plus O(BLOCK_TRIALS *
    actions) temporaries; no trials-by-actions payoff matrix is built.
    trials must be an integer >= 1. Recommendations must be integer
    actions in 0..n-1; anything else raises ValidationError.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    n = source.action_count
    batch = source.draw_many(trials, rng)
    if hasattr(sampler, "sample_many"):
        raw = sampler.sample_many(batch, rng)
    else:
        raw = [sampler.sample(state, rng) for state in source.iter_states(batch)]
    recs = _checked_recommendations(raw, trials, n)
    utilities = np.empty(trials)
    # slack, squared slack, receiver and sender sums per (recommendation, action)
    sums = np.zeros((4, n * n))
    for start in range(0, trials, BLOCK_TRIALS):
        rows = slice(start, start + BLOCK_TRIALS)
        sender, receiver = source.payoffs(batch, rows)
        rec = recs[rows]
        k = np.arange(rec.size)
        utilities[rows] = sender[k, rec]
        diffs = receiver[k, rec][:, None] - receiver
        cells = (rec[:, None] * n + np.arange(n)).ravel()
        for row, weights in enumerate((diffs, diffs * diffs, receiver, sender)):
            np.add.at(sums[row], cells, weights.ravel())
    mean = float(utilities.mean())
    se = float(utilities.std(ddof=0) / np.sqrt(trials))

    # moments of the indicator-weighted slack over all trials, not over hits
    slack_sum, second_sum, r_sum, s_sum = sums.reshape(4, n, n)
    slack_mean = slack_sum / trials
    second = second_sum / trials
    slack_se = np.sqrt(np.clip(second - slack_mean ** 2, 0.0, None) / trials)
    counts = np.bincount(recs, minlength=n).astype(float)
    seen = np.flatnonzero(counts)
    r_mean, s_mean = r_sum[seen] / counts[seen, None], s_sum[seen] / counts[seen, None]
    ks, kr = _unit_factors(s_mean, r_mean)  # ties are judged relative to the payoffs
    followed = counts[seen][best_response_many(r_mean * kr, s_mean * ks) == seen].sum()
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


def _feasible(lp: LinearProgram, name: str) -> bool:
    """Verdict of a feasibility LP: optimal is True, infeasible is False."""
    status = solve(lp).status
    if status not in ("optimal", "infeasible"):
        raise SolverError(f"{name} LP ended with status {status}")
    return status == "optimal"


def realizability_check(signature: Union[Signature, TwoSignalSignature],
                        instance: Optional[IIDInstance] = None) -> bool:
    """Does any signaling scheme have this signature?

    Solved as a feasibility LP over the per-state probabilities phi[t, i]
    of the k = M.shape[0] signals on the product expansion, variable
    t*k + i: one "=" row per (signal i, action j, type l) from
    signature_map, then one per state making its row a distribution. A
    TwoSignalSignature is the two-signal signature of the uniform prior
    q = (1/2, 1/2) on the types (-1, +1) and needs no instance.
    """
    if isinstance(signature, TwoSignalSignature):
        M, q = np.stack([signature.plus, signature.minus]), np.full(2, 0.5)
    elif instance is None:
        raise ValidationError("realizability of a full signature needs the instance")
    else:
        M, q = signature.matrices, instance.type_probs
        if M.shape[1:] != (instance.action_count, q.size):
            raise ValidationError("signature shape does not match the instance")
    k, n, m = M.shape
    if np.max(np.abs(M.sum(axis=0) - q)) > 1e-9:
        return False
    ties = signature_map(q, n, k, ORACLE_PROFILE_CAP)
    S = ties.shape[1]
    A = np.zeros((k * n * m + S, S, k))
    A[: k * n * m] = ties
    A[k * n * m + np.arange(S), np.arange(S)] = 1.0
    return _feasible(LinearProgram(np.zeros(S * k), A=A.reshape(-1, S * k),
                                   relations=np.full(k * n * m + S, "="),
                                   b=np.concatenate([M.ravel(), np.ones(S)])),
                     "realizability")


def _transport_lp(profiles: np.ndarray, q: np.ndarray, tau: np.ndarray) -> LinearProgram:
    """Feasibility LP of an allocation rule with reduced form tau.

    Variable t*n + i is bidder i's chance of the item at profile t. One
    "<=" row per profile caps its total at 1; one "=" row per (bidder i,
    type j) sets i's prior-weighted wins at type j to q_j * tau_j.
    """
    (S, n), m = profiles.shape, q.size
    A = np.zeros((S + n * m, S, n))
    A[np.arange(S), np.arange(S)] = 1.0
    rows = S + np.arange(n) * m + profiles  # (t, i) -> row of (i, type of i at t)
    A[rows, np.arange(S)[:, None], np.arange(n)] = np.prod(q[profiles], axis=1)[:, None]
    return LinearProgram(np.zeros(S * n), A=A.reshape(S + n * m, S * n),
                         relations=np.repeat(["<=", "="], [S, n * m]),
                         b=np.concatenate([np.ones(S), np.tile(q * tau, n)]))


def allocation_exists_bruteforce(tau, q, n: int) -> bool:
    """Flow-style feasibility oracle for symmetric reduced forms.

    Decides directly, by a transportation LP over all m^n type profiles
    (_transport_lp), whether any allocation rule gives every bidder of
    type j the item with conditional probability tau[j]. Used to
    cross-check the subset inequalities of border_feasible, so it calls
    neither border_feasible nor the priority decomposition.
    """
    tau = np.asarray(tau, dtype=float)
    q = np.asarray(q, dtype=float)
    profiles = type_profiles([q.size] * n, ORACLE_PROFILE_CAP)
    return _feasible(_transport_lp(profiles, q, tau), "brute-force feasibility")


# ---------------------------------------------------------------------------
# concavification


def _value_at(instance: ExplicitInstance, posteriors: np.ndarray) -> np.ndarray:
    """Sender value of the receiver's tie-broken best response, per posterior row."""
    r = posteriors @ instance.receiver_payoffs
    s = posteriors @ instance.sender_payoffs
    choice = best_response_many(r, s)
    return s[np.arange(len(s)), choice]


def _arrangement_vertices(instance: ExplicitInstance) -> np.ndarray:
    """Vertices of the best-response arrangement in the simplex, one per row.

    The hyperplanes are r_i = r_j and s_i = s_j for each pair of actions
    and the facets mu_k = 0; a vertex solves S - 1 of them and sum(mu) = 1.
    Normals are scaled to unit length and zero ones (equal payoffs) are
    dropped, so the singularity test does not depend on the payoff scale.
    """
    S, r, s = instance.state_count, instance.receiver_payoffs, instance.sender_payoffs
    i, j = np.triu_indices(instance.action_count, 1)
    normals = np.vstack([(r[:, i] - r[:, j]).T, (s[:, i] - s[:, j]).T, np.eye(S)])
    norms = np.linalg.norm(normals, axis=1)
    normals = normals[norms > 0.0] / norms[norms > 0.0, None]
    combos = list(itertools.combinations(range(len(normals)), S - 1))
    picks = np.array(combos, dtype=int).reshape(len(combos), S - 1)
    systems = np.concatenate([normals[picks], np.ones((len(picks), 1, S))], axis=1)
    systems = systems[np.abs(np.linalg.det(systems)) > VERTEX_DET_TOL]
    pts = np.linalg.solve(systems, np.eye(S)[:, -1:])[..., 0]
    pts = np.clip(pts[np.all(pts >= -SIMPLEX_TOL, axis=1)], 0.0, None)
    return pts / pts.sum(axis=1, keepdims=True)


def concavification_value(instance: ExplicitInstance, resolution=None) -> float:
    """Optimal sender value via the concave envelope of the posterior value.

    The sender's value as a function of the posterior is piecewise linear
    on the cells of the best-response arrangement and upper semicontinuous
    (receiver ties go to the sender), so its concave envelope is attained
    on cell vertices. The envelope at the prior is one LP with S rows over
    those vertices and the prior. Sender and receiver payoffs are first
    scaled by powers of two to a largest magnitude in (1/2, 1], so the
    tie and LP tolerances act relative to the payoffs. This is exact for
    S <= 3 and independent of solve_exact; larger instances raise
    InstanceTooLargeError. resolution has no effect: it is kept only
    because the benchmark harness still passes one.
    """
    S = instance.state_count
    if S > 3:
        raise InstanceTooLargeError(S, 3)
    ks, kr = _unit_factors(instance.sender_payoffs, instance.receiver_payoffs)
    unit = ExplicitInstance(instance.state_probs, instance.sender_payoffs * ks,
                            instance.receiver_payoffs * kr)
    pts = np.vstack([_arrangement_vertices(unit), unit.state_probs[None, :]])
    out = solve(LinearProgram(_value_at(unit, pts), A=pts.T, relations=np.full(S, "="),
                              b=unit.state_probs))
    if out.status != "optimal":
        raise SolverError(f"envelope LP ended with status {out.status}")
    return float(out.value) / ks
