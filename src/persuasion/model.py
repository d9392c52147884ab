"""Core domain types: instances, schemes, posteriors, and IC audits.

All types are immutable after construction (arrays are marked read-only)
and safe to share across threads; the operations here are pure functions.
Actions and signals are indexed from 0 throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, ValidationError

PROB_SUM_TOL = 1e-12
ROW_SUM_TOL = 1e-9
TIE_TOL = 1e-9  # absolute: instances accept any payoff scale, and gaps below this merge
IC_TOL = 1e-9


def _frozen(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} must be finite")


def _require_epsilon(epsilon) -> None:
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon!r}")


@dataclass(frozen=True)
class ExplicitInstance:
    """A finite prior over states of nature with per-state payoff vectors.

    state_probs has one entry per state; sender_payoffs and receiver_payoffs
    are (state, action) matrices.
    """

    state_probs: np.ndarray
    sender_payoffs: np.ndarray
    receiver_payoffs: np.ndarray

    def __init__(self, state_probs, sender_payoffs, receiver_payoffs):
        p = _frozen(state_probs)
        s = _frozen(np.atleast_2d(sender_payoffs))
        r = _frozen(np.atleast_2d(receiver_payoffs))
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("need at least one state")
        if s.shape[0] != p.size:
            raise DimensionError("states", p.size, s.shape[0])
        if r.shape != s.shape:
            raise DimensionError("receiver payoff matrix", s.shape, r.shape)
        if s.shape[1] < 1:
            raise ValidationError("need at least one action")
        _require_finite(state_probs=p, sender_payoffs=s, receiver_payoffs=r)
        if np.any(p < -PROB_SUM_TOL):
            raise ValidationError("state probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"state probabilities sum to {p.sum()!r}, not 1"
            )
        object.__setattr__(self, "state_probs", p)
        object.__setattr__(self, "sender_payoffs", s)
        object.__setattr__(self, "receiver_payoffs", r)

    @property
    def state_count(self) -> int:
        return self.state_probs.size

    @property
    def action_count(self) -> int:
        return self.sender_payoffs.shape[1]


def _unit_factors(instance: ExplicitInstance):
    """(ks, kr): the powers of two that bring the largest magnitude of the
    sender and of the receiver payoffs into (1/2, 1] (1.0 for an all-zero
    matrix). Scaling by them is exact, so tolerances applied to the scaled
    payoffs act relative to the payoffs."""
    def factor(payoffs):
        mant, e = math.frexp(max(payoffs.max(), -payoffs.min()))  # mant in [1/2, 1)
        return math.ldexp(1.0, (mant == 0.5) - e)

    return factor(instance.sender_payoffs), factor(instance.receiver_payoffs)


@dataclass(frozen=True)
class IIDInstance:
    """Identically and independently distributed action types.

    Each of action_count actions draws a type from type_probs; a type j
    pays sender_payoffs[j] to the sender and receiver_payoffs[j] to the
    receiver when an action of that type is chosen.
    """

    action_count: int
    type_probs: np.ndarray
    sender_payoffs: np.ndarray
    receiver_payoffs: np.ndarray

    def __init__(self, action_count, type_probs, sender_payoffs, receiver_payoffs):
        n = int(action_count)
        if n < 1:
            raise ValidationError("action_count must be >= 1")
        q = _frozen(type_probs)
        xi = _frozen(sender_payoffs)
        rho = _frozen(receiver_payoffs)
        m = q.size
        if xi.shape != (m,):
            raise DimensionError("sender payoffs", (m,), xi.shape)
        if rho.shape != (m,):
            raise DimensionError("receiver payoffs", (m,), rho.shape)
        _require_finite(type_probs=q, sender_payoffs=xi, receiver_payoffs=rho)
        if np.any(q < 0):
            raise ValidationError("type probabilities must be nonnegative")
        if abs(q.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"type probabilities sum to {q.sum()!r}, not 1")
        object.__setattr__(self, "action_count", n)
        object.__setattr__(self, "type_probs", q)
        object.__setattr__(self, "sender_payoffs", xi)
        object.__setattr__(self, "receiver_payoffs", rho)

    @property
    def type_count(self) -> int:
        return self.type_probs.size


@dataclass(frozen=True)
class Marginal:
    """Type distribution and payoffs for one action of an independent instance."""

    type_probs: np.ndarray
    sender_payoffs: np.ndarray
    receiver_payoffs: np.ndarray

    def __init__(self, type_probs, sender_payoffs, receiver_payoffs):
        q = _frozen(type_probs)
        xi = _frozen(sender_payoffs)
        rho = _frozen(receiver_payoffs)
        if q.ndim != 1 or q.size == 0:
            raise ValidationError("marginal needs at least one type")
        if xi.shape != q.shape or rho.shape != q.shape:
            raise DimensionError("marginal payoffs", q.shape, (xi.shape, rho.shape))
        _require_finite(type_probs=q, sender_payoffs=xi, receiver_payoffs=rho)
        if np.any(q < 0):
            raise ValidationError("type probabilities must be nonnegative")
        if abs(q.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"marginal probabilities sum to {q.sum()!r}, not 1")
        object.__setattr__(self, "type_probs", q)
        object.__setattr__(self, "sender_payoffs", xi)
        object.__setattr__(self, "receiver_payoffs", rho)


@dataclass(frozen=True)
class IndependentInstance:
    """Independent but not identical actions, one marginal per action."""

    marginals: tuple

    def __init__(self, marginals: Sequence[Marginal]):
        ms = tuple(marginals)
        if not ms:
            raise ValidationError("need at least one marginal")
        for m in ms:
            if not isinstance(m, Marginal):
                raise ValidationError("marginals must be Marginal records")
        object.__setattr__(self, "marginals", ms)

    @property
    def action_count(self) -> int:
        return len(self.marginals)


Instance = Union[ExplicitInstance, IIDInstance, IndependentInstance]


@dataclass(frozen=True)
class DirectScheme:
    """A row-stochastic map from states to signals.

    phi[t, i] is the probability of emitting signal i in state t. A direct
    scheme has one signal per action (column i recommends action i); maps
    with a different signal count are accepted for posterior computations
    but cannot be audited for incentive compatibility.
    """

    phi: np.ndarray

    def __init__(self, phi):
        mat = _frozen(np.atleast_2d(phi))
        if mat.ndim != 2 or mat.size == 0:
            raise ValidationError("phi must be a nonempty matrix")
        _require_finite(phi=mat)
        if np.any(mat < -PROB_SUM_TOL):
            raise ValidationError("phi entries must be nonnegative")
        sums = mat.sum(axis=1)
        bad = np.argmax(np.abs(sums - 1.0))
        if abs(sums[bad] - 1.0) > ROW_SUM_TOL:
            raise ValidationError(
                f"phi row {bad} sums to {sums[bad]!r}, not 1"
            )
        object.__setattr__(self, "phi", mat)

    @property
    def state_count(self) -> int:
        return self.phi.shape[0]

    @property
    def signal_count(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class PosteriorSummary:
    """Signal probability and conditional payoff vectors for one signal."""

    signal_prob: float
    receiver_posterior: np.ndarray
    sender_posterior: np.ndarray
    best_action: int
    zero_probability: bool = False


@dataclass(frozen=True)
class AuditReport:
    """Sender value and incentive-compatibility slacks of a direct scheme.

    ic_slack[i, j] is the prior-weighted advantage of the recommended
    action i over deviation j under signal i; the scheme is IC when
    min_slack >= -1e-9 and eps-IC when min_slack >= -eps - 1e-9.
    """

    sender_utility: float
    ic_slack: np.ndarray
    min_slack: float
    epsilon_certified: float

    @property
    def is_ic(self) -> bool:
        return self.min_slack >= -IC_TOL


def _check_scheme(instance: ExplicitInstance, scheme: DirectScheme) -> None:
    if scheme.state_count != instance.state_count:
        raise DimensionError("states", instance.state_count, scheme.state_count)


def posterior(instance: ExplicitInstance, scheme: DirectScheme,
              signal_index: int) -> PosteriorSummary:
    """Bayesian update for one signal: its probability and both posteriors.

    A signal that is never emitted gets zero posteriors and the
    zero_probability flag instead of an error; LP solutions legitimately
    zero out signals.
    """
    _check_scheme(instance, scheme)
    if not 0 <= signal_index < scheme.signal_count:
        raise DimensionError("signals", scheme.signal_count, signal_index)
    w = instance.state_probs * scheme.phi[:, signal_index]
    alpha = float(w.sum())
    raw_r = w @ instance.receiver_payoffs
    raw_s = w @ instance.sender_payoffs
    if alpha <= 0.0:
        zeros = np.zeros(instance.action_count)
        return PosteriorSummary(0.0, _frozen(zeros), _frozen(zeros),
                                best_action=0, zero_probability=True)
    r = raw_r / alpha
    s = raw_s / alpha
    return PosteriorSummary(alpha, _frozen(r), _frozen(s),
                            best_action=best_response(r, s))


def best_response(receiver_posterior, sender_posterior) -> int:
    """Receiver-optimal action; ties go to the sender, then to the lowest index."""
    r = np.asarray(receiver_posterior, dtype=float)
    s = np.asarray(sender_posterior, dtype=float)
    if r.size == 0 or s.size == 0:
        raise ValidationError("payoff vectors must be nonempty")
    if r.shape != s.shape:
        raise DimensionError("actions", r.shape, s.shape)
    return int(best_response_many(r[None], s[None])[0])


def best_response_many(receiver: np.ndarray, sender: np.ndarray) -> np.ndarray:
    """Vectorized best_response over rows of (trials, actions) payoff arrays.

    Raises ValidationError on a non-finite payoff, which would otherwise
    read as a tie and answer action 0.
    """
    r = np.asarray(receiver, dtype=float)
    s = np.asarray(sender, dtype=float)
    _require_finite(receiver_payoffs=r, sender_payoffs=s)
    r_ok = r >= r.max(axis=1, keepdims=True) - TIE_TOL
    s_masked = np.where(r_ok, s, -np.inf)
    s_ok = s_masked >= s_masked.max(axis=1, keepdims=True) - TIE_TOL
    return np.argmax(r_ok & s_ok, axis=1)


def audit(instance: ExplicitInstance, scheme: DirectScheme) -> AuditReport:
    """Evaluate sender value and every pairwise IC inequality of a scheme."""
    _check_scheme(instance, scheme)
    n = instance.action_count
    if scheme.signal_count != n:
        raise DimensionError("signals", n, scheme.signal_count)
    weighted = scheme.phi * instance.state_probs[:, None]  # (state, signal)
    utility = float(np.sum(weighted * instance.sender_payoffs))
    # joint[i, j] = sum_t prob_t * phi[t, i] * receiver[t, j]
    joint = weighted.T @ instance.receiver_payoffs
    slack = joint.diagonal()[:, None] - joint
    np.fill_diagonal(slack, 0.0)
    min_slack = float(slack.min())
    return AuditReport(
        sender_utility=utility,
        ic_slack=_frozen(slack),
        min_slack=min_slack,
        epsilon_certified=max(0.0, -min_slack),
    )


class InverseCDF:
    """Exact table-driven inverse CDF of a finite distribution.

    self(u) equals np.searchsorted(np.cumsum(probs), u, side="right")
    clipped to the last index, for every u in [0, 1), bit for bit. The
    unit interval is cut into B equal buckets, B a power of two so that
    u * B is exact: B is the smallest power of two at least
    max(4096, 16 * len(probs)), capped at 2**16. A bucket that no
    cumulative value splits has one answer, read from a table; only draws
    in split buckets (at most one bucket per support point) fall back to
    the binary search. Immutable after construction.
    """

    def __init__(self, probs):
        cum = np.cumsum(probs, dtype=float)
        buckets = min(1 << (max(4096, 16 * cum.size) - 1).bit_length(), 1 << 16)
        last = cum.size - 1
        edges = np.arange(buckets + 1) / buckets
        below = np.searchsorted(cum, edges[:-1], side="right")
        # a bucket is split when some cumulative value lies strictly inside
        # it; unsorted sums (tiny negative probabilities) split every bucket
        split = np.searchsorted(cum, edges[1:], side="left") > below
        if np.any(np.diff(cum) < 0):
            split[:] = True
        table = np.where(split, -1, np.minimum(below, last))
        self._cum = _frozen(cum)
        self._table = _frozen(table, dtype=np.intp)
        self._buckets = buckets
        self._last = last

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        # one intp buffer: u * B truncated into it, then looked up in
        # place; u * B lies in [0, B), and mode="clip" does not buffer
        idx = np.empty(u.shape, dtype=np.intp)
        np.multiply(u, self._buckets, out=idx, casting="unsafe")
        np.take(self._table, idx, out=idx, mode="clip")
        split = np.flatnonzero(idx < 0)
        if split.size:
            idx.flat[split] = np.minimum(
                np.searchsorted(self._cum, u.flat[split], side="right"), self._last)
        return idx
