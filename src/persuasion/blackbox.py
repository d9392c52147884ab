"""Sample-and-solve signaling for black-box priors.

The scheme never materializes a full signaling policy. Given a realized
state, it draws K-1 fresh states from the oracle, stacks the real one
above them, solves the relaxed empirical signaling LP on that multiset,
and emits a signal from the real state's row. Identical samples are
bucketed into weighted states ordered by their payoffs, so the program
does not depend on where the real state sits: it is the explicit-prior
LP on the empirical distribution, which exact.solve_exact solves.
Because the real state is exchangeable with the samples, the induced
scheme is epsilon-IC for the true prior, and its expected utility equals
the expected empirical LP optimum.

Payoffs must lie in [-1, 1]; the sample bound of sample_count (natural
log) makes the empirical optimum approach the true optimum from below up
to epsilon. Running with a smaller K keeps everything well defined but
forfeits that guarantee, and epsilon = 0 forfeits convergence entirely,
which is why it triggers a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

from .errors import SolverError, ValidationError
from .exact import solve_exact
from .model import IC_TOL, ExplicitInstance, InverseCDF, _require_epsilon

PAYOFF_BOUND = 1.0 + 1e-12


class SampleOracle(Protocol):
    """Seeded source of states with payoffs in [-1, 1]."""

    action_count: int

    def draw(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Return one state as a (sender, receiver) payoff pair."""
        ...

    def draw_batch(self, k: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Return (sender, receiver) payoff arrays of shape (k, n)."""
        ...


class ExplicitOracle:
    """Black-box wrapper over an explicit instance, for testing and fixtures."""

    def __init__(self, instance: ExplicitInstance):
        if (np.abs(instance.sender_payoffs).max() > PAYOFF_BOUND
                or np.abs(instance.receiver_payoffs).max() > PAYOFF_BOUND):
            raise ValidationError("oracle payoffs must lie in [-1, 1]")
        self.instance = instance
        self.action_count = instance.action_count
        self._state_of = InverseCDF(instance.state_probs)

    def draw_indices(self, k: int, rng: np.random.Generator) -> np.ndarray:
        return self._state_of(rng.random(k))

    def draw(self, rng: np.random.Generator):
        idx = int(self.draw_indices(1, rng)[0])
        return (self.instance.sender_payoffs[idx],
                self.instance.receiver_payoffs[idx])

    def draw_batch(self, k: int, rng: np.random.Generator):
        idx = self.draw_indices(k, rng)
        return (self.instance.sender_payoffs[idx],
                self.instance.receiver_payoffs[idx])


def sample_count(n: int, epsilon: float) -> int:
    """Samples sufficient for an epsilon-optimal epsilon-IC guarantee.

    ceil(256 n^2 / eps^4 * log(4 n / eps)) with the natural logarithm.
    Desk-scale experiments may run with a smaller K (the CLI requires an
    explicit override flag for that), at the price of the guarantee.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError("epsilon must lie in (0, 1]")
    if n < 1:
        raise ValidationError("need at least one action")
    return math.ceil(256.0 * n * n / epsilon ** 4 * math.log(4.0 * n / epsilon))


@dataclass(frozen=True)
class EmpiricalScheme:
    """Optimal epsilon-IC scheme for the uniform distribution on a sample.

    phi has one row per sample (identical samples share identical rows);
    value is the empirical LP optimum.
    """

    phi: np.ndarray
    epsilon: float
    value: float

    @property
    def sample_size(self) -> int:
        return self.phi.shape[0]


def _as_sample_arrays(samples) -> Tuple[np.ndarray, np.ndarray]:
    s, r = (np.atleast_2d(np.asarray(a, dtype=float)) for a in samples)
    if s.shape != r.shape or s.ndim != 2 or s.shape[0] < 1:
        raise ValidationError("samples must be matching (k, n) payoff arrays")
    if not (np.all(np.abs(s) <= PAYOFF_BOUND) and np.all(np.abs(r) <= PAYOFF_BOUND)):
        raise ValidationError("sample payoffs must lie in [-1, 1]")  # NaN fails too
    return s, r


def _bucket_rows(rows: np.ndarray):
    """np.unique(rows, axis=0, return_inverse=True, return_counts=True).

    One stable np.lexsort orders the rows (first column most significant);
    a bucket starts where a row differs from the one before it. Rows that
    differ only in the sign of a zero share a bucket, as in np.unique, but
    the row kept for it may then differ from np.unique's in that sign.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    bucket = np.cumsum(starts) - 1
    inverse = np.empty_like(bucket)
    inverse[order] = bucket
    return ordered[starts], inverse, np.bincount(bucket)


def solve_empirical_lp(samples, epsilon: float) -> EmpiricalScheme:
    """Relaxed empirical signaling LP over a sample multiset.

    samples is a (sender, receiver) pair of (K, n) payoff arrays.
    Identical samples are bucketed into one weighted state before solving,
    which leaves the program unchanged (an optimal solution always exists
    with equal rows on identical states) and keeps the LP small when the
    sample comes from a finite-support distribution. Bucketing costs one
    lexsort of the K samples over their 2n payoff columns (_bucket_rows).
    solve_exact solves the bucketed instance (weights count / K), and its
    relaxed IC slacks are checked against model.IC_TOL.
    """
    _require_epsilon(epsilon)
    s, r = _as_sample_arrays(samples)
    K, n = s.shape
    uniq, inverse, counts = _bucket_rows(np.hstack([s, r]))
    empirical = ExplicitInstance(counts / K, uniq[:, :n], uniq[:, n:])
    sol = solve_exact(empirical, epsilon)
    alpha = empirical.state_probs @ sol.scheme.phi
    slack = sol.audit.ic_slack + epsilon * alpha[:, None]
    if slack.min() < -IC_TOL:
        raise SolverError(f"empirical scheme violates relaxed IC by {-slack.min():.3e}")
    return EmpiricalScheme(
        phi=sol.scheme.phi[inverse],
        epsilon=float(epsilon),
        value=sol.value,
    )


class BlackboxSampler:
    """Reusable sample-and-solve sampler with fixed oracle, epsilon, and K.

    Consumes (sender, receiver) payoff pairs; every call runs its own
    sampling and LP solve, so there is no vectorized batch path.
    """

    def __init__(self, oracle: SampleOracle, epsilon: float, K: int):
        if K < 1:
            raise ValidationError("K must be at least 1")
        _require_epsilon(epsilon)
        if epsilon == 0:
            warnings.warn(
                "epsilon = 0 keeps the scheme exactly IC on the sample but "
                "the empirical optimum no longer converges to the true optimum",
                stacklevel=2,
            )
        self.oracle = oracle
        self.epsilon = float(epsilon)
        self.K = int(K)

    def sample(self, state, rng: np.random.Generator) -> int:
        """One invocation of the scheme for a realized (sender, receiver) pair.

        The real state is row 0 above the K-1 fresh draws; each of its two
        payoff vectors must have one entry per action of the oracle.
        """
        n = self.oracle.action_count
        s_real, r_real = (np.asarray(a, dtype=float) for a in state)
        if s_real.shape != (n,) or r_real.shape != (n,):
            raise ValidationError(
                f"real state must be two payoff vectors of length {n}, got "
                f"shapes {s_real.shape} and {r_real.shape}")
        s_fresh, r_fresh = self.oracle.draw_batch(self.K - 1, rng)
        scheme = solve_empirical_lp((np.vstack([s_real, s_fresh]),
                                     np.vstack([r_real, r_fresh])), self.epsilon)
        row = scheme.phi[0]
        return int(rng.choice(row.size, p=row / row.sum()))
