"""Independent per-action approximate signaling for i.i.d. actions.

Instead of coordinating one recommendation across actions, this scheme
signals HIGH or LOW for every action independently, calibrated by the
optimal solution of the s-signature relaxation that drops realizability.
Each component is HIGH with probability 1/n; conditioned on HIGH an
action's posterior type mass is n*x, on LOW it is n*y. Recommending any
HIGH action when one exists achieves at least a 1 - (1 - 1/n)^n fraction
of the relaxation value for nonnegative payoffs, and the relaxation value
upper-bounds the true optimum. The relaxation is solved with no LP, by
the parametric greedy of the exact i.i.d. route over another polymatroid.
IndependentSignalSampler draws the components and the recommendation for
a whole batch of profiles at once; a single profile is a batch of one.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .iid import _greedy_optimum
from .model import IIDInstance, _require_finite

_X_VS_Q_TOL = 1e-9
_GATHER_BLOCK = 2 ** 16  # (trial, action) entries per gathered block


def solve_relaxation(instance: IIDInstance) -> Tuple[np.ndarray, np.ndarray, float]:
    """Optimal (x, y, value) of the s-signature program without realizability.

    solve_s_signature's parametric greedy, over the polymatroid
    z(A) <= min(1, n q(A)) in place of Border's, with no LP. x and y have
    full length; for n = 1, x = y = q. The value n * xi . x upper-bounds
    the optimal sender utility.
    """
    return _greedy_optimum(instance, relaxed=True)


class IndependentSignalSampler:
    """End-to-end direct scheme built from independent component signals.

    Consumes type profiles and rejects one holding a zero-probability
    type. The multiplicative guarantee applies to nonnegative payoffs;
    negative payoffs are tolerated with a warning because the sampler
    itself stays well defined.
    """

    def __init__(self, instance: IIDInstance,
                 x: np.ndarray = None, y: np.ndarray = None):
        if x is None or y is None:
            x, y, _ = solve_relaxation(instance)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _require_finite(x=x, y=y)
        q = instance.type_probs
        if np.any(x > q + _X_VS_Q_TOL):
            raise ValidationError("x exceeds the type prior; y would be negative")
        if (np.min(instance.sender_payoffs) < 0
                or np.min(instance.receiver_payoffs) < 0):
            warnings.warn(
                "negative payoffs: the approximation guarantee does not apply",
                stacklevel=2,
            )
        self.instance = instance
        self.x = x
        self.y = y
        self._p_high = np.minimum(x / np.where(q > 0, q, 1.0), 1.0)
        self._absent = None if np.all(q > 0) else ~(q > 0)

    def sample(self, profile, rng: np.random.Generator) -> int:
        return int(self.sample_many(np.asarray(profile, dtype=int)[None, :], rng)[0])

    def sample_many(self, profiles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.sample_many_detailed(profiles, rng)[0]

    def sample_many_detailed(self, profiles: np.ndarray, rng: np.random.Generator):
        """Recommendations plus the underlying HIGH/LOW component matrix."""
        T, n = profiles.shape
        if self._absent is not None and self._absent[profiles].any():
            raise ValidationError("profile contains a zero-probability type")
        buf = rng.random((T, n))
        highs = np.empty((T, n), dtype=bool)
        rows = -(-_GATHER_BLOCK // n)  # blocks: no second (T, n) float array
        for lo in range(0, T, rows):
            np.less(buf[lo:lo + rows], self._p_high[profiles[lo:lo + rows]],
                    out=highs[lo:lo + rows])
        # uniform keys, in the same buffer: the argmax over a masked subset is
        # uniform on it
        keys = rng.random(out=buf)
        # k - 1 is exact for k in [0, 1): every LOW key falls below every HIGH
        # key and keeps its order, so a row with no HIGH picks among all actions
        np.subtract(keys, 1.0, out=keys, where=~highs)
        return keys.argmax(axis=1), highs
