"""Khintchine-constant cross-validation oracle.

K(a) = E |theta . a| over uniform random sign vectors theta is a quantity
with two independent routes at desk scale: direct enumeration of all 2^n
sign vectors, and a linear program over realizable two-signal signatures
constrained to send each signal with probability exactly 1/2. The two
must agree, which exercises the realizable-signature machinery end to
end: the LP ties its signature to the scheme through iid.signature_map
for the uniform prior on the types (-1, +1), the map by which
verify.realizability_check decides whether a TwoSignalSignature is
realizable. Signature columns are indexed (type -1, type +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InstanceTooLargeError, SolverError, ValidationError
from .iid import signature_map
from .lp import LinearProgram, solve
from .model import _require_finite

BRUTE_CAP = 20
LP_CAP = 12
SIG_TOL = 1e-9


@dataclass(frozen=True)
class TwoSignalSignature:
    """Joint (signal, action-type) probabilities of a two-signal scheme.

    plus[i, t] is the joint probability of the first signal and action i
    having type (-1, +1)[t]; minus is the same for the second signal.
    plus + minus must be the all-1/2 matrix and each row of plus must sum
    to 1/2 (each signal fires with probability exactly 1/2).
    """

    plus: np.ndarray
    minus: np.ndarray

    def __init__(self, plus, minus):
        p = np.array(plus, dtype=float)
        m = np.array(minus, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape != m.shape:
            raise ValidationError("signature matrices must both be (n, 2)")
        _require_finite(plus=p, minus=m)
        if np.any(p < -SIG_TOL) or np.any(m < -SIG_TOL):
            raise ValidationError("signature entries must be nonnegative")
        if np.max(np.abs(p + m - 0.5)) > SIG_TOL:
            raise ValidationError("plus + minus must equal the all-1/2 matrix")
        if np.max(np.abs(p.sum(axis=1) - 0.5)) > SIG_TOL:
            raise ValidationError("each signal must fire with probability 1/2")
        p.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "plus", p)
        object.__setattr__(self, "minus", m)

    @property
    def action_count(self) -> int:
        return self.plus.shape[0]


def sign_dot_products(a: np.ndarray) -> np.ndarray:
    """theta . a for all 2^n sign vectors, ordered by binary state index.

    State index bits follow the action order: bit i of the index is 1
    exactly when action i has type +1, with action 0 the most significant
    bit.
    """
    dots = np.zeros(1)
    for ai in a[::-1]:
        dots = np.concatenate([dots - ai, dots + ai])
    return dots


def khintchine_constant(a) -> float:
    """Average |theta . a| by enumerating all sign vectors."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("a must be a nonempty vector")
    _require_finite(a=a)
    if a.size > BRUTE_CAP:
        raise InstanceTooLargeError(2 ** a.size, 2 ** BRUTE_CAP)
    return float(np.mean(np.abs(sign_dot_products(a))))


def _khintchine_lp(a: np.ndarray):
    """Build and solve the two-signal signature LP for objective vector a.

    Variables are the per-state signal probabilities of both signals plus
    the signature entries they induce; the signature is tied to the scheme
    by the realizability equalities and restricted to equal signal
    probabilities.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("a must be a nonempty vector")
    _require_finite(a=a)
    n = a.size
    tie = signature_map(np.full(2, 0.5), n, 2, 2 ** LP_CAP)
    S = tie.shape[1]
    # columns phi_plus (S), phi_minus (S), plus (n, 2), minus (n, 2); rows: 4n
    # signature ties, then phi_plus + phi_minus = 1, then plus rows = 1/2
    A = np.zeros((4 * n + S + n, 2 * S + 4 * n))
    A[: 4 * n, : 2 * S] = 0.0 - tie.transpose(0, 2, 1).reshape(4 * n, 2 * S)
    A[np.arange(4 * n), 2 * S + np.arange(4 * n)] = 1.0
    A[4 * n: 4 * n + S, : 2 * S] = np.hstack([np.eye(S), np.eye(S)])
    i = np.arange(n)[:, None]
    A[4 * n + S + i, 2 * S + 2 * i + np.arange(2)] = 1.0
    b = np.concatenate([np.zeros(4 * n), np.ones(S), np.full(n, 0.5)])

    c = np.zeros(2 * S + 4 * n)
    signed = c[2 * S:].reshape(2, n, 2)
    signed[0, :, 1] = signed[1, :, 0] = 0.0 + a
    signed[0, :, 0] = signed[1, :, 1] = 0.0 - a
    out = solve(LinearProgram(c, A=A, relations=np.full(b.size, "="), b=b))
    if out.status != "optimal":
        raise SolverError(f"two-signal signature LP ended with status {out.status}")
    plus = out.point[2 * S: 2 * S + 2 * n].reshape(n, 2)
    minus = out.point[2 * S + 2 * n:].reshape(n, 2)
    phi = np.stack([out.point[:S], out.point[S: 2 * S]], axis=1)
    return float(out.value), plus, minus, phi


def solve_khintchine_lp(a) -> float:
    """K(a) as the optimum of the two-signal signature LP."""
    return _khintchine_lp(a)[0]


def khintchine_lp_witness(a) -> Tuple[float, TwoSignalSignature, np.ndarray]:
    """LP optimum together with its optimal signature and scheme."""
    value, plus, minus, phi = _khintchine_lp(a)
    return value, TwoSignalSignature(np.clip(plus, 0.0, None),
                                     np.clip(minus, 0.0, None)), phi
