"""Exact optimal signaling for explicit priors.

solve_exact builds the direct-scheme LP with one variable per
(state, signal) pair and one incentive constraint per ordered action pair,
optionally relaxed by an additive epsilon on the deviation payoffs, as a
DirectSchemeProgram: the started solve and its certificate read the
incentive block, and no dense constraint matrix is built.
expand_product turns i.i.d. or independent instances into their explicit
product form so the exact solver can serve as a ground-truth oracle at
desk scale; the state count grows as the product of the per-action type
counts, so the expansion is capped. type_profiles defines that product
order for the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InstanceTooLargeError, SolverError, ValidationError
from .lp import DirectSchemeProgram, solve
from .model import (
    AuditReport,
    DirectScheme,
    ExplicitInstance,
    IIDInstance,
    IndependentInstance,
    Marginal,
    audit,
    _require_epsilon,
    _unit_factors,
    best_response,
    best_response_many,
)

STATE_CAP = 200_000


@dataclass(frozen=True)
class ExactSolution:
    scheme: DirectScheme
    value: float
    audit: AuditReport


def direct_scheme_lp(weights: np.ndarray, sender: np.ndarray,
                     receiver: np.ndarray, epsilon: float) -> DirectSchemeProgram:
    """Direct-scheme LP over states with the given weights and payoff rows.

    One variable per (state t, signal i) pair, indexed state-major as
    t*n + i; one equality per state making its row a distribution; one
    epsilon-relaxed incentive constraint per ordered action pair (i, j),
    in itertools.permutations order. The objective is the weighted sender
    payoff. The program holds the incentive coefficients as its (S, n,
    n(n-1)) block W, and builds the dense A only when it is read. Raises
    ValidationError on non-finite or mismatched inputs.
    """
    weights, sender, receiver = (np.asarray(a, dtype=float) for a in (weights, sender, receiver))
    if (sender.ndim != 2 or 0 in sender.shape or receiver.shape != sender.shape
            or weights.shape != sender.shape[:1]):
        raise ValidationError(f"need S weights and (S, n) payoffs, got shapes "
                              f"{weights.shape}, {sender.shape} and {receiver.shape}")
    if not all(np.isfinite(a).all() for a in (weights, sender, receiver, epsilon)):
        raise ValidationError("weights, payoffs and epsilon must be finite")
    S, n = sender.shape
    I, J = np.nonzero(~np.eye(n, dtype=bool))  # the pairs in permutations order
    W = np.zeros((S, n, I.size))
    W[:, I, np.arange(I.size)] = weights[:, None] * (receiver[:, I] - receiver[:, J] + epsilon)
    return DirectSchemeProgram((weights[:, None] * sender).reshape(S * n), W)


def solve_exact(instance: ExplicitInstance, epsilon: float = 0.0) -> ExactSolution:
    """Maximize expected sender utility over epsilon-IC direct schemes.

    Always feasible (the honest scheme is) and never unbounded. States with
    zero prior probability do not affect the objective; their rows are set
    to recommend signal 0.

    The simplex starts from the honest basis: one variable per state, on
    the receiver's exact argmax action, and the incentive surpluses. That
    basis is primal feasible, so phase 1 is skipped, and the state rows stay
    implicit, so phase 2 pivots on the n(n-1) incentive rows. When the
    optimum is not unique, the returned vertex can differ from a cold
    solve's.

    Sender and receiver payoffs are first scaled by powers of two to a
    largest magnitude in (1/2, 1], and epsilon with the receiver's, so the
    LP tolerances act relative to the payoffs: scaling the payoffs (and
    epsilon) by 2**k scales the value by exactly 2**k.
    """
    _require_epsilon(epsilon)
    S, n = instance.state_count, instance.action_count
    lam = instance.state_probs
    ks, kr = _unit_factors(instance.sender_payoffs, instance.receiver_payoffs)
    receiver = instance.receiver_payoffs * kr
    # exact argmax, no tie tolerance, so every incentive surplus is >= 0
    honest = np.arange(S) * n + np.argmax(receiver, axis=1)
    out = solve(direct_scheme_lp(lam, instance.sender_payoffs * ks, receiver,
                                 epsilon * kr), keys=honest)
    if out.status != "optimal":
        raise SolverError(f"direct-scheme LP ended with status {out.status}")
    phi = out.point.reshape(S, n).copy()
    dead = lam <= 0.0
    if dead.any():
        phi[dead] = 0.0
        phi[dead, 0] = 1.0
    phi = np.clip(phi, 0.0, None)
    phi /= phi.sum(axis=1, keepdims=True)
    scheme = DirectScheme(phi)
    report = audit(instance, scheme)
    return ExactSolution(scheme=scheme, value=float(out.value) / ks, audit=report)


def type_profiles(sizes, cap: int) -> np.ndarray:
    """All type profiles over per-action type counts, in product order.

    Row t holds one type per action, action 0 the most significant digit,
    as in itertools.product: profile p is row np.ravel_multi_index(p, sizes).
    Raises InstanceTooLargeError when there are more than cap profiles.
    """
    total = math.prod(int(k) for k in sizes)
    if total > cap:
        raise InstanceTooLargeError(total, cap)
    return np.ascontiguousarray(np.indices(sizes).reshape(len(sizes), total).T)


def type_counts(instance: Union[IIDInstance, IndependentInstance]) -> list:
    """Per-action type counts: the sizes of the instance's product order."""
    if isinstance(instance, IIDInstance):
        return [instance.type_count] * instance.action_count
    if isinstance(instance, IndependentInstance):
        return [m.type_probs.size for m in instance.marginals]
    raise ValidationError("type profiles need an IID or independent instance")


def profiles_of(instance: Union[IIDInstance, IndependentInstance]) -> np.ndarray:
    """Type profiles in the state order used by expand_product."""
    return type_profiles(type_counts(instance), STATE_CAP)


def expand_product(instance: Union[IIDInstance, IndependentInstance],
                   cap: int = STATE_CAP) -> ExplicitInstance:
    """Explicit product-form instance with one state per type profile."""
    profiles = type_profiles(type_counts(instance), cap)
    if isinstance(instance, IIDInstance):
        marginals = [Marginal(instance.type_probs, instance.sender_payoffs,
                              instance.receiver_payoffs)] * instance.action_count
    else:
        marginals = instance.marginals
    columns = list(zip(marginals, profiles.T))
    probs = np.ones(profiles.shape[0])
    for m, types in columns:  # multiplied in action order, as 1.0 * q0 * q1 ...
        probs *= m.type_probs[types]
    sender = np.column_stack([m.sender_payoffs[types] for m, types in columns])
    receiver = np.column_stack([m.receiver_payoffs[types] for m, types in columns])
    return ExplicitInstance(probs, sender, receiver)


def honest_scheme(instance: ExplicitInstance) -> DirectScheme:
    """Recommend the receiver-best action of each state (ties to the sender).

    Ties are judged on payoffs scaled as in solve_exact, so the scheme does
    not change when the payoffs are scaled by a power of two."""
    ks, kr = _unit_factors(instance.sender_payoffs, instance.receiver_payoffs)
    rec = best_response_many(instance.receiver_payoffs * kr, instance.sender_payoffs * ks)
    return DirectScheme(np.eye(instance.action_count)[rec])


def no_information_scheme(instance: ExplicitInstance) -> DirectScheme:
    """Constant recommendation of the receiver's prior-best action, with ties
    judged on scaled payoffs as in honest_scheme."""
    ks, kr = _unit_factors(instance.sender_payoffs, instance.receiver_payoffs)
    i = best_response(instance.state_probs @ instance.receiver_payoffs * kr,
                      instance.state_probs @ instance.sender_payoffs * ks)
    return DirectScheme(np.eye(instance.action_count)[np.full(instance.state_count, i)])
