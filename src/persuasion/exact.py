"""Exact optimal signaling for explicit priors.

solve_exact builds the direct-scheme LP with one variable per
(state, signal) pair and one incentive constraint per ordered action pair,
optionally relaxed by an additive epsilon on the deviation payoffs.
expand_product turns i.i.d. or independent instances into their explicit
product form so the exact solver can serve as a ground-truth oracle at
desk scale; the state count grows as the product of the per-action type
counts, so the expansion is capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InstanceTooLargeError, SolverError, ValidationError
from .lp import Constraint, LinearProgram, solve
from .model import (
    AuditReport,
    DirectScheme,
    ExplicitInstance,
    IIDInstance,
    IndependentInstance,
    Marginal,
    audit,
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
                     receiver: np.ndarray, epsilon: float) -> LinearProgram:
    """Direct-scheme LP over states with the given weights and payoff rows.

    One variable per (state t, signal i) pair, indexed state-major as
    t*n + i; one equality per state making its row a distribution; one
    epsilon-relaxed incentive constraint per ordered action pair (i, j).
    The objective is the weighted sender payoff.
    """
    S, n = sender.shape
    nv = S * n
    cons = []
    for t in range(S):
        row = np.zeros(nv)
        row[t * n:(t + 1) * n] = 1.0
        cons.append(Constraint(row, "=", 1.0))
    for i, j in itertools.permutations(range(n), 2):
        row = np.zeros(nv)
        row[i::n] = weights * (receiver[:, i] - receiver[:, j] + epsilon)
        cons.append(Constraint(row, ">=", 0.0))
    return LinearProgram((weights[:, None] * sender).reshape(nv), cons)


def solve_exact(instance: ExplicitInstance, epsilon: float = 0.0) -> ExactSolution:
    """Maximize expected sender utility over epsilon-IC direct schemes.

    Always feasible (the honest scheme is) and never unbounded. States with
    zero prior probability do not affect the objective; their rows are set
    to recommend signal 0.

    The simplex starts from the honest basis: one variable per state, on
    the receiver's exact argmax action, and the incentive surpluses. That
    basis is primal feasible, so phase 1 is skipped. When the optimum is not
    unique, the returned vertex can differ from a cold solve's.
    """
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    S, n = instance.state_count, instance.action_count
    lam = instance.state_probs
    # exact argmax, no tie tolerance, so every incentive surplus is >= 0
    honest = np.arange(S) * n + np.argmax(instance.receiver_payoffs, axis=1)
    start = np.concatenate([honest, np.full(n * (n - 1), -1)])
    out = solve(direct_scheme_lp(lam, instance.sender_payoffs,
                                 instance.receiver_payoffs, epsilon), start=start)
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
    return ExactSolution(scheme=scheme, value=float(out.value), audit=report)


def expand_product(instance: Union[IIDInstance, IndependentInstance],
                   cap: int = STATE_CAP) -> ExplicitInstance:
    """Explicit product-form instance with one state per type profile."""
    if isinstance(instance, IIDInstance):
        marginals = [Marginal(instance.type_probs, instance.sender_payoffs,
                              instance.receiver_payoffs)] * instance.action_count
    elif isinstance(instance, IndependentInstance):
        marginals = list(instance.marginals)
    else:
        raise ValidationError("expand_product needs an IID or independent instance")
    sizes = [m.type_probs.size for m in marginals]
    total = int(np.prod(sizes, dtype=np.int64))
    if total > cap:
        raise InstanceTooLargeError(total, cap)
    n = len(marginals)
    probs = np.empty(total)
    sender = np.empty((total, n))
    receiver = np.empty((total, n))
    for t, profile in enumerate(itertools.product(*(range(k) for k in sizes))):
        p = 1.0
        for i, j in enumerate(profile):
            p *= marginals[i].type_probs[j]
            sender[t, i] = marginals[i].sender_payoffs[j]
            receiver[t, i] = marginals[i].receiver_payoffs[j]
        probs[t] = p
    return ExplicitInstance(probs, sender, receiver)


def profiles_of(instance: Union[IIDInstance, IndependentInstance]) -> np.ndarray:
    """Type profiles in the state order used by expand_product."""
    if isinstance(instance, IIDInstance):
        sizes = [instance.type_count] * instance.action_count
    else:
        sizes = [m.type_probs.size for m in instance.marginals]
    return np.array(list(itertools.product(*(range(k) for k in sizes))), dtype=int)


def honest_scheme(instance: ExplicitInstance) -> DirectScheme:
    """Recommend the receiver-best action of each state (ties to the sender)."""
    rec = best_response_many(instance.receiver_payoffs, instance.sender_payoffs)
    phi = np.zeros((instance.state_count, instance.action_count))
    phi[np.arange(instance.state_count), rec] = 1.0
    return DirectScheme(phi)


def no_information_scheme(instance: ExplicitInstance) -> DirectScheme:
    """Constant recommendation of the receiver's prior-best action."""
    prior_r = instance.state_probs @ instance.receiver_payoffs
    prior_s = instance.state_probs @ instance.sender_payoffs
    i = best_response(prior_r, prior_s)
    phi = np.zeros((instance.state_count, instance.action_count))
    phi[:, i] = 1.0
    return DirectScheme(phi)


def full_information_scheme(instance: ExplicitInstance) -> DirectScheme:
    """One signal per state (not a direct scheme; reveals everything)."""
    return DirectScheme(np.eye(instance.state_count))
