"""Polynomial-size optimal persuasion for i.i.d. actions.

The optimal scheme is symmetric: each of the n signals fires with
probability 1/n, the recommended action has posterior type mass
proportional to a vector x, and every other action has posterior mass
proportional to y. Feasibility of (x, y) reduces to whether the win
probabilities tau_j = x_j / q_j are realizable by a single-item allocation
rule with n i.i.d. bidders, which is exactly the family of subset
inequalities checked by border_feasible.

In z = n x they make a polymatroid whose greedy vertices are priority
orders over types; solve_s_signature mixes at most two of them, found by
a parametric greedy with no LP and no cuts. implement_s_signature turns a
certified x into a signal sampler in time polynomial in m:
priority_decomposition writes tau as a lottery over at most m + 1
priority orders of the types (greedy vertices of the Border polytope),
and AllocationSchemeSampler draws an order per trial and recommends a
uniformly random action holding the highest-priority type present.

At desk scale, decompose_reduced_form writes the same priority lottery
out over all m^n type profiles as an explicit AllocationRule, and
reduced_form_of evaluates a rule exhaustively. signature_map is the
linear map from schemes to signatures over those profiles, on which
verify.realizability_check and the Khintchine LP build their programs.
symmetrize averages a scheme over all n! action permutations, for any n,
as one mean per orbit of (profile, type) pairs. Nothing here solves an
LP; the brute-force feasibility oracle is verify's.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InfeasibleReducedFormError, ValidationError
from .exact import type_profiles
from .model import DirectScheme, IIDInstance, InverseCDF, _require_finite

S_SIG_TOL = 1e-9
BORDER_TOL = 1e-9
REDUCED_FORM_MATCH_TOL = 1e-6
PROFILE_CAP = 2048


@dataclass(frozen=True)
class SSignature:
    """Per-type joint probabilities (recommended action, other actions).

    recommended[j] is the joint probability that a given signal fires and
    its recommended action has type j; other[j] is the same for any one
    non-recommended action. Both sum to 1/n, and
    recommended + (n-1)*other equals the type prior.
    """

    recommended: np.ndarray
    other: np.ndarray
    action_count: int

    def __init__(self, recommended, other, action_count):
        x = np.array(recommended, dtype=float)
        y = np.array(other, dtype=float)
        n = int(action_count)
        if x.shape != y.shape or x.ndim != 1:
            raise ValidationError("s-signature vectors must share one shape")
        _require_finite(recommended=x, other=y)
        if np.any(x < -S_SIG_TOL) or np.any(y < -S_SIG_TOL):
            raise ValidationError("s-signature vectors must be nonnegative")
        if abs(x.sum() - 1.0 / n) > S_SIG_TOL or abs(y.sum() - 1.0 / n) > S_SIG_TOL:
            raise ValidationError("s-signature vectors must each sum to 1/n")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "recommended", x)
        object.__setattr__(self, "other", y)
        object.__setattr__(self, "action_count", n)

    def check_prior(self, type_probs: np.ndarray) -> None:
        resid = self.recommended + (self.action_count - 1) * self.other - type_probs
        if np.max(np.abs(resid)) > S_SIG_TOL:
            raise ValidationError("s-signature is inconsistent with the type prior")


@dataclass(frozen=True)
class Signature:
    """Per-signal joint matrices M[i][j, k] = Pr[signal i and action j has type k].

    A direct scheme has one signal per action; any count is accepted.
    """

    matrices: np.ndarray

    def __init__(self, matrices, type_probs=None):
        M = np.array(matrices, dtype=float)
        if M.ndim != 3:
            raise ValidationError("signature must be matrices of shape (n, m), one per signal")
        _require_finite(matrices=M)
        row_sums = M.sum(axis=2)
        if np.max(np.abs(row_sums - row_sums[:, :1])) > S_SIG_TOL:
            raise ValidationError("each signal's rows must share one total mass")
        marg = M.sum(axis=0)
        if np.max(np.abs(marg - marg[0])) > S_SIG_TOL:
            raise ValidationError("per-action marginals disagree across actions")
        if type_probs is not None and np.max(np.abs(marg[0] - type_probs)) > S_SIG_TOL:
            raise ValidationError("signature marginals disagree with the type prior")
        M.setflags(write=False)
        object.__setattr__(self, "matrices", M)


@dataclass(frozen=True)
class AllocationRule:
    """Randomized single-item allocation over all type profiles.

    profiles enumerates [m]^n in the product order used by expand_product;
    probs[t] is a distribution over the n bidders plus a final
    "keep the item" outcome.
    """

    profiles: np.ndarray
    probs: np.ndarray

    def __init__(self, profiles, probs):
        P = np.array(profiles, dtype=int)
        A = np.array(probs, dtype=float)
        if P.ndim != 2 or A.ndim != 2 or A.shape[0] != P.shape[0]:
            raise ValidationError("profiles and probs must have matching rows")
        if A.shape[1] != P.shape[1] + 1:
            raise ValidationError("probs rows need one entry per bidder plus none")
        _require_finite(probs=A)
        if np.any(A < -S_SIG_TOL):
            raise ValidationError("allocation probabilities must be nonnegative")
        if np.max(np.abs(A.sum(axis=1) - 1.0)) > S_SIG_TOL:
            raise ValidationError("allocation rows must sum to 1")
        P.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "profiles", P)
        object.__setattr__(self, "probs", A)

    @property
    def bidder_count(self) -> int:
        return self.profiles.shape[1]


@dataclass(frozen=True)
class BorderCheck:
    """Outcome of border_feasible; gap is the largest prefix gap found."""

    feasible: bool
    violating_set: Optional[Tuple[int, ...]] = None
    gap: float = 0.0


def border_feasible(tau, q, n: int) -> BorderCheck:
    """Subset inequalities for realizability of a symmetric reduced form.

    For every type set A the expected wins handed to members of A cannot
    exceed the probability that some bidder's type falls in A:
    n * sum_{j in A} q_j tau_j <= 1 - (1 - q(A))^n. The binding sets are
    the top sets in tau order, so the m descending prefixes are checked.
    Returns the maximally violating prefix when infeasible.
    """
    tau = np.asarray(tau, dtype=float)
    q = np.asarray(q, dtype=float)
    if tau.shape != q.shape:
        raise ValidationError("tau and q must have the same length")
    if not np.all(np.isfinite(tau)):
        raise ValidationError("win probabilities must be finite")
    if not np.all(np.isfinite(q) & (q > 0)):
        raise ValidationError("type probabilities must be finite and strictly positive")
    order = np.lexsort((np.arange(tau.size), -tau))
    lhs = n * np.cumsum(q[order] * tau[order])
    rhs = 1.0 - (1.0 - np.cumsum(q[order])) ** n
    gaps = lhs - rhs
    worst = int(np.argmax(gaps))
    gap = float(gaps[worst])
    if gap > BORDER_TOL:
        return BorderCheck(False, tuple(sorted(int(j) for j in order[: worst + 1])), gap)
    return BorderCheck(True, None, gap)


def _drop_zero_types(instance: IIDInstance):
    keep = np.nonzero(instance.type_probs > 0)[0]
    if keep.size == instance.type_count:
        return instance, keep
    kept = IIDInstance(
        instance.action_count,
        instance.type_probs[keep],
        instance.sender_payoffs[keep],
        instance.receiver_payoffs[keep],
    )
    return kept, keep


def _greedy_optimum(instance: IIDInstance, relaxed: bool = False):
    """(x, y, value) of the s-signature program, or of its relaxation.

    In z = n x: maximize xi.z over the bases of the polymatroid
    g(A) = 1 - (1 - q(A))^n (relaxed: min(1, n q(A))) subject to the IC
    row rho.z >= rho.q; y = (q - x) / (n - 1) >= 0 follows. For n = 1,
    z = q and y = q: there is no other action. The greedy vertex of the
    order of xi + lam rho (ties: rho descending, then index) maximizes the
    Lagrangian, and its rho.z grows with lam. At lam = 0 it is the optimum
    if it meets the row; otherwise a bisection over one probe per interval
    between the pairwise breakpoints of the order finds the two vertices
    either side of lam*, and they are mixed to meet the row with equality.
    With no breakpoint, the lam = 0 vertex maximizes rho.z and is kept.
    """
    n, q = instance.action_count, instance.type_probs
    xi, rho = instance.sender_payoffs, instance.receiver_payoffs
    if n == 1:
        return q.copy(), q.copy(), float(xi @ q)
    m = q.size
    q_ext = np.append(q, 0.0)

    def vertex(lam):
        order = np.lexsort((np.arange(m), -rho, -(xi + lam * rho)))
        if not relaxed:  # the priority order, "keep" last
            return _priority_masses(np.append(order, m), q_ext, n)[:m]
        z = np.empty(m)
        z[order] = np.diff(np.minimum(n * np.cumsum(q[order]), 1.0), prepend=0.0)
        return z

    def ic_slack(z):
        return rho @ (z - q)

    z = vertex(0.0)
    if ic_slack(z) < 0:
        i, j = np.triu_indices(m, 1)
        drho = rho[j] - rho[i]
        lam = (xi[i] - xi[j])[drho != 0] / drho[drho != 0]
        cuts = np.unique(lam[lam > 0])
        # midpoints: a computed breakpoint need not tie the two weights
        probes = np.concatenate([[0.0], (cuts[:-1] + cuts[1:]) / 2, 2 * cuts[-1:]])
        k = bisect.bisect_left(probes, True, 1, key=lambda t: ic_slack(vertex(t)) >= 0)
        lo, hi = vertex(probes[k - 1]), vertex(probes[min(k, cuts.size)])
        s_lo, s_hi = ic_slack(lo), ic_slack(hi)
        # s_hi < 0 only by rounding, at the vertex that maximizes rho.z
        theta = 1.0 if s_hi < 0 else s_lo / (s_lo - s_hi)
        z = (1.0 - theta) * lo + theta * hi
    x = z / n
    return x, np.maximum((q - x) / (n - 1), 0.0), float(xi @ z)


def solve_s_signature(instance: IIDInstance) -> Tuple[SSignature, float]:
    """Optimal realizable s-signature and its sender value, with no LP.

    _greedy_optimum over the Border polymatroid, ties in xi + lam rho broken
    by rho descending, then index: x mixes at most two priority orders and
    passes border_feasible up to rounding, with no cuts and no SolverError.
    A zero-probability type gets zero mass; for n = 1, x = y = q.
    """
    x, y, value = _greedy_optimum(instance)
    return SSignature(x, y, instance.action_count), value


def reduced_form_of(rule: AllocationRule, q: np.ndarray) -> np.ndarray:
    """Exhaustive per-bidder-and-type win probabilities of a rule.

    Returns an (n, m) matrix; a symmetric reduced form has equal rows.
    """
    q = np.asarray(q, dtype=float)
    n = rule.bidder_count
    m = q.size
    lam = np.prod(q[rule.profiles], axis=1)
    out = np.empty((n, m))
    for i in range(n):
        w = lam * rule.probs[:, i]
        per_type = np.bincount(rule.profiles[:, i], weights=w, minlength=m)
        out[i] = per_type / q
    return out


@dataclass(frozen=True)
class PriorityMixture:
    """Lottery over priority orders of the types.

    Each row of orders lists the m types and the symbol m, "keep the
    item", from highest to lowest priority. Rule k gives the item to a
    uniformly random bidder among those holding the highest-priority
    type present in the profile, and keeps it when no type ranked above
    the symbol m is present. weights[k] is the chance of rule k.
    """

    weights: np.ndarray
    orders: np.ndarray

    def __init__(self, weights, orders):
        w = np.array(weights, dtype=float)
        P = np.array(orders, dtype=int)
        if w.ndim != 1 or w.size == 0 or P.ndim != 2 or P.shape[0] != w.size:
            raise ValidationError("need one priority order per weight")
        _require_finite(weights=w)
        if np.any(np.sort(P, axis=1) != np.arange(P.shape[1])):
            raise ValidationError("each order must list every type and m exactly once")
        if np.any(w < 0) or abs(w.sum() - 1.0) > S_SIG_TOL:
            raise ValidationError("priority weights must be a distribution")
        w.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "orders", P)

    def win_masses(self, q, n: int) -> np.ndarray:
        """Per-type chance that a bidder of that type gets the item.

        This is n * q * tau for the mixture's reduced form tau.
        """
        q_ext = np.append(np.asarray(q, dtype=float), 0.0)
        masses = [_priority_masses(order, q_ext, n) for order in self.orders]
        return (self.weights @ np.array(masses))[:-1]


def _tails(order, q_ext, n: int) -> np.ndarray:
    """tails[p]: chance that the rule reaches position p of order.

    That is (1 - Q_p)^n, Q_p the prior mass of order[:p], summed from the
    tail of the order so that small values keep their relative
    precision; it is exactly 1 at p = 0 (the item is always on offer,
    whatever rounding q carries) and 0 past the "keep" symbol.
    """
    tails = np.append(np.cumsum(q_ext[order][::-1])[::-1] ** n, 0.0)
    tails[0] = 1.0
    tails[np.flatnonzero(order == q_ext.size - 1)[0] + 1:] = 0.0
    return tails


def _priority_masses(order, q_ext, n: int) -> np.ndarray:
    tails = _tails(order, q_ext, n)
    out = np.empty(order.size)
    out[order] = tails[:-1] - tails[1:]
    return out


def priority_decomposition(tau, q, n: int) -> PriorityMixture:
    """Priority-order mixture whose reduced form is tau, in time poly(m).

    With z = n * q * tau, the realizable reduced forms are the points of
    the polymatroid z(A) <= 1 - (1 - q(A))^n. A "keep the item" symbol
    with prior mass 0 and share 1 - z(E) makes them its bases and each
    priority order a greedy vertex. Every step orders the symbols by
    residual tau (descending, ties by index, "keep" counted as 0) inside
    the blocks of a chain of tight sets, takes that vertex v, and removes
    as much of v as keeps the residual in the scaled polytope; the set
    that stops it joins the chain, so at most m + 1 steps run. For an s-signature (z(E) within n * S_SIG_TOL of 1)
    E starts in the chain: "keep" is last in every order and the item is
    always allocated.

    The step is the least ratio N(A) / D(A) of the residual's slack to
    the vertex's over the sets A that split one block, found by
    Dinkelbach iterations on border_feasible's prefix oracle. Slacks are
    taken on the complement, z(E - A) - (1 - q(A))^n with 1 - q(A)
    summed from the tail, which keeps their precision when 1 - q(A) is
    small. A set already in violation (border_feasible passes gaps up to
    BORDER_TOL) gives step 0 and joins the chain, so the search never
    stalls and such a gap is carried, not amplified.
    """
    tau = np.asarray(tau, dtype=float)
    q = np.asarray(q, dtype=float)
    check = border_feasible(tau, q, n)
    if not check.feasible:
        raise InfeasibleReducedFormError(check.violating_set)
    m = q.size
    q_ext = np.append(q, 0.0)
    resid = np.append(n * q * tau, 0.0)
    resid[m] = 1.0 - resid.sum()
    block = np.zeros(m + 1, dtype=int)
    block[m] = resid[m] <= n * S_SIG_TOL
    mass = 1.0
    weights, orders = [], []
    while True:  # each pass ends or splits a block, so at most m + 1 run
        order = np.lexsort((-_residual_tau(resid, q_ext), block))
        v = _priority_masses(order, q_ext, n)
        step, binding = _step_length(resid, v, q_ext, n, mass, block)
        if step > 8 * np.finfo(float).eps:  # smaller steps are rounding
            weights.append(step)
            orders.append(order)
        if binding is None:
            break
        resid = resid - step * v
        mass -= step
        block = np.unique(2 * block + ~binding, return_inverse=True)[1]
    weights = np.array(weights)
    return PriorityMixture(weights / weights.sum(), orders)


def _residual_tau(resid, q_ext):
    """resid / q per type; 0 for "keep", so it sorts behind positive residuals."""
    out = np.zeros(resid.size)
    np.divide(resid[:-1], q_ext[:-1], out=out[:-1])
    return out


def _step_length(resid, v, q_ext, n, mass, block):
    """Largest t with resid - t*v in (mass - t) times the chain's face.

    Returns t and the binding set as a mask, or None when t = mass (the
    residual is mass * v). Dinkelbach: at trial t the set maximizing
    t*D - N is a prefix, inside one block, of the order of
    (resid - t*v) / q; while that excess is positive, t becomes its N/D.
    """
    t, binding = mass, None
    while True:  # t falls strictly through finitely many ratios
        sigma = np.lexsort((-_residual_tau(resid - t * v, q_ext), block))
        tails = _tails(sigma, q_ext, n)[:-1]
        slack_r = np.cumsum(resid[sigma][::-1])[::-1] - mass * tails
        slack_v = np.cumsum(v[sigma][::-1])[::-1] - tails
        # candidate p splits its block before position p
        b = block[sigma]
        cand = np.flatnonzero(b[1:] == b[:-1]) + 1
        N, D = slack_r[cand], slack_v[cand]
        excess = np.where(D > 0, t * D - N, 0.0)
        if excess.size == 0 or excess.max() <= 0.0:
            break
        k = int(np.argmax(excess))
        ratio = max(N[k], 0.0) / D[k]
        if ratio >= t:
            break
        t = ratio
        binding = np.zeros(resid.size, dtype=bool)
        binding[sigma[:cand[k]]] = True
        if t == 0.0:
            break
    return t, binding


def _ranks(orders: np.ndarray) -> np.ndarray:
    """ranks[k, j]: position of symbol j (a type, or m for "keep") in order k."""
    ranks = np.empty_like(orders)
    np.put_along_axis(ranks, orders, np.arange(orders.shape[1])[None, :], axis=1)
    return ranks


def decompose_reduced_form(tau, q, n: int) -> AllocationRule:
    """priority_decomposition's lottery written out over all m^n profiles.

    Rule k gives the item to a uniformly random holder of the
    highest-ranked type present, or keeps it when "keep" ranks above every
    type present; probs[t] is the weighted sum of the rules at profile t.
    Raises InfeasibleReducedFormError when tau fails the Border check.
    """
    q = np.asarray(q, dtype=float)
    mixture = priority_decomposition(tau, q, n)
    m = q.size
    profiles = type_profiles([m] * n, PROFILE_CAP)
    # "keep" is an extra bidder who always holds the symbol m
    holding = np.hstack([profiles, np.full((profiles.shape[0], 1), m)])
    probs = np.zeros(holding.shape)
    for weight, rank in zip(mixture.weights, _ranks(mixture.orders)):
        ranks = rank[holding]
        holders = ranks == ranks.min(axis=1, keepdims=True)
        probs += weight * holders / holders.sum(axis=1, keepdims=True)
    return AllocationRule(profiles, probs)


class AllocationSchemeSampler:
    """Signal sampler implementing a realizable s-signature.

    Draws one priority rule of the mixture per trial, finds the
    highest-priority type present in the profile, and recommends a
    uniformly random action holding that type. The induced scheme is
    symmetric: every signal fires with probability 1/n and the
    recommended action's posterior type mass is n * recommended. Per
    batch of T profiles it consumes T uniforms for the rules, then T
    uniforms for the choice among the actions holding the winning type,
    and builds no permutation and no m^n table. The constructor rejects a mixture whose reduced
    form is more than REDUCED_FORM_MATCH_TOL from the s-signature's.
    Not thread-safe; clone with independent seeds instead of sharing.
    """

    def __init__(self, instance: IIDInstance, ssig: SSignature, mixture: PriorityMixture):
        q = instance.type_probs
        m = instance.type_count
        if mixture.orders.shape[1] != m + 1 or ssig.recommended.size != m:
            raise ValidationError("priority mixture does not match the instance")
        if np.any(mixture.orders[:, -1] != m):
            raise ValidationError("an s-signature sampler must always allocate")
        live = q > 0
        got = mixture.win_masses(q, instance.action_count)[live]
        want = instance.action_count * ssig.recommended[live]
        if np.max(np.abs(got - want) / (instance.action_count * q[live])) \
                > REDUCED_FORM_MATCH_TOL:
            raise ValidationError(
                "priority mixture's reduced form does not match the s-signature"
            )
        self.instance = instance
        self.ssig = ssig
        self.mixture = mixture
        # rank[k*m + j]: position of type j in order k; zero-probability
        # types never occur in drawn profiles and are rejected if given
        self._rank = _ranks(mixture.orders)[:, :m].ravel().astype(np.min_scalar_type(m))
        self._rule_of = InverseCDF(mixture.weights)
        self._absent = None if live.all() else ~live

    def sample(self, profile, rng: np.random.Generator) -> int:
        return int(self.sample_many(np.asarray(profile, dtype=int)[None, :], rng)[0])

    def sample_many(self, profiles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        T, n = profiles.shape
        m = self.instance.type_count
        if self._absent is not None and self._absent[profiles].any():
            raise ValidationError("profile contains a zero-probability type")
        rule = self._rule_of(rng.random(T))
        # (action, trial) layout: reductions over actions run along rows
        ranks = np.take(self._rank, np.add(profiles.T, rule * m, order="C"))
        holders = ranks == ranks.min(axis=0)
        # recommend the skip-th holder in action order, skip uniform
        skip = (rng.random(T) * holders.sum(axis=0)).astype(np.intp)
        out = np.empty(T, dtype=np.intp)
        for j in range(n):
            np.copyto(out, j, where=holders[j] & (skip == 0))
            skip -= holders[j]
        return out


def implement_s_signature(instance: IIDInstance,
                          ssig: SSignature) -> AllocationSchemeSampler:
    """Signal sampler realizing a certified s-signature, in O(poly(m)) set-up.

    Decomposes tau = x / q over the positive-probability types into at
    most m priority rules (priority_decomposition) and wraps them as an
    AllocationSchemeSampler; zero-probability types come last in every
    order. Raises InfeasibleReducedFormError when tau fails the Border
    certificate, and ValidationError when the mixture's reduced form
    misses tau by more than REDUCED_FORM_MATCH_TOL.
    """
    work, keep = _drop_zero_types(instance)
    tau = ssig.recommended[keep] / work.type_probs
    inner = priority_decomposition(tau, work.type_probs, work.action_count)
    m = instance.type_count
    tail = np.append(np.setdiff1d(np.arange(m), keep), m)
    orders = np.hstack([keep[inner.orders[:, :-1]], np.tile(tail, (inner.weights.size, 1))])
    return AllocationSchemeSampler(instance, ssig, PriorityMixture(inner.weights, orders))


def signature_of(instance: IIDInstance, scheme: DirectScheme) -> Signature:
    """Signature of a scheme given over the product expansion's states."""
    n, m = instance.action_count, instance.type_count
    profiles = type_profiles([m] * n, max(PROFILE_CAP, scheme.state_count))
    if scheme.state_count != profiles.shape[0]:
        raise ValidationError("scheme rows must cover the product expansion")
    if scheme.signal_count != n:
        raise ValidationError("signature needs one signal per action")
    lam = np.prod(instance.type_probs[profiles], axis=1)
    M = np.empty((n, n, m))
    for i in range(n):
        w = lam * scheme.phi[:, i]
        for j in range(n):
            M[i, j] = np.bincount(profiles[:, j], weights=w, minlength=m)
    return Signature(M, type_probs=instance.type_probs)


def signature_map(q, n: int, signals: int, cap: int) -> np.ndarray:
    """Linear map from schemes on n i.i.d. actions to their signatures.

    Returns the (signals * n * m, S, signals) array A over the S = m^n
    type profiles with A[(i*n + j)*m + k, t, i] = lam_t, the prior of
    profile t, where action j has type k in t, and 0 elsewhere: summing
    A[r] * phi over (t, i) gives entry r of the flattened signature of
    the scheme phi. Raises InstanceTooLargeError when S exceeds cap.
    """
    q = np.asarray(q, dtype=float)
    m = q.size
    profiles = type_profiles([m] * n, cap)
    S = profiles.shape[0]
    A = np.zeros((signals * n * m, S, signals))
    i, j = np.arange(signals)[:, None, None], np.arange(n)[None, :, None]
    A[(i * n + j) * m + profiles.T, np.arange(S), i] = np.prod(q[profiles], axis=1)
    return A


def s_signature_of(instance: IIDInstance, scheme: DirectScheme) -> SSignature:
    """Average a scheme's signature into s-signature form."""
    M = signature_of(instance, scheme).matrices
    n = instance.action_count
    diag = np.mean([M[i, i] for i in range(n)], axis=0)
    if n > 1:
        off = sum(M[i, j] for i in range(n) for j in range(n) if i != j)
        off = off / (n * (n - 1))
    else:
        off = diag
    return SSignature(diag, off, n)


def symmetrize(instance: IIDInstance, scheme: DirectScheme) -> DirectScheme:
    """Average a scheme over all action permutations: the orbit average.

    A permutation maps (profile t, signal i) to a pair (t', i') where t'
    holds the same multiset of types and t'[i'] = t[i]; over the n!
    permutations each such pair occurs equally often. So entry (t, i) is
    the mean of phi over those pairs, one group per (sorted profile, type),
    in O(S*n) for any n. Keeps sender utility and incentive compatibility,
    and the result's signature has identical recommended rows and identical
    other rows.
    """
    n, m = instance.action_count, instance.type_count
    profiles = type_profiles([m] * n, max(PROFILE_CAP, scheme.state_count))
    if scheme.state_count != profiles.shape[0]:
        raise ValidationError("scheme rows must cover the product expansion")
    if scheme.signal_count != n:
        raise ValidationError("symmetrize needs one signal per action")
    orbit = np.ravel_multi_index(np.sort(profiles, axis=1).T, (m,) * n)
    _, group = np.unique((orbit[:, None] * m + profiles).ravel(), return_inverse=True)
    sums = np.bincount(group, weights=scheme.phi.ravel())
    return DirectScheme((sums / np.bincount(group))[group].reshape(profiles.shape))
