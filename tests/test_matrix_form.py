"""Linear programs in matrix form.

Every package builder assembles (A, relations, b) with numpy. Each one is
checked byte for byte against a test-local copy of the row-by-row builder
it replaced, which emits one (coeffs, relation, rhs) row per constraint.
The s-signature LPs have no package builder; their row copies serve as a
value reference for the greedy solvers.
"""

import itertools

import numpy as np
import pytest

from persuasion import approx, blackbox, exact, fixtures, iid, khintchine, verify
from persuasion.blackbox import _bucket_rows, solve_empirical_lp
from persuasion.errors import InstanceTooLargeError, ValidationError
from persuasion.exact import type_profiles
from persuasion.iid import border_feasible
from persuasion.khintchine import TwoSignalSignature, sign_dot_products
from persuasion.lp import LinearProgram, solve
from persuasion.model import (DirectScheme, ExplicitInstance, IIDInstance,
                              IndependentInstance, Marginal, _unit_factors)

from lp_rows import row_lp


def _same_program(new, old):
    assert new.objective.tobytes() == old.objective.tobytes()
    assert new.A.shape == old.A.shape and new.A.tobytes() == old.A.tobytes()
    assert new.relations.dtype == old.relations.dtype
    assert new.relations.tobytes() == old.relations.tobytes()
    assert new.b.tobytes() == old.b.tobytes()


def _recorded(monkeypatch, module, call):
    """Programs that module's solve() receives while call() runs."""
    seen = []

    def record(lp, *args, **kwargs):
        seen.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(module, "solve", record)
    call()
    monkeypatch.undo()
    return seen


# ---------------------------------------------------------------------------
# the row builders, as they were


def _rows_direct_scheme_lp(weights, sender, receiver, epsilon):
    S, n = sender.shape
    nv = S * n
    cons = []
    for t in range(S):
        row = np.zeros(nv)
        row[t * n:(t + 1) * n] = 1.0
        cons.append((row, "=", 1.0))
    for i, j in itertools.permutations(range(n), 2):
        row = np.zeros(nv)
        row[i::n] = weights * (receiver[:, i] - receiver[:, j] + epsilon)
        cons.append((row, ">=", 0.0))
    return row_lp((weights[:, None] * sender).reshape(nv), cons)


def _rows_s_signature_lps(instance):
    work, _ = iid._drop_zero_types(instance)
    n, m = work.action_count, work.type_count
    q, xi, rho = work.type_probs, work.sender_payoffs, work.receiver_payoffs
    base = []
    ones_x = np.concatenate([np.ones(m), np.zeros(m)])
    ones_y = np.concatenate([np.zeros(m), np.ones(m)])
    base.append((ones_x, "=", 1.0 / n))
    base.append((ones_y, "=", 1.0 / n))
    for j in range(m):
        row = np.zeros(2 * m)
        row[j] = 1.0
        row[m + j] = n - 1.0
        base.append((row, "=", float(q[j])))
    base.append((np.concatenate([rho, -rho]), ">=", 0.0))
    objective = np.concatenate([n * xi, np.zeros(m)])
    lps, cuts = [], []
    while True:
        cons = list(base)
        for A in cuts:
            row = np.zeros(2 * m)
            row[list(A)] = float(n)
            qa = q[list(A)].sum()
            cons.append((row, "<=", 1.0 - (1.0 - qa) ** n))
        lps.append(row_lp(objective, cons))
        out = solve(lps[-1])
        x = np.clip(out.point[:m], 0.0, None)
        check = border_feasible(x / q, q, n)
        if check.feasible or check.violating_set in cuts:
            return lps
        cuts.append(check.violating_set)


def _state_types(n):
    """(2^n, n) matrix of +-1 types in sign_dot_products order."""
    return 2 * type_profiles([2] * n, 2 ** n) - 1


def _rows_transport_lp(tau, q, n, cap):
    m = q.size
    profiles = type_profiles([m] * n, cap)
    S = profiles.shape[0]
    lam = np.prod(q[profiles], axis=1)
    nv = S * n
    cons = []
    for t in range(S):
        row = np.zeros(nv)
        row[t * n:(t + 1) * n] = 1.0
        cons.append((row, "<=", 1.0))
    for i in range(n):
        for j in range(m):
            row = np.zeros(nv)
            hits = np.nonzero(profiles[:, i] == j)[0]
            row[hits * n + i] = lam[hits]
            cons.append((row, "=", float(q[j] * tau[j])))
    return row_lp(np.zeros(nv), cons)


def _rows_realizability_lp(signature, instance, cap=4096):
    n, m = instance.action_count, instance.type_count
    M = signature.matrices
    k = M.shape[0]  # signals
    profiles = type_profiles([m] * n, cap)
    S = profiles.shape[0]
    lam = np.prod(instance.type_probs[profiles], axis=1)
    nv = S * k
    cons = []
    for i in range(k):
        for j in range(n):
            for l in range(m):
                row = np.zeros(nv)
                hits = np.nonzero(profiles[:, j] == l)[0]
                row[hits * k + i] = lam[hits]
                cons.append((row, "=", float(M[i, j, l])))
    for t in range(S):
        row = np.zeros(nv)
        row[t * k:(t + 1) * k] = 1.0
        cons.append((row, "=", 1.0))
    return row_lp(np.zeros(nv), cons)


def _rows_khintchine_lp(a):
    n = a.size
    S = 2 ** n
    lam = 1.0 / S
    types = _state_types(n)

    def m_col(sig, i, t):
        return 2 * S + sig * 2 * n + 2 * i + t

    nv = 2 * S + 4 * n
    cons = []
    for sig in range(2):
        for i in range(n):
            for t in range(2):
                row = np.zeros(nv)
                row[m_col(sig, i, t)] = 1.0
                hits = np.nonzero(types[:, i] == (2 * t - 1))[0]
                row[hits + sig * S] = -lam
                cons.append((row, "=", 0.0))
    for s in range(S):
        row = np.zeros(nv)
        row[s] = 1.0
        row[S + s] = 1.0
        cons.append((row, "=", 1.0))
    for i in range(n):
        row = np.zeros(nv)
        row[m_col(0, i, 0)] = 1.0
        row[m_col(0, i, 1)] = 1.0
        cons.append((row, "=", 0.5))
    c = np.zeros(nv)
    for i in range(n):
        c[m_col(0, i, 1)] += a[i]
        c[m_col(0, i, 0)] -= a[i]
        c[m_col(1, i, 1)] -= a[i]
        c[m_col(1, i, 0)] += a[i]
    return row_lp(c, cons)


def _rows_membership_lp(signature):
    n = signature.action_count
    S = 2 ** n
    lam = 1.0 / S
    types = _state_types(n)
    nv = 2 * S
    cons = []
    targets = (signature.plus, signature.minus)
    for sig in range(2):
        for i in range(n):
            for t in range(2):
                row = np.zeros(nv)
                hits = np.nonzero(types[:, i] == (2 * t - 1))[0]
                row[hits + sig * S] = lam
                cons.append((row, "=", float(targets[sig][i, t])))
    for s in range(S):
        row = np.zeros(nv)
        row[s] = 1.0
        row[S + s] = 1.0
        cons.append((row, "=", 1.0))
    return row_lp(np.zeros(nv), cons)


# ---------------------------------------------------------------------------
# the builders against their row copies


def _explicit_cases():
    rng = np.random.default_rng(20150319)
    cases = []
    for S, n in ((1, 1), (1, 3), (25, 1), (30, 3), (12, 5), (60, 4)):
        cases.append(fixtures.random_explicit(rng, S, n))
        cases.append(fixtures.random_explicit(rng, S, n, nonnegative=True))
    inst = fixtures.random_explicit(rng, 40, 3)
    probs = inst.state_probs.copy()
    probs[::3] = 0.0  # zero-probability states
    cases.append(ExplicitInstance(probs / probs.sum(), inst.sender_payoffs,
                                  inst.receiver_payoffs))
    return cases


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_direct_scheme_lp_matches_row_builder(eps):
    for inst in _explicit_cases():
        args = (inst.state_probs, inst.sender_payoffs, inst.receiver_payoffs, eps)
        _same_program(exact.direct_scheme_lp(*args), _rows_direct_scheme_lp(*args))


def test_empirical_lp_matches_row_builder():
    rng = np.random.default_rng(5)
    oracle = blackbox.ExplicitOracle(fixtures.investor_blackbox_instance())
    for eps in (0.0, 0.05):
        s, r = oracle.draw_batch(400, rng)
        seen = _recorded(pytest.MonkeyPatch(), exact,
                         lambda: solve_empirical_lp((s, r), eps))
        uniq, _, counts = np.unique(np.hstack([s, r]), axis=0, return_inverse=True,
                                    return_counts=True)
        n = s.shape[1]
        # solve_exact scales the payoffs by powers of two before building
        ks, kr = _unit_factors(uniq[:, :n], uniq[:, n:])
        _same_program(seen[0], _rows_direct_scheme_lp(
            counts / 400, uniq[:, :n] * ks, uniq[:, n:] * kr, eps * kr))


def _iid_cases():
    rng = np.random.default_rng(7919)
    cases = [fixtures.investor(), fixtures.random_iid(rng, actions=1, types=3)]
    for n in range(1, 6):
        for m in (1, 2, 4, 6):
            cases.append(fixtures.random_iid(rng, actions=n, types=m))
    inst = fixtures.random_iid(rng, actions=3, types=5)
    probs = inst.type_probs.copy()
    probs[[1, 3]] = 0.0  # zero-probability types
    cases.append(IIDInstance(3, probs / probs.sum(), inst.sender_payoffs,
                             inst.receiver_payoffs))
    return cases


def test_s_signature_lps_match_row_builder():
    # the row-built LPs with Border cuts are a value reference for the
    # parametric greedy wherever their last point passes the certificate
    cut_rounds = 0
    for inst in _iid_cases():
        lps = _rows_s_signature_lps(inst)
        cut_rounds += len(lps) - 1
        out = solve(lps[-1])
        work, _ = iid._drop_zero_types(inst)
        q, n = work.type_probs, work.action_count
        if not border_feasible(np.clip(out.point[:q.size], 0.0, None) / q, q, n).feasible:
            continue
        assert iid.solve_s_signature(inst)[1] == pytest.approx(out.value, abs=1e-9)
    assert cut_rounds > 0


def test_relaxation_is_the_uncut_s_signature_lp():
    for inst in _iid_cases():
        out = solve(_rows_s_signature_lps(inst)[0])
        assert approx.solve_relaxation(inst)[2] == pytest.approx(out.value, abs=1e-12)


def _reduced_forms():
    """(tau, q, n): feasible and infeasible reduced forms, n = 1 included."""
    rng = np.random.default_rng(11)
    cases = []
    for n, m in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
        for _ in range(3):
            cases.append((rng.uniform(0.0, 1.0, m), fixtures.random_simplex(rng, m), n))
    return cases


def test_transport_lp_matches_row_builder(monkeypatch):
    for tau, q, n in _reduced_forms():
        (new,) = _recorded(monkeypatch, verify,
                           lambda: verify.allocation_exists_bruteforce(tau, q, n))
        _same_program(new, _rows_transport_lp(tau, q, n, 4096))


def test_realizability_lp_matches_row_builder(monkeypatch):
    rng = np.random.default_rng(13)
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        inst = fixtures.random_iid(rng, actions=n, types=m)
        S = m ** n
        phi = rng.random((S, n))
        phi /= phi.sum(axis=1, keepdims=True)
        sig = iid.signature_of(inst, DirectScheme(phi))
        (new,) = _recorded(monkeypatch, verify,
                           lambda: verify.realizability_check(sig, inst))
        _same_program(new, _rows_realizability_lp(sig, inst))


@pytest.mark.parametrize("n", range(2, 9))
def test_khintchine_lp_matches_row_builder(monkeypatch, n):
    a = np.random.default_rng(n).uniform(-1, 1, n)
    a[0] = -0.0  # 0.0 - (-0.0) and 0.0 + (-0.0) are both +0.0
    (new,) = _recorded(monkeypatch, khintchine, lambda: khintchine.solve_khintchine_lp(a))
    _same_program(new, _rows_khintchine_lp(a))


@pytest.mark.parametrize("n", range(2, 9))
def test_membership_lp_matches_row_builder(monkeypatch, n):
    # a two-signal signature is the k = 2 case of the realizability program
    x = np.random.default_rng(n).uniform(0.0, 0.5, (n, 2))
    x[:, 1] = 0.5 - x[:, 0]
    sig = TwoSignalSignature(x, 0.5 - x)
    (new,) = _recorded(monkeypatch, verify, lambda: verify.realizability_check(sig))
    as_matrices = iid.Signature(np.stack([sig.plus, sig.minus]))
    sign_prior = IIDInstance(n, [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])  # types (-1, +1)
    _same_program(new, _rows_realizability_lp(as_matrices, sign_prior))
    # and k signals on a random i.i.d. prior, k != n
    rng = np.random.default_rng(n)
    inst = fixtures.random_iid(rng, actions=min(n, 4), types=2)
    for k in (1, 3):
        phi = rng.random((2 ** inst.action_count, k))
        phi /= phi.sum(axis=1, keepdims=True)
        zero = iid.Signature(np.zeros((k, inst.action_count, 2)))
        M = _rows_realizability_lp(zero, inst).A[:-phi.shape[0]] @ phi.ravel()
        sig_k = iid.Signature(M.reshape(k, inst.action_count, 2), inst.type_probs)
        (new,) = _recorded(monkeypatch, verify,
                           lambda: verify.realizability_check(sig_k, inst))
        _same_program(new, _rows_realizability_lp(sig_k, inst))
        assert solve(new).status == "optimal"


def _two_signal_draws(rng, n):
    """Signatures x = Pr[first signal, type -1] per action: feasible and not."""
    draws = [np.full(n, 0.25), np.full(n, 0.5), np.r_[0.5, np.full(n - 1, 0.3)]]
    draws += [rng.uniform(0.0, 0.5, n) for _ in range(4)]
    draws += [0.25 + rng.uniform(-0.25, 0.25) * 2.0 ** -np.arange(n) for _ in range(3)]
    return [TwoSignalSignature(np.stack([x, 0.5 - x], axis=1),
                               np.stack([0.5 - x, x], axis=1)) for x in draws]


@pytest.mark.parametrize("n", range(1, 7))
def test_two_signal_verdict_matches_membership_program(n):
    # the signal-major membership program realizability_check replaced
    verdicts = []
    for sig in _two_signal_draws(np.random.default_rng(100 + n), n):
        want = solve(_rows_membership_lp(sig)).status
        assert want in ("optimal", "infeasible")
        assert verify.realizability_check(sig) == (want == "optimal")
        verdicts.append(want == "optimal")
    assert any(verdicts) and (n == 1 or not all(verdicts))


# ---------------------------------------------------------------------------
# the constructor


def _matrix_lp(**changes):
    args = dict(A=np.array([[1.0, 2.0], [3.0, 1.0]]), relations=["<=", ">="],
                b=np.array([4.0, 1.0]))
    args.update(changes)
    return LinearProgram([1.0, 1.0], **args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_rejected(bad):
    with pytest.raises(ValidationError, match="constraint 1: coefficients"):
        _matrix_lp(A=np.array([[1.0, 2.0], [3.0, bad]]))
    with pytest.raises(ValidationError, match="constraint 0: rhs"):
        _matrix_lp(b=np.array([bad, 1.0]))


@pytest.mark.parametrize("changes", [
    dict(A=np.ones((2, 3))), dict(A=np.ones(2)), dict(A=np.ones((3, 2))),
    dict(b=np.ones(3)), dict(b=np.ones((2, 1))), dict(relations=["<="]),
    dict(relations=["<=", "<=", "<="]),
])
def test_wrong_shape_is_rejected(changes):
    with pytest.raises(ValidationError):
        _matrix_lp(**changes)


@pytest.mark.parametrize("bad", ["=<", "", "<<", "==", "le", "<=x", None])
def test_unknown_relation_is_rejected(bad):
    with pytest.raises(ValidationError, match="constraint 1: unknown relation"):
        _matrix_lp(relations=["<=", bad])
    with pytest.raises(ValidationError, match="constraint 0: unknown relation"):
        row_lp([1.0], [([1.0], bad, 1.0)])


def test_relations_and_zero_rows():
    lp = _matrix_lp(relations=np.array(["<=", "="]))
    assert lp.relations.tolist() == ["<=", "="] and lp.relations.dtype == "<U2"
    empty = row_lp([1.0, 2.0])
    assert empty.A.shape == (0, 2) and empty.b.shape == (0,)
    assert len(empty.constraints) == 0


def test_constraints_round_trip():
    rng = np.random.default_rng(3)
    rows = [(rng.uniform(-1, 1, 4), rel, float(rng.uniform(-1, 1)))
            for rel in ("<=", "=", ">=", "=", "<=")]
    lp = row_lp(rng.uniform(-1, 1, 4), rows)
    assert len(lp.constraints) == 5
    for (coeffs, rel, rhs), row in zip(lp.constraints, rows):
        assert coeffs.tobytes() == row[0].tobytes() and (rel, rhs) == row[1:]
    assert lp.constraints[-1][0].tobytes() == lp.constraints[4][0].tobytes()
    again = row_lp(lp.objective, lp.constraints)
    _same_program(again, lp)
    _same_program(LinearProgram(lp.objective, A=lp.A, relations=lp.relations, b=lp.b), lp)
    with pytest.raises(ValueError):
        lp.constraints[0][0][0] = 1.0  # a read-only view of A


def test_matrix_is_not_copied_and_caller_keeps_write_access():
    A = np.ones((2, 2))
    lp = LinearProgram([1.0, 1.0], A=A, relations=["<=", "<="], b=[1.0, 2.0])
    assert np.shares_memory(lp.A, A) and not lp.A.flags.writeable
    A[0, 0] = 2.0
    assert A.flags.writeable


def test_zero_shift_rhs_matches_per_row_products():
    # -0.0 right-hand sides with negative coefficients: no row is a set, the
    # layout keeps A's rows and b byte for byte, each row's slack is +1 in it,
    # and -0.0 is not below zero, so the outcome is that of +0.0
    rng = np.random.default_rng(29)
    A = -rng.random((6, 4))
    b = np.array([-0.0, 0.0, -0.0, 1.0, -2.0, 0.5])
    c = rng.uniform(-1, 1, 4)
    lp = LinearProgram(c, A=A, relations=["<="] * 6, b=b)
    K, _, AC, rhs, slack, var, rows = lp._layout()
    assert K == 0 and rhs.tobytes() == b.tobytes()
    assert AC[var, :6].tobytes() == A.T.tobytes() and (AC[slack, np.arange(6)] == 1.0).all()
    assert var.tolist() == [0, 1, 2, 3] and rows.tolist() == list(range(6))
    got, want = solve(lp), solve(LinearProgram(c, A=A, relations=["<="] * 6, b=b + 0.0))
    assert got.status == want.status
    for field in ("value", "point", "duals", "certificate", "pivots"):
        assert (np.asarray(getattr(got, field), dtype=float).tobytes()
                == np.asarray(getattr(want, field), dtype=float).tobytes())


# ---------------------------------------------------------------------------
# started solves against the cold solve, on the direct-scheme layout


def test_started_solve_matches_cold_solve_on_named_row_layouts():
    # the started solve reads the program's incentive block W; the cold
    # solve of the program, from W, and of its dense copy, from A, find the
    # same sets and agree byte for byte
    for eps in (0.0, 0.05):
        for k, inst in enumerate(_explicit_cases()):
            S, n = inst.state_count, inst.action_count
            keys = np.arange(S) * n + inst.receiver_payoffs.argmax(axis=1)
            lp = exact.direct_scheme_lp(inst.state_probs, inst.sender_payoffs,
                                        inst.receiver_payoffs, eps)
            started = solve(lp, keys=keys)
            assert "A" not in vars(lp), f"program {k}"  # W alone served the start
            dense = LinearProgram(lp.objective, A=lp.A, relations=lp.relations, b=lp.b)
            cold, again = solve(lp), solve(dense)
            for field in ("value", "point", "duals", "pivots"):
                assert (np.asarray(getattr(cold, field)).tobytes()
                        == np.asarray(getattr(again, field)).tobytes()), f"program {k}"
            assert started.start == "crash" and cold.start == "cold", f"program {k}"
            assert started.value == pytest.approx(cold.value, abs=1e-9)
            x, y, rel = started.point, started.duals, lp.relations
            lhs = lp.A @ x
            assert np.all(x >= -1e-9)
            assert np.all(lhs[rel == ">="] >= lp.b[rel == ">="] - 1e-9)
            assert np.all(np.abs(lhs - lp.b)[rel == "="] <= 1e-9)
            assert np.all(y[rel == ">="] <= 1e-9)
            assert np.all(lp.objective - lp.A.T @ y <= 1e-9)
            assert y @ lp.b == pytest.approx(started.value, abs=1e-9)


# ---------------------------------------------------------------------------
# empirical-LP bucketing


def _unique_rows(rows):
    uniq, inverse, counts = np.unique(rows, axis=0, return_inverse=True,
                                      return_counts=True)
    return uniq, inverse.ravel(), counts


def _bucket_cases():
    rng = np.random.default_rng(37)
    oracle = blackbox.ExplicitOracle(fixtures.investor_blackbox_instance())
    s, r = oracle.draw_batch(2000, rng)
    return [
        rng.uniform(-1, 1, (1, 6)),  # K = 1
        np.tile(rng.uniform(-1, 1, 4), (300, 1)),  # a single distinct row
        rng.integers(-1, 2, (3000, 6)).astype(float) / 2,  # heavy ties
        np.hstack([s, r]),  # finite-support oracle draws
        rng.uniform(-1, 1, (2000, 6)),  # continuous samples
        np.round(rng.uniform(-1, 1, (2000, 4)), 1) + 0.0,  # ties, no -0.0
    ]


def test_bucketing_matches_np_unique():
    for rows in _bucket_cases():
        got, want = _bucket_rows(rows), _unique_rows(rows)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_bucketing_merges_signed_zeros():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, -0.0], [0.5, 0.0]])
    uniq, inverse, counts = _bucket_rows(rows)
    assert uniq.shape == (2, 2) and inverse.tolist() == [0, 0, 1, 1]
    assert counts.tolist() == [2, 2]


# ---------------------------------------------------------------------------
# the loops that also built program data, against their vectorized forms


def _loop_expand_product(instance):
    """Reference expansion: one profile at a time, p = 1.0 * q0 * q1 ..."""
    if isinstance(instance, IIDInstance):
        marginals = [Marginal(instance.type_probs, instance.sender_payoffs,
                              instance.receiver_payoffs)] * instance.action_count
    else:
        marginals = list(instance.marginals)
    sizes = [m.type_probs.size for m in marginals]
    total, n = int(np.prod(sizes)), len(marginals)
    probs, sender, receiver = np.empty(total), np.empty((total, n)), np.empty((total, n))
    for t, profile in enumerate(itertools.product(*(range(k) for k in sizes))):
        p = 1.0
        for i, j in enumerate(profile):
            p *= marginals[i].type_probs[j]
            sender[t, i] = marginals[i].sender_payoffs[j]
            receiver[t, i] = marginals[i].receiver_payoffs[j]
        probs[t] = p
    return probs, sender, receiver


def test_expand_product_matches_profile_loop():
    rng = np.random.default_rng(41)
    cases = [fixtures.investor()] + [fixtures.random_iid(rng, actions=n, types=m)
                                     for n in (1, 2, 5) for m in (1, 3)]
    for _ in range(4):
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 4)))
        cases.append(IndependentInstance([
            Marginal(fixtures.random_simplex(rng, k), rng.uniform(-1, 1, k),
                     rng.uniform(-1, 1, k)) for k in sizes]))
    for inst in cases:
        full = exact.expand_product(inst)
        got = (full.state_probs, full.sender_payoffs, full.receiver_payoffs)
        for a, b in zip(got, _loop_expand_product(inst)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the product order, pinned in one place


def test_type_profiles_is_the_product_order():
    rng = np.random.default_rng(43)
    size_lists = [[1], [4], [2, 3], [3, 1, 2], [2, 2, 2, 2], [4, 3, 1, 2, 3]]
    size_lists += [list(rng.integers(1, 5, size=int(rng.integers(1, 5)))) for _ in range(6)]
    for sizes in size_lists:
        got = type_profiles(sizes, 10 ** 6)
        want = np.array(list(itertools.product(*(range(k) for k in sizes))), dtype=int)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        rows = np.ravel_multi_index(tuple(got.T), sizes)
        assert rows.tolist() == list(range(len(got)))
        # expand_product's states are these profiles, in this order
        inst = IndependentInstance([
            Marginal(fixtures.random_simplex(rng, k), rng.uniform(-1, 1, k),
                     rng.uniform(-1, 1, k)) for k in sizes])
        assert exact.profiles_of(inst).tobytes() == got.tobytes()
        full = exact.expand_product(inst)
        for i, marg in enumerate(inst.marginals):
            assert full.sender_payoffs[:, i].tobytes() == marg.sender_payoffs[got[:, i]].tobytes()
    for n in range(1, 9):  # the sign states of sign_dot_products
        a = 2.0 ** np.arange(n)  # dot products exact in any summation order
        assert np.array_equal(sign_dot_products(a), _state_types(n) @ a)
    rule = iid.decompose_reduced_form(np.full(3, 0.25), np.full(3, 1 / 3), 3)
    assert rule.profiles.tobytes() == type_profiles([3] * 3, 27).tobytes()


def test_type_profiles_cap():
    assert type_profiles([2] * 12, 4096).shape == (4096, 12)
    with pytest.raises(InstanceTooLargeError):
        type_profiles([2] * 13, 4096)
    with pytest.raises(InstanceTooLargeError):  # no int64 wrap-around to 0
        type_profiles([2] * 64, 4096)
    x = np.full((13, 2), 0.25)
    with pytest.raises(InstanceTooLargeError):
        verify.realizability_check(TwoSignalSignature(x, x))
    with pytest.raises(InstanceTooLargeError):
        khintchine.solve_khintchine_lp(np.ones(13))
    with pytest.raises(InstanceTooLargeError):
        exact.expand_product(IIDInstance(13, [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]), cap=4096)
