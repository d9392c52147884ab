"""Simplex engine tests against a brute-force vertex enumeration oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuasion import fixtures, verify
from persuasion import lp as lp_module
from persuasion.errors import ValidationError
from persuasion.exact import direct_scheme_lp, expand_product
from persuasion.lp import LinearProgram, LpOutcome, _Tableau, solve
from persuasion.model import ExplicitInstance

from lp_rows import row_lp


def enumerate_vertices(c, rows, rels, rhs):
    """Brute-force optimum of max c.x s.t. rows/rels/rhs and x >= 0.

    Intersects every n-subset of the constraint hyperplanes (including the
    axes) and keeps feasible points; independent of any pivoting logic.
    """
    n = len(c)
    planes = [(np.array(r, dtype=float), float(b)) for r, b in zip(rows, rhs)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, 0.0))
    best = None
    arg = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        ok = True
        for (row, bb), rel in zip(planes[: len(rows)], rels):
            lhs = row @ x
            if rel == "<=" and lhs > bb + 1e-9:
                ok = False
            elif rel == ">=" and lhs < bb - 1e-9:
                ok = False
            elif rel == "=" and abs(lhs - bb) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            v = float(np.dot(c, x))
            if best is None or v > best:
                best, arg = v, x
    return best, arg


def test_single_upper_bound():
    out = solve(row_lp([1.0], [([1.0], "<=", 3.0)]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(3.0, abs=1e-12)


def test_unbounded():
    assert solve(row_lp([1.0])).status == "unbounded"


def test_two_variable_polygon():
    # oracle: vertex enumeration of {x+2y<=4, 3x+y<=6, x,y>=0}
    oracle_value, oracle_point = enumerate_vertices(
        [1.0, 1.0], [[1, 2], [3, 1]], ["<=", "<="], [4.0, 6.0]
    )
    assert oracle_value == pytest.approx(14.0 / 5.0, abs=1e-12)
    out = solve(row_lp([1, 1], [([1, 2], "<=", 4.0), ([3, 1], "<=", 6.0)]))
    assert out.status == "optimal"
    assert out.value == pytest.approx(oracle_value, abs=1e-9)
    np.testing.assert_allclose(out.point, [8.0 / 5.0, 6.0 / 5.0], atol=1e-9)


def test_infeasible_with_certificate():
    out = solve(row_lp([1.0], [([1.0], "<=", -1.0)]))
    assert out.status == "infeasible"
    assert out.certificate is not None


def test_redundant_equalities():
    cons = [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0), ([1.0, 1.0], "=", 1.0)]
    out = solve(row_lp([1.0, 0.0], cons))
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_beale_degenerate_cycle_guard():
    # classic cycling-prone program; must terminate at the true optimum
    c = [0.75, -150.0, 0.02, -6.0]
    cons = [
        ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
        ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
        ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
    ]
    out = solve(row_lp(c, cons))
    assert out.status == "optimal"
    oracle_value, _ = enumerate_vertices(
        c,
        [row for row, _, _ in cons],
        [rel for _, rel, _ in cons],
        [b for _, _, b in cons],
    )
    assert out.value == pytest.approx(oracle_value, abs=1e-9)


def test_determinism():
    lp = row_lp([1, 2, 0.5], [([1, 1, 1], "<=", 4.0), ([2, 0, 1], ">=", 1.0)])
    a, b = solve(lp), solve(lp)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)


def test_feasibility_residual_and_duality_gap():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        c = rng.uniform(-1, 1, n)
        rows = rng.uniform(-1, 1, (k, n))
        rhs = rng.uniform(0.2, 2.0, k)
        cons = [(rows[i], "<=", rhs[i]) for i in range(k)]
        cons.append((np.ones(n), "<=", 5.0))  # keeps the program bounded
        out = solve(row_lp(c, cons))
        assert out.status == "optimal"
        for row, _, b in cons:
            assert row @ out.point <= b + 1e-8
        assert np.all(out.point >= -1e-8)
        assert out.duals is not None
        dual_value = sum(y * b for y, (_, _, b) in zip(out.duals, cons))
        assert abs(dual_value - out.value) <= 1e-7 * max(1.0, abs(out.value))


def test_matches_vertex_enumeration_on_random_programs():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        c = rng.uniform(-1, 1, n)
        rows = rng.uniform(-1, 1, (k, n))
        rhs = rng.uniform(0.3, 2.0, k)
        rows = np.vstack([rows, np.ones(n)])
        rhs = np.append(rhs, 4.0)
        rels = ["<="] * (k + 1)
        cons = [(rows[i], rels[i], rhs[i]) for i in range(k + 1)]
        out = solve(row_lp(c, cons))
        oracle_value, _ = enumerate_vertices(c, rows, rels, rhs)
        assert out.status == "optimal"
        assert out.value == pytest.approx(oracle_value, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_variable_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    c = rng.uniform(-1, 1, n)
    rows = rng.uniform(-1, 1, (k, n))
    rhs = rng.uniform(0.3, 2.0, k)
    cons = [(rows[i], "<=", rhs[i]) for i in range(k)] + [(np.ones(n), "<=", 3.0)]
    base = solve(row_lp(c, cons))
    perm = rng.permutation(n)
    cons_p = [(row[perm], rel, b) for row, rel, b in cons]
    permuted = solve(row_lp(c[perm], cons_p))
    assert base.status == permuted.status == "optimal"
    assert permuted.value == pytest.approx(base.value, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_objective_is_rejected(bad):
    with pytest.raises(ValidationError, match="objective"):
        row_lp([bad, 1.0], [([1.0, 1.0], "<=", 1.0)])


def test_pivot_counts_per_phase():
    # ">=" row starts on an artificial, so phase 1 must pivot it out
    out = solve(row_lp([1.0, 1.0], [([1, 1], ">=", 1.0), ([1, 2], "<=", 4.0)]))
    assert out.status == "optimal"
    p1, p2 = out.pivots
    assert p1 >= 1 and p2 >= 1
    assert solve(row_lp([1.0], [([1.0], "<=", -1.0)])).pivots[1] == 0
    assert solve(row_lp([-1.0])).pivots == (0, 0)
    assert LpOutcome(status="optimal").pivots is None


# ---------------------------------------------------------------------------
# the row-restricted pivot against the dense rank-1 update it replaced


def _dense_pivot(self, row, col):
    """Reference pivot: rank-1 update of every row, both objectives always."""
    T = self.T
    piv = T[row, col]
    T[row] /= piv
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    for z in (self.z1, self.z2):
        if z[col] != 0.0:
            z -= z[col] * T[row]
            z[col] = 0.0
    self.basis[row] = col


def _transport_lps(rng, count):
    """The transport LPs allocation_exists_bruteforce solves, feasible or not."""
    lps = []

    def record(lp):
        lps.append(lp)
        return solve(lp)

    original = verify.solve
    verify.solve = record
    try:
        for _ in range(count):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            q = fixtures.random_simplex(rng, m)
            verify.allocation_exists_bruteforce(rng.uniform(0.0, 1.0, m), q, n)
    finally:
        verify.solve = original
    return lps


def _general_lps(rng, count):
    """Random programs over x >= 0 mixing relations, with negative right-hand
    sides (rows the tableau flips); some are infeasible."""
    lps = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        rels = rng.choice(["<=", ">=", "="], size=k, p=[0.5, 0.3, 0.2])
        cons = [(rng.uniform(-1, 1, n), rel, rng.uniform(-1.5, 1.5)) for rel in rels]
        cons.append((np.ones(n), "<=", 6.0))  # keeps the program bounded
        lps.append(row_lp(rng.uniform(-1, 1, n), cons))
    return lps


def _direct_cases(rng):
    """(instance, epsilon) of the corpus's 16 direct-scheme programs."""
    cases = []
    for eps in (0.0, 0.0, 0.05, 0.2):
        for _ in range(4):
            inst = fixtures.random_explicit(rng, int(rng.integers(20, 60)),
                                            int(rng.integers(2, 5)))
            cases.append((inst, eps))
    return cases


def _direct_lp(inst, eps):
    return direct_scheme_lp(inst.state_probs, inst.sender_payoffs,
                            inst.receiver_payoffs, eps)


def _honest_keys(inst):
    """Keys of the honest scheme's basis: one variable per state row, on the
    receiver's exact argmax (the incentive rows keep their surpluses)."""
    S, n = inst.state_count, inst.action_count
    return np.arange(S) * n + np.argmax(inst.receiver_payoffs, axis=1)


def _pivot_corpus():
    rng = np.random.default_rng(20150319)
    lps = [_direct_lp(inst, eps) for inst, eps in _direct_cases(rng)]
    lps += _transport_lps(rng, 40)
    lps += _general_lps(rng, 60)
    return lps


def _as_bytes(out):
    def raw(a):
        return None if a is None else np.asarray(a, dtype=float).tobytes()

    return (out.status, raw(out.value), raw(out.point), raw(out.duals),
            raw(out.certificate), out.pivots)


def test_row_restricted_pivot_is_bit_identical_to_dense_update(monkeypatch):
    corpus = _pivot_corpus()
    fast = [solve(lp) for lp in corpus]
    monkeypatch.setattr(_Tableau, "pivot", _dense_pivot)
    dense = [solve(lp) for lp in corpus]
    statuses = {out.status for out in fast}
    assert {"optimal", "infeasible"} <= statuses
    assert sum(out.certificate is not None for out in fast) > 0
    for k, (a, b) in enumerate(zip(fast, dense)):
        assert _as_bytes(a) == _as_bytes(b), f"program {k} differs"


def _highs(lp):
    from scipy.optimize import linprog

    A, rel, rhs = lp.A, lp.relations, lp.b
    sign = np.where(rel == ">=", -1.0, 1.0)
    ub = rel != "="
    return linprog(
        -lp.objective,
        A_ub=(A[ub] * sign[ub, None]) if ub.any() else None,
        b_ub=(rhs[ub] * sign[ub]) if ub.any() else None,
        A_eq=A[~ub] if (~ub).any() else None,
        b_eq=rhs[~ub] if (~ub).any() else None,
        method="highs",
    )


def test_optimal_values_match_highs():
    pytest.importorskip("scipy")
    checked = 0
    for lp in _pivot_corpus():
        out = solve(lp)
        ref = _highs(lp)
        if ref.status == 2:
            assert out.status == "infeasible"
            _assert_farkas(lp, out.certificate)
            continue
        assert ref.status == 0
        assert out.status == "optimal"
        assert out.value == pytest.approx(-ref.fun, abs=1e-7)
        _assert_certified(lp, out)
        checked += 1
    assert checked >= 50
    # the crash path on the corpus's direct-scheme programs, and on larger
    # ones whose free swaps run in blocks
    for inst, eps in _direct_cases(np.random.default_rng(20150319)) + _block_cases():
        lp = _direct_lp(inst, eps)
        out = solve(lp, keys=_honest_keys(inst))
        assert out.start == "crash"
        _assert_certified(lp, out)
        assert out.value == pytest.approx(-_highs(lp).fun, abs=1e-7)


def _block_cases():
    """(instance, epsilon) of ten direct-scheme programs with 100-300 states.
    Half have receiver payoffs rounded to halves, a last action that action
    0 dominates (its incentive surpluses start at zero, so degenerate steps
    occur) and a few zero-probability states."""
    rng = np.random.default_rng(1967)
    cases = []
    for k in range(10):
        inst = fixtures.random_explicit(rng, int(rng.integers(100, 301)),
                                        int(rng.integers(2, 6)), nonnegative=k % 3 == 0)
        probs, receiver = inst.state_probs.copy(), inst.receiver_payoffs
        if k % 2:
            receiver = np.round(receiver * 2.0) / 2.0
            receiver[:, -1] = receiver[:, 0] - 0.5
            probs[rng.random(probs.size) < 0.1] = 0.0
            probs /= probs.sum()
        cases.append((ExplicitInstance(probs, inst.sender_payoffs, receiver),
                      0.05 if k % 4 == 3 else 0.0))
    return cases


# ---------------------------------------------------------------------------
# start basis: the honest crash start against the cold solve


def _assert_farkas(lp, y, tol=1e-9):
    """y proves A x (relations) b, x >= 0 infeasible: y A >= 0, y >= 0 on
    "<=" rows, y <= 0 on ">=" rows and y b < 0."""
    assert y is not None
    assert np.all(lp.A.T @ y >= -tol)
    assert np.all(y[lp.relations == "<="] >= -tol)
    assert np.all(y[lp.relations == ">="] <= tol)
    assert y @ lp.b < 0


def _assert_certified(lp, out, tol=1e-7):
    """The point is feasible, its zeros are +0.0 and the duals prove it
    optimal."""
    x, y = out.point, out.duals
    assert not np.signbit(x[x == 0]).any()
    A, rel, rhs = lp.A, lp.relations, lp.b
    lhs = A @ x
    assert np.all(x >= -1e-8)
    assert np.all(lhs[rel == "<="] <= rhs[rel == "<="] + 1e-8)
    assert np.all(lhs[rel == ">="] >= rhs[rel == ">="] - 1e-8)
    assert np.all(np.abs(lhs[rel == "="] - rhs[rel == "="]) <= 1e-8)
    assert y is not None
    assert np.all(y[rel == "<="] >= -tol) and np.all(y[rel == ">="] <= tol)
    assert np.all(lp.objective - A.T @ y <= tol)  # dual feasible for x >= 0
    assert y @ rhs == pytest.approx(out.value, abs=tol * max(1.0, abs(out.value)))


def _crash_cases():
    """Seeded direct-scheme instances covering the corners of the crash start."""
    rng = np.random.default_rng(6)
    cases = []
    for eps in (0.0, 0.05, 0.2):
        for S, n in ((30, 3), (60, 4), (12, 5), (1, 3), (25, 1), (1, 1)):
            cases.append((fixtures.random_explicit(rng, S, n), eps))
            cases.append((fixtures.random_explicit(rng, S, n, nonnegative=True), eps))
        inst = fixtures.random_explicit(rng, 40, 3)  # zero-probability states
        probs = inst.state_probs.copy()
        probs[::3] = 0.0
        cases.append((ExplicitInstance(probs / probs.sum(), inst.sender_payoffs,
                                       inst.receiver_payoffs), eps))
        # tied receiver payoffs: whole rows, and two of three actions
        receiver = rng.integers(0, 2, (40, 3)).astype(float)
        cases.append((ExplicitInstance(inst.state_probs, inst.sender_payoffs,
                                       receiver), eps))
        receiver = inst.receiver_payoffs.copy()
        receiver[:, 2] = receiver[:, 0]
        cases.append((ExplicitInstance(inst.state_probs, inst.sender_payoffs,
                                       receiver), eps))
    return cases


def test_crash_start_matches_cold_solve():
    phase1 = 0
    for inst, eps in _crash_cases():
        lp = _direct_lp(inst, eps)
        cold = solve(lp)
        crash = solve(lp, keys=_honest_keys(inst))
        assert cold.start == "cold" and crash.start == "crash"
        assert crash.status == cold.status == "optimal"
        assert crash.value == pytest.approx(cold.value, abs=1e-9)
        assert crash.pivots[0] == 0
        phase1 += cold.pivots[0]
        _assert_certified(lp, crash)
        _assert_certified(lp, cold)
    assert phase1 > 0


def test_every_optimal_outcome_is_certified(monkeypatch):
    outcomes = [(lp, solve(lp)) for lp in _pivot_corpus()]
    for inst, eps in _crash_cases():
        lp = _direct_lp(inst, eps)
        outcomes.append((lp, solve(lp, keys=_honest_keys(inst))))
    optimal = [(lp, out) for lp, out in outcomes if out.status == "optimal"]
    assert {out.start for _, out in optimal} == {"cold", "crash"}
    assert len(optimal) >= 100
    for lp, out in optimal:
        _assert_certified(lp, out)
    # a cold solve whose duals are missing or wrong does not answer "optimal"
    lp = row_lp([1.0, 1.0], [([1.0, 2.0], "<=", 4.0), ([3.0, 1.0], "<=", 6.0)])
    duals = lp_module._basis_duals
    monkeypatch.setattr(lp_module, "_basis_duals", lambda *args: None)
    assert solve(lp).status == "numerical_failure"
    for shift in (-0.5, 0.5):  # breaks the dual sign, then the duality gap

        def perturbed(*args, shift=shift):
            y = duals(*args).copy()
            y[0] += shift
            return y

        monkeypatch.setattr(lp_module, "_basis_duals", perturbed)
        assert solve(lp).status == "numerical_failure"


def _dominated_instance():
    """Action 1 is strictly worse for the receiver than action 0 everywhere."""
    rng = np.random.default_rng(8)
    receiver = rng.uniform(-1, 1, (20, 3))
    receiver[:, 1] = receiver[:, 0] - 0.25
    return ExplicitInstance(fixtures.random_simplex(rng, 20),
                            rng.uniform(-1, 1, (20, 3)), receiver)


def _rejected_starts():
    """(program, keys) that solve does not start from, one per rule: a "<="
    named row, a non-unit coefficient, overlapping supports, a key outside
    its row, an "=" working row (an incentive row, then a state row, whose
    basic solution is also negative) and a negative basic solution."""
    inst = fixtures.random_explicit(np.random.default_rng(7), 30, 3)
    lp, keys = _direct_lp(inst, 0.05), _honest_keys(inst)

    def changed(A=lp.A, relations=lp.relations, b=lp.b):
        return LinearProgram(lp.objective, A=A, relations=relations, b=b)

    relations, equal_ic = lp.relations.copy(), lp.relations.copy()
    relations[0] = "<="
    equal_ic[30] = "="  # an incentive row, whose surplus starts >= 0
    scaled, b = lp.A.copy(), lp.b.copy()
    scaled[0] *= 2.0
    b[0] = 2.0
    overlapping = lp.A.copy()
    overlapping[0, 3] = 1.0  # a variable of state 1 in state 0's row
    outside = keys.copy()
    outside[0] = 3 + (keys[1] + 1) % 3  # a variable of state 1, not its key
    all_dominated = np.arange(20) * 3 + 1
    return [(changed(relations=relations), keys), (changed(A=scaled, b=b), keys),
            (changed(A=overlapping), keys), (lp, outside),
            (changed(relations=equal_ic), keys), (lp, keys[:-1]),
            (_direct_lp(_dominated_instance(), 0.0), all_dominated)]


def test_rejected_start_is_the_cold_solve():
    for lp, keys in _rejected_starts():
        assert lp_module._gub(lp, keys.copy()) is None
        out = solve(lp, keys=keys)
        assert out.start == "cold" and out.pivots[0] > 0
        assert _as_bytes(out) == _as_bytes(solve(lp))


def test_start_on_general_programs():
    # keys=[] on a "<=" program with b >= 0 starts from the slack basis
    lp = row_lp([1.0, 2.0], [([1.0, 0.0], "<=", 3.0), ([1.0, 1.0], "<=", 4.0),
                             ([0.0, 1.0], "<=", 5.0)])
    out = solve(lp, keys=[])
    assert out.start == "crash" and out.value == pytest.approx(8.0, abs=1e-12)
    # two unit "=" rows, then a "<=" and a ">=" working row
    lp = row_lp([1.0, 2.0, 3.0, 1.0], [([1.0, 1.0, 0.0, 0.0], "=", 1.0),
                                       ([0.0, 0.0, 1.0, 1.0], "=", 1.0),
                                       ([0.0, 1.0, 1.0, 0.0], "<=", 1.5),
                                       ([1.0, 0.0, 0.0, 1.0], ">=", 0.25)])
    out = solve(lp, keys=[0, 3])
    assert out.start == "crash" and out.pivots[1] > 0
    assert out.value == pytest.approx(4.5, abs=1e-12)
    _assert_certified(lp, out)
    assert solve(lp, keys=[1, 2]).start == "cold"  # x1 + x2 = 2 breaks row 2
    assert solve(lp, keys=[0, 0]).start == "cold"  # variable 0 is not in row 1
    assert solve(row_lp([1.0], [([1.0], "=", 3.0)]), keys=[0]).pivots == (0, 0)


def _random_direct_case(rng):
    """A random (instance, epsilon): receiver ties, zero-probability states,
    epsilon > 0, n = 1 (no incentive rows) and S = 1 all occur."""
    S = 1 if rng.random() < 0.15 else int(rng.integers(2, 40))
    n = int(rng.integers(1, 6))
    inst = fixtures.random_explicit(rng, S, n, nonnegative=bool(rng.integers(2)))
    probs, receiver = inst.state_probs.copy(), inst.receiver_payoffs
    if rng.random() < 0.5:
        probs[rng.random(S) < 0.3] = 0.0
        probs[rng.integers(S)] += 0.5
        probs /= probs.sum()
    if rng.random() < 0.5:
        receiver = np.round(receiver * 2.0) / 2.0
    return (ExplicitInstance(probs, inst.sender_payoffs, receiver),
            float(rng.choice([0.0, 0.05, 0.2])))


def test_started_solve_matches_cold_solve_on_random_programs():
    rng = np.random.default_rng(1967)
    corners, pivots = set(), 0
    for _ in range(200):
        inst, eps = _random_direct_case(rng)
        lp = _direct_lp(inst, eps)
        started, cold = solve(lp, keys=_honest_keys(inst)), solve(lp)
        assert started.start == "crash" and cold.start == "cold"
        assert started.pivots[0] == 0
        pivots += started.pivots[1]
        _assert_certified(lp, started)
        _assert_certified(lp, cold)
        assert started.value == pytest.approx(cold.value, abs=1e-9)
        corners.add((inst.state_count == 1, inst.action_count == 1))
    assert corners == {(False, False), (False, True), (True, False), (True, True)}
    assert pivots == 2006  # the pivot rule's path, free swaps taken in blocks or not


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_started_solve_matches_highs_on_729_states(seed):
    pytest.importorskip("scipy")
    inst = expand_product(fixtures.random_iid(np.random.default_rng(seed),
                                              actions=6, types=3))
    assert inst.state_count == 729
    pivots = 0
    for eps in (0.0, 0.05):
        lp = _direct_lp(inst, eps)
        out = solve(lp, keys=_honest_keys(inst))
        assert out.start == "crash"
        _assert_certified(lp, out)
        assert out.value == pytest.approx(-_highs(lp).fun, abs=1e-7)
        pivots += out.pivots[1]
    assert pivots == {1: 0, 2: 124, 3: 1295}[seed]  # the pivot rule's path


def test_free_swaps_run_in_blocks(monkeypatch):
    inst = fixtures.random_explicit(np.random.default_rng(300), 300, 3)
    lp = _direct_lp(inst, 0.0)
    cold = solve(lp)
    ratio_tests = []
    leave = lp_module._PivotRule.leave

    def counted(self, *args):
        ratio_tests.append(1)
        return leave(self, *args)

    monkeypatch.setattr(lp_module._PivotRule, "leave", counted)
    out = solve(lp, keys=_honest_keys(inst))
    assert out.start == "crash"
    _assert_certified(lp, out)
    assert out.value == pytest.approx(cold.value, abs=1e-9)
    # one ratio test per pivot outside the blocks, whose swaps take none
    assert 0 < 2 * len(ratio_tests) < out.pivots[1]


def test_crash_solve_that_fails_is_redone_cold(monkeypatch):
    inst = fixtures.random_explicit(np.random.default_rng(9), 30, 3)
    lp = _direct_lp(inst, 0.05)
    cold = solve(lp)
    factorizations = []
    inv = np.linalg.inv

    def failing(a):
        # the first factorization installs the start; a later one is the
        # GUB loop's refactorization, which now fails
        factorizations.append(a.shape)
        if len(factorizations) > 1:
            raise np.linalg.LinAlgError("singular working basis")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing)
    monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", 1)
    out = solve(lp, keys=_honest_keys(inst))
    assert len(factorizations) == 2
    assert out.start == "cold" and _as_bytes(out) == _as_bytes(cold)
    # a started solve that ends unbounded is redone cold, and so ends unbounded
    monkeypatch.undo()  # with inv still failing, the start would be rejected
    lp = row_lp([1.0, 1.0, 1.0], [([1.0, 1.0, 0.0], "=", 1.0)])
    assert lp_module._gub(lp, np.array([0])).status == "unbounded"
    out = solve(lp, keys=[0])
    assert out.status == "unbounded" and out.start == "cold"
    assert _as_bytes(out) == _as_bytes(solve(lp))


@pytest.mark.parametrize("start", [[[0]], [0, 1, 0], [0.0], [-1], [2]])
def test_malformed_start_is_rejected(start):
    # keys that are 2-D, longer than the program has rows, not integers,
    # negative, or past the last variable
    lp = row_lp([1.0, 1.0], [([1.0, 0.0], "<=", 1.0), ([0.0, 1.0], "<=", 1.0)])
    with pytest.raises(ValidationError, match="keys"):
        solve(lp, keys=start)
