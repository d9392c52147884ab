"""s-signature solver, Border feasibility, decomposition, symmetrization."""

import itertools
import math

import numpy as np
import pytest

from persuasion import approx, fixtures, iid
from persuasion.approx import solve_relaxation
from persuasion.errors import InfeasibleReducedFormError, ValidationError
from persuasion.exact import expand_product, honest_scheme, profiles_of, solve_exact, type_profiles
from persuasion.iid import (
    AllocationRule,
    AllocationSchemeSampler,
    PriorityMixture,
    SSignature,
    border_feasible,
    decompose_reduced_form,
    implement_s_signature,
    priority_decomposition,
    reduced_form_of,
    s_signature_of,
    signature_of,
    solve_s_signature,
    symmetrize,
)
from persuasion.model import DirectScheme, IIDInstance, audit
from persuasion.verify import IIDSource, allocation_exists_bruteforce, monte_carlo_eval


def assert_valid_ssig(inst, ssig):
    n = inst.action_count
    assert ssig.recommended.sum() == pytest.approx(1.0 / n, abs=1e-9)
    assert ssig.other.sum() == pytest.approx(1.0 / n, abs=1e-9)
    ssig.check_prior(inst.type_probs)
    margin = inst.receiver_payoffs @ (ssig.recommended - ssig.other)
    assert margin >= -1e-9


# ---------------------------------------------------------------------------
# solve_s_signature


def test_investor_value_and_reference_point():
    inst = fixtures.investor()
    ssig, value = solve_s_signature(inst)
    assert value == pytest.approx(5.0 / 9.0, abs=1e-9)
    assert_valid_ssig(inst, ssig)
    tau = ssig.recommended / inst.type_probs
    assert border_feasible(tau, inst.type_probs, 2).feasible
    # the hand-derived optimum (1/9, 5/18, 1/9) attains the same value
    x_ref = np.array([1.0 / 9.0, 5.0 / 18.0, 1.0 / 9.0])
    y_ref = np.array([2.0 / 9.0, 1.0 / 18.0, 2.0 / 9.0])
    assert_valid_ssig(inst, SSignature(x_ref, y_ref, 2))
    assert 2.0 * inst.sender_payoffs @ x_ref == pytest.approx(value, abs=1e-12)


def test_single_type_instance():
    inst = IIDInstance(3, [1.0], [0.7], [0.4])
    ssig, value = solve_s_signature(inst)
    assert value == pytest.approx(0.7, abs=1e-9)
    np.testing.assert_allclose(ssig.recommended, [1.0 / 3.0], atol=1e-9)
    np.testing.assert_allclose(ssig.other, [1.0 / 3.0], atol=1e-9)


def test_aligned_interests_match_honest_value():
    rng = np.random.default_rng(51)
    q = fixtures.random_simplex(rng, 3)
    pay = rng.uniform(0, 1, 3)
    inst = IIDInstance(2, q, pay, pay)
    _, value = solve_s_signature(inst)
    full = expand_product(inst)
    honest = audit(full, honest_scheme(full)).sender_utility
    assert value == pytest.approx(solve_exact(full).value, abs=1e-9)
    assert value == pytest.approx(honest, abs=1e-9)


def test_zero_probability_types_are_dropped():
    inst = IIDInstance(2, [0.5, 0.0, 0.5], [0.0, 9.9, 1.0], [1.0, -5.0, 0.0])
    ssig, value = solve_s_signature(inst)
    assert ssig.recommended[1] == 0.0
    assert ssig.other[1] == 0.0
    ref = IIDInstance(2, [0.5, 0.5], [0.0, 1.0], [1.0, 0.0])
    _, ref_value = solve_s_signature(ref)
    assert value == pytest.approx(ref_value, abs=1e-9)


def test_type_relabeling_invariance():
    rng = np.random.default_rng(52)
    for _ in range(10):
        inst = fixtures.random_iid(rng, max_actions=3, max_types=3)
        perm = rng.permutation(inst.type_count)
        relabeled = IIDInstance(
            inst.action_count,
            inst.type_probs[perm],
            inst.sender_payoffs[perm],
            inst.receiver_payoffs[perm],
        )
        ssig, value = solve_s_signature(inst)
        ssig_p, value_p = solve_s_signature(relabeled)
        assert value_p == pytest.approx(value, abs=1e-9)
        # the relabeled copy of the original optimum attains the same value
        n = inst.action_count
        attained = n * relabeled.sender_payoffs @ ssig.recommended[perm]
        assert attained == pytest.approx(value_p, abs=1e-9)
        assert_valid_ssig(relabeled, SSignature(
            ssig.recommended[perm], ssig.other[perm], n))


def _scan(seed, draws, n_range, m_range):
    """Random i.i.d. instances, nonnegative payoffs on every other draw."""
    rng = np.random.default_rng(seed)
    for k in range(draws):
        n, m = int(rng.integers(*n_range)), int(rng.integers(*m_range))
        yield fixtures.random_iid(rng, actions=n, types=m, nonnegative=bool(k % 2))


def _border_gap(inst, ssig):
    q = inst.type_probs
    return border_feasible(ssig.recommended / q, q, inst.action_count).gap


def test_draw_that_broke_a_held_border_cut_is_certified():
    # Draw 440 of 600 with seed 11, n in [2, 40), m in [1, 12). The LP route
    # with Border cuts ended on a point that broke a cut it already held,
    # by 2.6e-9 > BORDER_TOL, and raised SolverError.
    rng = np.random.default_rng(11)
    for _ in range(441):
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        inst = fixtures.random_iid(rng, actions=n, types=m)
    assert (n, m) == (31, 3)
    ssig, _ = solve_s_signature(inst)
    assert_valid_ssig(inst, ssig)
    assert _border_gap(inst, ssig) <= 1e-12


@pytest.mark.parametrize("seed, draws, n_range, m_range", [
    (11, 600, (2, 40), (1, 12)),
    (300, 1000, (2, 301), (1, 13)),
])
def test_scans_return_certified_optima(seed, draws, n_range, m_range):
    # the LP route with Border cuts raised SolverError on 27 and 41 of these draws
    for inst in _scan(seed, draws, n_range, m_range):
        ssig, value = solve_s_signature(inst)
        assert_valid_ssig(inst, ssig)
        assert _border_gap(inst, ssig) <= 1e-12
        assert value == pytest.approx(
            inst.action_count * inst.sender_payoffs @ ssig.recommended, abs=1e-12)


def _highs_s_signature_value(inst):
    """The s-signature LP with every Border row, solved by SciPy's HiGHS.

    HiGHS's default feasibility tolerance, 1e-7, moves its value by up to
    2e-7 on these draws, so both tolerances are tightened to 1e-10.
    """
    from scipy.optimize import linprog

    n, m = inst.action_count, inst.type_count
    q, xi, rho = inst.type_probs, inst.sender_payoffs, inst.receiver_payoffs
    eye = np.eye(m)
    A_eq = np.vstack([np.kron(np.eye(2), np.ones(m)), np.hstack([eye, (n - 1.0) * eye])])
    b_eq = np.concatenate([[1.0 / n, 1.0 / n], q])
    sets = np.array(list(itertools.product((0.0, 1.0), repeat=m)))[1:-1]
    A_ub = np.vstack([np.concatenate([-rho, rho]),
                      np.hstack([n * sets, np.zeros_like(sets)])])
    b_ub = np.concatenate([[0.0], 1.0 - (1.0 - sets @ q) ** n])
    out = linprog(-np.concatenate([n * xi, np.zeros(m)]), A_ub=A_ub, b_ub=b_ub,
                  A_eq=A_eq, b_eq=b_eq, method="highs",
                  options=dict(primal_feasibility_tolerance=1e-10,
                               dual_feasibility_tolerance=1e-10))
    assert out.status == 0
    return -out.fun


def test_values_match_highs_with_every_border_row():
    for inst in _scan(2015, 300, (1, 60), (1, 9)):
        _, value = solve_s_signature(inst)
        assert value == pytest.approx(_highs_s_signature_value(inst), abs=1e-9)


def test_solvers_make_no_lp_call(monkeypatch):
    import persuasion.lp

    def refuse(*args, **kwargs):
        raise AssertionError("lp.solve was called")

    assert not hasattr(iid, "solve") and not hasattr(approx, "solve")
    monkeypatch.setattr(persuasion.lp, "solve", refuse)
    decomposed = 0
    for inst in _scan(12, 40, (1, 30), (1, 8)):
        ssig, _ = solve_s_signature(inst)
        solve_relaxation(inst)
        implement_s_signature(inst, ssig)
        n, q = inst.action_count, inst.type_probs
        if q.size ** n <= iid.PROFILE_CAP:
            decompose_reduced_form(ssig.recommended / q, q, n)
            decomposed += 1
    assert decomposed > 0


def test_single_action_other_vector_is_the_prior():
    # with one action there is no other action: y = x = q, from both solvers
    inst = IIDInstance(1, [0.2, 0.3, 0.5], [0.4, -1.0, 0.9], [1.0, 0.5, -0.2])
    ssig, value = solve_s_signature(inst)
    assert ssig.recommended.tolist() == [0.2, 0.3, 0.5]
    assert ssig.other.tolist() == [0.2, 0.3, 0.5]
    assert value == pytest.approx(0.2 * 0.4 - 0.3 + 0.5 * 0.9, abs=1e-15)
    x, y, relaxed = solve_relaxation(inst)
    assert x.tolist() == y.tolist() == [0.2, 0.3, 0.5]
    assert relaxed == value


# ---------------------------------------------------------------------------
# Border feasibility


def test_border_uniform_always_feasible():
    rng = np.random.default_rng(53)
    for n in (1, 2, 4):
        q = fixtures.random_simplex(rng, 3)
        assert border_feasible(np.full(3, 1.0 / n), q, n).feasible


def test_border_infeasible_example():
    check = border_feasible([1.0, 0.0], [0.5, 0.5], 2)
    assert not check.feasible
    assert check.violating_set == (0,)
    assert not allocation_exists_bruteforce([1.0, 0.0], [0.5, 0.5], 2)


def test_border_tight_feasible_example():
    # realized by: give to a type-0 bidder uniformly if any, else type-1
    check = border_feasible([0.75, 0.25], [0.5, 0.5], 2)
    assert check.feasible
    assert allocation_exists_bruteforce([0.75, 0.25], [0.5, 0.5], 2)


def test_border_agrees_with_bruteforce():
    rng = np.random.default_rng(54)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        q = fixtures.random_simplex(rng, m)
        tau = fixtures.random_reduced_form(rng, m)
        assert border_feasible(tau, q, n).feasible == \
            allocation_exists_bruteforce(tau, q, n)


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_constant_reduced_form_always_allocates():
    rule = decompose_reduced_form(np.full(3, 0.5), np.full(3, 1.0 / 3.0), 2)
    np.testing.assert_array_equal(rule.probs[:, 2], 0.0)
    got = reduced_form_of(rule, np.full(3, 1.0 / 3.0))
    np.testing.assert_allclose(got, np.full((2, 3), 0.5), rtol=0, atol=1e-12)


def test_decompose_matches_explicit_construction():
    rule = decompose_reduced_form([0.75, 0.25], [0.5, 0.5], 2)
    got = reduced_form_of(rule, np.array([0.5, 0.5]))
    np.testing.assert_allclose(got, [[0.75, 0.25], [0.75, 0.25]], atol=1e-8)


def test_decompose_infeasible_reports_violating_set():
    with pytest.raises(InfeasibleReducedFormError) as err:
        decompose_reduced_form([1.0, 0.0], [0.5, 0.5], 2)
    assert err.value.violating_set == (0,)


def test_decompose_identity_on_random_feasible_draws():
    rng = np.random.default_rng(55)
    done = 0
    while done < 25:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        q = fixtures.random_simplex(rng, m)
        tau = fixtures.random_reduced_form(rng, m)
        if not border_feasible(tau, q, n).feasible:
            continue
        rule = decompose_reduced_form(tau, q, n)
        got = reduced_form_of(rule, q)
        np.testing.assert_allclose(got, np.tile(tau, (n, 1)), atol=1e-8)
        done += 1


# ---------------------------------------------------------------------------
# scheme from allocation


def test_scheme_single_action_always_first_signal():
    inst = IIDInstance(1, [0.6, 0.4], [1.0, 0.0], [1.0, 0.0])
    ssig, _ = solve_s_signature(inst)
    sampler = implement_s_signature(inst, ssig)
    rng = np.random.default_rng(0)
    assert sampler.sample([0], rng) == 0
    assert sampler.sample([1], rng) == 0


def test_scheme_uninformative_signature_statistics():
    inst = IIDInstance(2, [0.5, 0.5], [1.0, 0.0], [0.3, 0.9])
    q = inst.type_probs
    ssig = SSignature(q / 2, q / 2, 2)
    sampler = implement_s_signature(inst, ssig)
    rng = np.random.default_rng(77)
    profiles = rng.integers(0, 2, size=(40000, 2))
    recs = sampler.sample_many(profiles, rng)
    # summing the per-signal joint mass x_j = q_j/n over both signals, the
    # recommended action's type should simply follow the prior
    for j in (0, 1):
        hit = (profiles[np.arange(len(recs)), recs] == j).mean()
        assert hit == pytest.approx(q[j], abs=0.02)
    assert abs((recs == 0).mean() - 0.5) < 0.02


def test_investor_sampler_hits_target_utility():
    inst = fixtures.investor()
    ssig, value = solve_s_signature(inst)
    sampler = implement_s_signature(inst, ssig)
    rng = np.random.default_rng(78)
    trials = 200000
    profiles = rng.integers(0, 3, size=(trials, 2))
    recs = sampler.sample_many(profiles, rng)
    util = inst.sender_payoffs[profiles[np.arange(trials), recs]]
    se = util.std(ddof=0) / np.sqrt(trials)
    assert abs(util.mean() - 5.0 / 9.0) <= 3 * se


# ---------------------------------------------------------------------------
# priority decomposition and the priority sampler


def _explicit_rule(mixture, m, n):
    """The mixture over all m^n profiles, written out profile by profile."""
    profiles = type_profiles([m] * n, iid.PROFILE_CAP)
    probs = np.zeros((profiles.shape[0], n + 1))
    for weight, order in zip(mixture.weights, mixture.orders):
        rank = np.empty(m + 1, dtype=int)
        rank[order] = np.arange(m + 1)
        for t, prof in enumerate(profiles):
            best = rank[prof].min()
            if best > rank[m]:
                probs[t, n] += weight
            else:
                holders = rank[prof] == best
                probs[t, :n] += weight * holders / holders.sum()
    return AllocationRule(profiles, probs)


def _assert_realizes(tau, q, n, atol=1e-9):
    tau, q = np.asarray(tau, dtype=float), np.asarray(q, dtype=float)
    mix = priority_decomposition(tau, q, n)
    assert mix.weights.size <= q.size + 1
    np.testing.assert_allclose(mix.win_masses(q, n), n * q * tau, rtol=0, atol=atol)
    got = reduced_form_of(_explicit_rule(mix, q.size, n), q)
    np.testing.assert_allclose(got, np.tile(tau, (n, 1)), rtol=0, atol=atol)
    return mix


@pytest.mark.parametrize("n, m", [(4, 3), (5, 4), (6, 3), (4, 6), (11, 2)])
def test_decompose_writes_out_the_priority_lottery(n, m):
    # (11, 2) has 2048 profiles, the PROFILE_CAP
    inst = fixtures.random_iid(np.random.default_rng([1412, n, m]), actions=n, types=m)
    ssig, _ = solve_s_signature(inst)
    q = inst.type_probs
    tau = ssig.recommended / q
    rule = decompose_reduced_form(tau, q, n)
    ref = _explicit_rule(priority_decomposition(tau, q, n), m, n)
    np.testing.assert_array_equal(rule.profiles, ref.profiles)
    np.testing.assert_allclose(rule.probs, ref.probs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(reduced_form_of(rule, q), np.tile(tau, (n, 1)),
                               rtol=0, atol=1e-12)


def test_priority_decomposition_of_random_feasible_draws():
    rng = np.random.default_rng(55)
    done = 0
    while done < 40:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        q = fixtures.random_simplex(rng, m)
        tau = fixtures.random_reduced_form(rng, m)
        if not border_feasible(tau, q, n).feasible:
            continue
        _assert_realizes(tau, q, n)
        done += 1


def test_priority_decomposition_of_s_signature_optima():
    rng = np.random.default_rng(56)
    done = 0
    while done < 30:
        inst = fixtures.random_iid(rng, max_actions=5, max_types=6,
                                   nonnegative=bool(done % 2))
        n, m = inst.action_count, inst.type_count
        if m ** n > 256:
            continue
        ssig, _ = solve_s_signature(inst)
        q = inst.type_probs
        mix = _assert_realizes(ssig.recommended / q, q, n)
        # an s-signature always allocates: "keep" comes last in every order
        assert np.all(mix.orders[:, -1] == m)
        # the first rule ranks the types by tau, descending, ties by index
        # (with n = 1 every order is the same vertex, q itself)
        if n > 1:
            np.testing.assert_array_equal(mix.orders[0, :-1],
                                          np.lexsort((np.arange(m), -ssig.recommended / q)))
        done += 1


@pytest.mark.parametrize("tau, q, n", [
    ([0.75, 0.75, 0.25, 0.25], [0.25] * 4, 2),  # ties in tau
    ([0.5, 0.5, 0.5], [0.2, 0.3, 0.5], 2),  # all tied: the uniform lottery
    ([0.3, 0.3, 0.3], [0.2, 0.3, 0.5], 3),  # all tied, some mass kept
    ([0.8, 0.0, 0.3], [0.3, 0.3, 0.4], 2),  # a zero-tau type
    # always allocated, with a zero-tau type: {0, 1} exceeds its Border
    # bound by 0.003^5 = 2.4e-13, inside BORDER_TOL, so no rule realizes
    # this tau exactly; the decomposition carries the gap
    ([(1 - 0.4 ** 5) / 3.0, 0.4 ** 5 / (5 * 0.397), 0.0], [0.6, 0.397, 0.003], 5),
    ([0.0, 0.0], [0.5, 0.5], 3),  # the item is never handed out
    ([0.7, 0.0, 0.0], [0.5, 0.25, 0.25], 2),
    ([0.2, 0.7, 1.0], [0.5, 0.3, 0.2], 1),  # n = 1
    ([1.0, 1.0], [0.5, 0.5], 1),
    ([0.25], [1.0], 4),  # m = 1, always allocated
    ([0.1], [1.0], 3),  # m = 1, mostly kept
    ([0.75, 0.25], [0.5, 0.5], 2),  # tight: type 0 first, else type 1
])
def test_priority_decomposition_edge_cases(tau, q, n):
    _assert_realizes(tau, q, n)


def test_priority_decomposition_misses_z_by_at_most_the_border_gap():
    # 40 draws of a scan with n in [2, 300], m in [1, 12] (seed 300). A
    # certified tau may exceed a Border bound by up to BORDER_TOL, and no
    # rule can close that gap; anything beyond it is the decomposition's.
    for inst in _scan(300, 40, (2, 301), (1, 13)):
        n, q = inst.action_count, inst.type_probs
        ssig, _ = solve_s_signature(inst)
        tau = ssig.recommended / q
        gap = max(border_feasible(tau, q, n).gap, 0.0)
        got = priority_decomposition(tau, q, n).win_masses(q, n)
        assert np.max(np.abs(got - n * q * tau)) <= gap + 1e-14


def test_priority_decomposition_rejects_infeasible_reduced_form():
    with pytest.raises(InfeasibleReducedFormError) as err:
        priority_decomposition([1.0, 0.0], [0.5, 0.5], 2)
    assert err.value.violating_set == (0,)


@pytest.mark.parametrize("tau, q", [
    ([np.nan, 0.5], [0.5, 0.5]),
    ([0.5, np.inf], [0.5, 0.5]),
    ([0.5, 0.5], [np.nan, 0.5]),
    ([0.5, 0.5], [0.0, 1.0]),
])
def test_border_and_decomposition_reject_non_finite_input(tau, q):
    # a NaN once passed the Border check as feasible
    for call in (border_feasible, priority_decomposition):
        with pytest.raises(ValidationError):
            call(tau, q, 2)


def test_priority_sampler_type_frequencies_match_n_x():
    # the recommended action's type is j with probability n * x_j
    rng = np.random.default_rng(59)
    for n, m in ((2, 5), (4, 3), (40, 6)):
        inst = fixtures.random_iid(rng, actions=n, types=m)
        ssig, _ = solve_s_signature(inst)
        sampler = implement_s_signature(inst, ssig)
        trials = 100_000
        profiles = IIDSource(inst).draw_many(trials, rng)
        recs = sampler.sample_many(profiles, rng)
        freq = np.bincount(profiles[np.arange(trials), recs], minlength=m) / trials
        z = n * ssig.recommended
        se = np.sqrt(z * (1.0 - z) / trials)
        assert np.all(np.abs(freq - z) <= 4 * se + 1e-12)
        # and the recommendation is uniform over the actions
        share = np.bincount(recs, minlength=n) / trials
        assert np.all(np.abs(share - 1.0 / n) <= 4 * np.sqrt(1.0 / n / trials))


def test_priority_sampler_rejects_a_mismatched_mixture():
    inst = fixtures.investor()
    ssig, _ = solve_s_signature(inst)
    good = implement_s_signature(inst, ssig).mixture
    uniform_rank = PriorityMixture([1.0], [[0, 1, 2, 3]])
    with pytest.raises(ValidationError, match="does not match"):
        AllocationSchemeSampler(inst, ssig, uniform_rank)
    keeps_item = PriorityMixture([1.0], [[1, 3, 0, 2]])
    with pytest.raises(ValidationError, match="always allocate"):
        AllocationSchemeSampler(inst, ssig, keeps_item)
    assert AllocationSchemeSampler(inst, ssig, good).mixture is good


def test_investor_mixture_is_the_unique_priority_lottery():
    # xi = (0, 1, 0) ties low and high; rho = (0, 1.1, 2) breaks the tie, so
    # the optimum is the one greedy vertex of the order moderate, high, low:
    # n * x = (1/9, 5/9, 1/3), and the lottery is that single order
    inst = fixtures.investor()
    ssig, value = solve_s_signature(inst)
    np.testing.assert_allclose(ssig.recommended, [1 / 18, 5 / 18, 1 / 6], atol=1e-15)
    assert value == pytest.approx(5 / 9, abs=1e-15)
    mix = implement_s_signature(inst, ssig).mixture
    np.testing.assert_array_equal(mix.weights, [1.0])
    np.testing.assert_array_equal(mix.orders, [[1, 2, 0, 3]])


def test_zero_probability_types_rank_last_and_are_rejected():
    inst = IIDInstance(3, [0.5, 0.0, 0.5], [0.0, 9.9, 1.0], [1.0, -5.0, 0.0])
    ssig, _ = solve_s_signature(inst)
    sampler = implement_s_signature(inst, ssig)
    assert np.all(sampler.mixture.orders[:, -2:] == [1, 3])
    assert sampler.sample([0, 2, 2], np.random.default_rng(0)) in (1, 2)
    with pytest.raises(ValidationError, match="zero-probability"):
        sampler.sample([0, 1, 2], np.random.default_rng(0))


# Paper scale: n in the hundreds, where the m^n profiles cannot be listed.
# The standard error is the exact one implied by the s-signature (the type
# of the recommended action is j with probability n * x_j): the empirical
# one reads 0 when the trials miss a rare type.
PAPER_CASES = [(n, k) for n in (50, 100, 300) for k in range(4)]


@pytest.mark.parametrize("n, k", PAPER_CASES)
def test_implemented_value_at_paper_scale(n, k):
    rng = np.random.default_rng([1503, n])
    for j in range(k + 1):
        inst = fixtures.random_iid(rng, actions=n, types=int(rng.integers(2, 13)),
                                   nonnegative=bool(j % 2))
    ssig, value = solve_s_signature(inst)
    trials = 10 ** 6 // n
    rep = monte_carlo_eval(implement_s_signature(inst, ssig), IIDSource(inst), trials,
                           np.random.default_rng([1503, n, k]))
    xi = inst.sender_payoffs
    se = np.sqrt(max(n * ssig.recommended @ xi ** 2 - value ** 2, 0.0) / trials)
    assert abs(rep.mean_sender_utility - value) <= 3 * se + 1e-12


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_preserves_value_and_evens_signature():
    inst = fixtures.investor()
    full = expand_product(inst)
    sol = solve_exact(full)
    sym = symmetrize(inst, sol.scheme)
    assert audit(full, sym).sender_utility == pytest.approx(sol.value, abs=1e-12)
    M = signature_of(inst, sym).matrices
    np.testing.assert_allclose(M[0, 0], M[1, 1], atol=1e-12)
    np.testing.assert_allclose(M[0, 1], M[1, 0], atol=1e-12)


def test_symmetrize_fixed_point():
    inst = fixtures.investor()
    once = symmetrize(inst, fixtures.investor_optimal_scheme(inst))
    twice = symmetrize(inst, once)
    np.testing.assert_allclose(twice.phi, once.phi, atol=1e-12)


def test_symmetrize_honest_scheme_keeps_utility():
    rng = np.random.default_rng(57)
    for _ in range(6):
        inst = fixtures.random_iid(rng, max_actions=3, max_types=3)
        full = expand_product(inst)
        scheme = honest_scheme(full)
        sym = symmetrize(inst, scheme)
        assert audit(full, sym).sender_utility == pytest.approx(
            audit(full, scheme).sender_utility, abs=1e-9
        )


def _symmetrize_by_permutations(inst, scheme):
    """Reference: the average of the n! relabeled copies of a scheme."""
    n, m = inst.action_count, inst.type_count
    profiles = profiles_of(inst)
    out = np.zeros_like(scheme.phi)
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        inv = np.empty(n, dtype=int)
        inv[p] = np.arange(n)
        # signal i on profile theta is signal inv[i] on the profile whose
        # slot j holds theta[p[j]]
        rows = np.ravel_multi_index(profiles[:, p].T, (m,) * n)
        out += scheme.phi[rows][:, inv]
    return out / math.factorial(n)


def test_symmetrize_matches_the_permutation_average():
    rng = np.random.default_rng(58)
    for n in range(1, 6):
        for m in range(1, 4):
            inst = fixtures.random_iid(rng, actions=n, types=m)
            full = expand_product(inst)
            phi = rng.dirichlet(np.ones(n), size=full.state_count)
            for scheme in (DirectScheme(phi), solve_exact(full).scheme):
                np.testing.assert_allclose(symmetrize(inst, scheme).phi,
                                           _symmetrize_by_permutations(inst, scheme),
                                           rtol=0.0, atol=1e-12)


def test_symmetrize_beyond_factorial_scale():
    inst = fixtures.random_iid(np.random.default_rng(59), actions=8, types=2)
    full = expand_product(inst)
    sol = solve_exact(full)
    sym = symmetrize(inst, sol.scheme)
    after = audit(full, sym)
    assert after.sender_utility == pytest.approx(sol.value, abs=1e-12)
    assert after.is_ic and after.min_slack >= sol.audit.min_slack - 1e-12
    M = signature_of(inst, sym).matrices
    off = ~np.eye(8, dtype=bool)
    assert np.max(np.abs(M[np.eye(8, dtype=bool)] - M[0, 0])) <= 1e-12
    assert np.max(np.abs(M[off] - M[0, 1])) <= 1e-12


def test_s_signature_of_symmetrized_scheme():
    inst = fixtures.investor()
    sym = symmetrize(inst, fixtures.investor_optimal_scheme(inst))
    ssig = s_signature_of(inst, sym)
    assert_valid_ssig(inst, ssig)
    value = 2.0 * inst.sender_payoffs @ ssig.recommended
    assert value == pytest.approx(5.0 / 9.0, abs=1e-12)
