"""Verification harness: concavification, realizability, simulation."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from persuasion import fixtures, suites
from persuasion.approx import IndependentSignalSampler
from persuasion.blackbox import BlackboxSampler, ExplicitOracle
from persuasion.errors import InstanceTooLargeError, ValidationError
from persuasion.exact import expand_product, honest_scheme, no_information_scheme, solve_exact
from persuasion.iid import Signature, signature_of, solve_s_signature, implement_s_signature
from persuasion.model import (DirectScheme, ExplicitInstance, IIDInstance, InverseCDF,
                              best_response, best_response_many)
from persuasion.verify import (
    BLOCK_TRIALS,
    DirectSchemeSampler,
    ExplicitSource,
    IIDSource,
    OracleSource,
    _arrangement_vertices,
    concavification_value,
    monte_carlo_eval,
    realizability_check,
)


# ---------------------------------------------------------------------------
# concavification


def test_prosecutor_envelope():
    # step function through (0,0) and (1/2,1); chord at prior 1/3 gives 2/3
    assert concavification_value(fixtures.prosecutor()) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )


def test_constant_sender_payoff():
    inst = ExplicitInstance(
        [0.3, 0.7], [[0.4, 0.4], [0.4, 0.4]], [[1.0, 0.0], [0.0, 1.0]]
    )
    assert concavification_value(inst) == pytest.approx(0.4, abs=1e-12)


def test_aligned_payoffs_full_information():
    rng = np.random.default_rng(91)
    for _ in range(5):
        pay = rng.uniform(-1, 1, (2, 3))
        p = rng.uniform(0.2, 0.8)
        inst = ExplicitInstance([p, 1 - p], pay, pay)
        expected = p * pay[0].max() + (1 - p) * pay[1].max()
        assert concavification_value(inst) == pytest.approx(expected, abs=1e-9)


def test_two_state_agreement_with_exact_solver():
    rng = np.random.default_rng(92)
    for _ in range(20):
        inst = fixtures.random_explicit(rng, 2, int(rng.integers(1, 5)))
        assert concavification_value(inst) == pytest.approx(
            solve_exact(inst).value, abs=1e-6
        )


def test_three_state_agreement_with_exact_solver():
    lam = fixtures.three_action_shifted(0.1)
    assert concavification_value(lam) == pytest.approx(
        solve_exact(lam).value, abs=1e-9
    )
    rng = np.random.default_rng(93)
    for _ in range(6):
        inst = fixtures.random_explicit(rng, 3, int(rng.integers(2, 4)))
        assert concavification_value(inst) == pytest.approx(
            solve_exact(inst).value, abs=1e-9
        )
    # the resolution argument is accepted and ignored
    assert concavification_value(inst, 8) == concavification_value(inst)


def _integer_instance(rng, states, aligned):
    """Payoffs in {-1, 0, 1}: ties, coincident loci and zero normals are
    common. Aligned instances give the receiver the sender's payoffs."""
    n = int(rng.integers(1, 5))
    s = rng.integers(-1, 2, (states, n)).astype(float)
    r = s if aligned else rng.integers(-1, 2, (states, n)).astype(float)
    return ExplicitInstance(fixtures.random_simplex(rng, states), s, r)


@pytest.mark.parametrize("states", [1, 2, 3])
def test_degenerate_integer_payoffs_agree_with_exact_solver(states):
    rng = np.random.default_rng([94, states])
    for k in range(40):
        inst = _integer_instance(rng, states, aligned=k % 4 == 0)
        assert concavification_value(inst) == pytest.approx(
            solve_exact(inst).value, abs=1e-9
        )


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_envelope_scales_with_payoffs(factor):
    rng = np.random.default_rng(97)
    for _ in range(120):
        inst = fixtures.random_explicit(rng, int(rng.integers(1, 4)),
                                        int(rng.integers(1, 5)))
        scaled = ExplicitInstance(inst.state_probs, inst.sender_payoffs * factor,
                                  inst.receiver_payoffs * factor)
        assert concavification_value(scaled) == pytest.approx(
            factor * concavification_value(inst), rel=1e-12
        )


def _loop_breakpoints(instance):
    """Candidate posteriors of the two-state construction the vertex
    enumeration replaced: the switching breakpoints and the two ends."""
    r, s = instance.receiver_payoffs, instance.sender_payoffs
    ps = [0.0, 1.0]
    for i, j in itertools.combinations(range(instance.action_count), 2):
        for mat in (r, s):
            d0, d1 = mat[0, i] - mat[0, j], mat[1, i] - mat[1, j]
            if d0 != d1 and 0.0 < d0 / (d0 - d1) < 1.0:
                ps.append(d0 / (d0 - d1))
    return np.array([[1.0 - p, p] for p in ps])


def _loop_intersections(instance):
    """Pairwise locus intersections and locus-facet intersections of the
    three-state construction the vertex enumeration replaced."""
    r, s = instance.receiver_payoffs, instance.sender_payoffs
    normals = []
    for i, j in itertools.combinations(range(instance.action_count), 2):
        normals += [r[:, i] - r[:, j], s[:, i] - s[:, j]]
    pts = [np.eye(3)[k] for k in range(3)]
    systems = [(np.array([d, np.ones(3), np.eye(3)[k]]), [0.0, 1.0, 0.0])
               for d in normals for k in range(3)]
    systems += [(np.array([d, d2, np.ones(3)]), [0.0, 0.0, 1.0])
                for a, d in enumerate(normals) for b, d2 in enumerate(normals) if a != b]
    for rows, rhs in systems:
        try:
            p = np.linalg.solve(rows, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(p >= -1e-12) and abs(p.sum() - 1.0) < 1e-9:
            pts.append(np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum())
    return np.array(pts)


def test_vertices_contain_the_loop_candidates():
    rng = np.random.default_rng(96)
    cases = [fixtures.prosecutor(), fixtures.three_action_base(),
             fixtures.three_action_shifted(0.1)]
    cases += [fixtures.random_explicit(rng, S, n) for S in (2, 3) for n in (1, 2, 3, 4)
              for _ in range(3)]
    cases += [_integer_instance(rng, S, aligned=k % 4 == 0) for S in (2, 3)
              for k in range(12)]
    for inst in cases:
        loop = (_loop_breakpoints if inst.state_count == 2 else _loop_intersections)(inst)
        vertices = _arrangement_vertices(inst)
        gaps = np.abs(loop[:, None, :] - vertices[None, :, :]).max(axis=2).min(axis=1)
        assert gaps.max() <= 1e-12


def test_rejects_more_than_three_states():
    with pytest.raises(InstanceTooLargeError):
        concavification_value(fixtures.random_explicit(
            np.random.default_rng(0), 4, 2))


# ---------------------------------------------------------------------------
# realizability


def test_signature_round_trip_is_realizable():
    inst = fixtures.investor()
    sig = signature_of(inst, fixtures.investor_optimal_scheme(inst))
    assert realizability_check(sig, inst)


def test_wrong_marginals_are_rejected():
    inst = fixtures.investor()
    M = signature_of(inst, fixtures.investor_optimal_scheme(inst)).matrices
    assert not realizability_check(Signature(M * 0.9), inst)


def test_infeasible_signature_is_rejected():
    # signal 0 claims to fire exactly when action 0 has type 0 AND exactly
    # when action 1 has type 0; the types are independent coins, so both
    # claims cannot hold with each signal firing half the time
    inst = IIDInstance(2, [0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
    M = np.array([
        [[0.5, 0.0], [0.5, 0.0]],
        [[0.0, 0.5], [0.0, 0.5]],
    ])
    assert not realizability_check(Signature(M), inst)
    honest = np.array([
        [[0.5, 0.0], [0.25, 0.25]],
        [[0.0, 0.5], [0.25, 0.25]],
    ])
    assert realizability_check(Signature(honest), inst)


def test_solver_schemes_are_always_realizable():
    rng = np.random.default_rng(99)
    from persuasion.iid import symmetrize

    for _ in range(5):
        inst = fixtures.random_iid(rng, max_actions=3, max_types=3)
        scheme = solve_exact(expand_product(inst)).scheme
        assert realizability_check(signature_of(inst, scheme), inst)
        assert realizability_check(
            signature_of(inst, symmetrize(inst, scheme)), inst
        )


def test_two_signal_delegation():
    from persuasion.khintchine import TwoSignalSignature

    sig = TwoSignalSignature(np.full((2, 2), 0.25), np.full((2, 2), 0.25))
    assert realizability_check(sig)


# ---------------------------------------------------------------------------
# monte carlo


def _full_information(inst):
    return DirectSchemeSampler(honest_scheme(inst))


def _no_information(inst):
    return DirectSchemeSampler(no_information_scheme(inst))


def test_investor_reference_evaluations():
    inst = fixtures.investor()
    full = expand_product(inst)
    src = ExplicitSource(full)
    rng = np.random.default_rng(94)
    trials = 100000
    rep_full = monte_carlo_eval(_full_information(full), src, trials, rng)
    assert abs(rep_full.mean_sender_utility - 1.0 / 3.0) <= 3 * rep_full.std_error
    rep_none = monte_carlo_eval(_no_information(full), src, trials, rng)
    assert abs(rep_none.mean_sender_utility - 1.0 / 3.0) <= 3 * rep_none.std_error
    rep_opt = monte_carlo_eval(
        DirectSchemeSampler(fixtures.investor_optimal_scheme(inst)), src, trials, rng
    )
    assert abs(rep_opt.mean_sender_utility - 5.0 / 9.0) <= 3 * rep_opt.std_error


def test_deterministic_given_seed():
    inst = fixtures.investor()
    full = expand_product(inst)
    src = ExplicitSource(full)
    sampler = DirectSchemeSampler(fixtures.investor_optimal_scheme(inst))
    a = monte_carlo_eval(sampler, src, 5000, np.random.default_rng(95))
    b = monte_carlo_eval(sampler, src, 5000, np.random.default_rng(95))
    assert a.mean_sender_utility == b.mean_sender_utility
    np.testing.assert_array_equal(a.signal_counts, b.signal_counts)


def test_follow_rate_of_ic_scheme():
    # the solver's vertex can leave the receiver exactly indifferent, so a
    # deviation is acceptable only when the empirical slack is a tie up to
    # sampling noise
    inst = fixtures.investor()
    ssig, _ = solve_s_signature(inst)
    sampler = implement_s_signature(inst, ssig)
    rep = monte_carlo_eval(sampler, IIDSource(inst), 200000,
                           np.random.default_rng(96))
    bad = rep.ic_slack_mean < 0
    assert np.all(np.abs(rep.ic_slack_mean[bad]) <= 3 * rep.ic_slack_se[bad])


def test_follow_rate_with_strict_preferences():
    # the reference investor scheme leaves the receiver a strict 0.044
    # posterior margin, so recommendations are always followed
    inst = fixtures.investor()
    full = expand_product(inst)
    sampler = DirectSchemeSampler(fixtures.investor_optimal_scheme(inst))
    rep = monte_carlo_eval(sampler, ExplicitSource(full), 100000,
                           np.random.default_rng(98))
    assert rep.follow_rate == 1.0


def test_slack_estimates_match_expected_values():
    # single-state source: slacks are deterministic payoff differences
    inst = ExplicitInstance([1.0], [[0.2, 0.9]], [[0.5, 0.4]])
    src = ExplicitSource(inst)
    scheme = DirectScheme([[0.0, 1.0]])
    rep = monte_carlo_eval(DirectSchemeSampler(scheme), src, 1000,
                           np.random.default_rng(97))
    assert rep.ic_slack_mean[1, 0] == pytest.approx(-0.1, abs=1e-12)
    assert rep.signal_counts[1] == 1000


# ---------------------------------------------------------------------------
# the blocked cell sums and table-driven draws against the code they
# replaced: per-action masks, searchsorted draws, and the where/any/argmax
# independent sampler


def _searchsorted_indices(probs, u):
    return np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1)


def _reference_explicit_draw_many(self, trials, rng):
    return _searchsorted_indices(self.instance.state_probs, rng.random(trials))


def _reference_iid_draw_many(self, trials, rng):
    inst = self.instance
    return _searchsorted_indices(inst.type_probs, rng.random((trials, inst.action_count)))


def _reference_draw_indices(self, k, rng):
    return _searchsorted_indices(self.instance.state_probs, rng.random(k))


def _reference_sample_many_detailed(self, profiles, rng):
    T, n = profiles.shape
    highs = rng.random((T, n)) < self._p_high[profiles]
    keys = rng.random((T, n))
    masked = np.where(highs, keys, -1.0)
    any_high = highs.any(axis=1)
    recs = np.where(any_high, masked.argmax(axis=1), keys.argmax(axis=1))
    return recs, highs


def _reference_monte_carlo_eval(sampler, source, trials, rng):
    n = source.action_count
    batch = source.draw_many(trials, rng)
    sender, receiver = source.payoffs(batch, slice(None))
    if hasattr(sampler, "sample_many"):
        recs = np.asarray(sampler.sample_many(batch, rng), dtype=int)
    else:
        recs = np.fromiter(
            (sampler.sample(state, rng) for state in source.iter_states(batch)),
            dtype=int, count=trials)
    utilities = sender[np.arange(trials), recs]
    slack_mean = np.zeros((n, n))
    slack_se = np.zeros((n, n))
    counts = np.bincount(recs, minlength=n).astype(float)
    followed = 0.0
    for i in range(n):
        mask = recs == i
        if not mask.any():
            continue
        diffs = receiver[mask, i][:, None] - receiver[mask]
        mean_i = diffs.sum(axis=0) / trials
        second = (diffs * diffs).sum(axis=0) / trials
        slack_mean[i] = mean_i
        slack_se[i] = np.sqrt(np.clip(second - mean_i ** 2, 0.0, None) / trials)
        if best_response(receiver[mask].mean(axis=0), sender[mask].mean(axis=0)) == i:
            followed += counts[i]
    return (trials, float(utilities.mean()),
            float(utilities.std(ddof=0) / np.sqrt(trials)),
            slack_mean, slack_se, followed / trials, counts)


def _report_bytes(fields):
    return tuple(f.tobytes() if isinstance(f, np.ndarray) else repr(f) for f in fields)


def _assert_bit_identical(monkeypatch, sampler, source, trials, seed):
    rng = np.random.default_rng(seed)
    rep = monte_carlo_eval(sampler, source, trials, rng)
    with monkeypatch.context() as mp:
        mp.setattr(ExplicitSource, "draw_many", _reference_explicit_draw_many)
        mp.setattr(IIDSource, "draw_many", _reference_iid_draw_many)
        mp.setattr(ExplicitOracle, "draw_indices", _reference_draw_indices)
        mp.setattr(IndependentSignalSampler, "sample_many_detailed",
                   _reference_sample_many_detailed)
        ref_rng = np.random.default_rng(seed)
        ref = _reference_monte_carlo_eval(sampler, source, trials, ref_rng)
    got = (rep.trials, rep.mean_sender_utility, rep.std_error, rep.ic_slack_mean,
           rep.ic_slack_se, rep.follow_rate, rep.signal_counts)
    assert _report_bytes(got) == _report_bytes(ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return rep


def test_iid_evaluations_are_bit_identical_to_reference(monkeypatch):
    rng = np.random.default_rng(150)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(12):
            inst = fixtures.random_iid(rng, actions=int(rng.integers(1, 5)),
                                       types=int(rng.integers(1, 9)),
                                       nonnegative=bool(k % 2))
            trials = (1, 7, 20000)[k % 3]
            _assert_bit_identical(monkeypatch, IndependentSignalSampler(inst),
                                  IIDSource(inst), trials, k)
            if inst.type_count ** inst.action_count <= 64:
                ssig, _ = solve_s_signature(inst)
                _assert_bit_identical(monkeypatch, implement_s_signature(inst, ssig),
                                      IIDSource(inst), trials, 100 + k)


def test_explicit_evaluations_are_bit_identical_to_reference(monkeypatch):
    rng = np.random.default_rng(151)
    for k in range(9):
        inst = fixtures.random_explicit(rng, int(rng.integers(1, 20)),
                                        int(rng.integers(1, 5)))
        src = ExplicitSource(inst)
        trials = (1, 5, 20000)[k % 3]
        for sampler in (DirectSchemeSampler(solve_exact(inst).scheme),
                        _full_information(inst), _no_information(inst)):
            _assert_bit_identical(monkeypatch, sampler, src, trials, k)


def test_never_recommended_action_is_bit_identical_to_reference(monkeypatch):
    inst = fixtures.random_explicit(np.random.default_rng(152), 6, 4)
    rep = _assert_bit_identical(monkeypatch, _no_information(inst),
                                ExplicitSource(inst), 3000, 1)
    assert np.count_nonzero(rep.signal_counts) == 1
    unused = rep.signal_counts == 0
    assert not rep.ic_slack_mean[unused].any() and not rep.ic_slack_se[unused].any()


def test_per_trial_evaluation_is_bit_identical_to_reference(monkeypatch):
    inst = fixtures.random_explicit(np.random.default_rng(153), 5, 3)
    oracle = ExplicitOracle(inst)
    sampler = BlackboxSampler(oracle, epsilon=0.2, K=40)
    for trials, seed in ((1, 0), (25, 1)):
        _assert_bit_identical(monkeypatch, sampler, OracleSource(oracle), trials, seed)


def test_expansion_with_2187_states_is_bit_identical_to_reference(monkeypatch):
    inst = expand_product(fixtures.random_iid(np.random.default_rng(154),
                                              actions=7, types=3))
    assert inst.state_count == 2187
    _assert_bit_identical(monkeypatch, _full_information(inst),
                          ExplicitSource(inst), 20000, 2)


@pytest.mark.parametrize("trials", [BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1,
                                    3 * BLOCK_TRIALS + 7])
def test_block_edges_are_bit_identical_to_reference(monkeypatch, trials):
    rng = np.random.default_rng(159)
    inst = fixtures.random_iid(rng, actions=3, types=3, nonnegative=True)
    ssig, _ = solve_s_signature(inst)
    _assert_bit_identical(monkeypatch, IndependentSignalSampler(inst),
                          IIDSource(inst), trials, 1)
    _assert_bit_identical(monkeypatch, implement_s_signature(inst, ssig),
                          IIDSource(inst), trials, 2)
    explicit = fixtures.random_explicit(rng, 7, 3)
    _assert_bit_identical(monkeypatch, DirectSchemeSampler(solve_exact(explicit).scheme),
                          ExplicitSource(explicit), trials, 3)


def test_evaluation_memory_stays_below_the_payoff_matrices():
    # blocks keep the peak near 25 MB here; gathering the whole batch's payoff
    # matrices and aggregating them in one pass peaks near 54 MB
    inst = fixtures.random_iid(np.random.default_rng(160), actions=4, types=5,
                               nonnegative=True)
    sampler, source = IndependentSignalSampler(inst), IIDSource(inst)
    monte_carlo_eval(sampler, source, 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        monte_carlo_eval(sampler, source, 250_000, np.random.default_rng(161))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6



def test_direct_scheme_sampler_compares_in_blocks():
    # blocks of cumulative rows keep the traced peak near 31 MiB here; one
    # (trials, signals) gather and its comparison peaked near 46 MiB
    inst = expand_product(fixtures.investor())
    sampler, source = DirectSchemeSampler(honest_scheme(inst)), ExplicitSource(inst)
    monte_carlo_eval(sampler, source, 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        monte_carlo_eval(sampler, source, 10 ** 6, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 * 2 ** 20

def test_independent_guarantee_frees_each_instance_before_the_next():
    # with one instance's (10**6, n) draws alive at a time the traced peak is
    # about 89 MiB; kept alive into the next instance's draws, 144 MiB
    tracemalloc.start()
    try:
        result = suites.check_independent_guarantee(count=3, trials=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert result.detail == "3 instances x 1000000 trials, worst margin +0.0666"
    assert peak < 115 * 2 ** 20


def _inverse_cdf_cases():
    rng = np.random.default_rng(155)
    yield "uniform tenths, sum below 1", np.full(10, 0.1)
    yield "zero-probability entries", np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0])
    yield "single state", np.array([1.0])
    yield "dyadic mass on bucket edges", np.array([0.25, 0.5, 0.25])
    yield "half the mass, ending on a bucket edge", np.array([0.25, 0.25])
    yield "tiny negative entry", np.array([0.5, -1e-13, 0.5 + 1e-13])
    yield "unsorted sums", np.array([0.02, 0.02, 0.23, 0.46, -0.12, 0.2, 0.1])
    yield "2187 states", fixtures.random_simplex(rng, 2187)
    for k in (3, 40, 300):
        yield f"random {k}", fixtures.random_simplex(rng, k)


@pytest.mark.parametrize("label,probs", list(_inverse_cdf_cases()),
                         ids=[c[0] for c in _inverse_cdf_cases()])
def test_inverse_cdf_matches_searchsorted(label, probs):
    inv = InverseCDF(probs)
    cum = np.cumsum(probs)
    B = inv._buckets
    inside = cum[cum < 1.0]
    u = np.concatenate([
        np.arange(B) / B,  # every bucket edge exactly
        np.nextafter(np.arange(1, B + 1) / B, 0.0),  # and the last double below it
        inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0),
        [0.0, 1.0 - 2.0 ** -53, cum[-1] if cum[-1] < 1.0 else 0.5],
        np.random.default_rng(156).random(20000),
    ])
    u = u[u < 1.0]  # the domain of rng.random
    got = inv(u)
    want = _searchsorted_indices(probs, u)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    grid = inv(u[:2 * B].reshape(2, B))
    np.testing.assert_array_equal(grid, want[:2 * B].reshape(2, B))


def test_inverse_cdf_bucket_count():
    assert [InverseCDF(np.full(k, 1.0 / k))._buckets for k in (1, 256, 257, 2187, 5000)] == [
        4096, 4096, 8192, 65536, 65536]


def test_inverse_cdf_keeps_one_index_array():
    # the (T, n) intp result and a bool mask of split draws; the float
    # product u * B and its intp copy would add two more arrays of its size
    probs = fixtures.random_simplex(np.random.default_rng(157), 7)
    inv = InverseCDF(probs)
    u = np.random.default_rng(158).random((50_000, 4))
    tracemalloc.start()
    try:
        idx = inv(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(idx, _searchsorted_indices(probs, u))
    assert peak < 1.25 * idx.nbytes


# ---------------------------------------------------------------------------
# malformed sampler output


class _ConstantSampler:
    def __init__(self, value):
        self.value = value

    def sample_many(self, states, rng):
        return np.full(len(states), self.value)


class _ConstantPerTrialSampler:
    def __init__(self, value):
        self.value = value

    def sample(self, state, rng):
        return self.value


@pytest.mark.parametrize("value", [1.7, -1, 2], ids=["non-integer", "negative", "too-large"])
@pytest.mark.parametrize("wrapper", [_ConstantSampler, _ConstantPerTrialSampler],
                         ids=["sample_many", "per-trial"])
def test_bad_recommendations_raise_validation_error(wrapper, value):
    inst = ExplicitInstance([0.5, 0.5], [[0.2, 0.9], [0.1, 0.3]], [[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        monte_carlo_eval(wrapper(value), ExplicitSource(inst), 50,
                         np.random.default_rng(157))


@pytest.mark.parametrize("trials", [2.5, 0, -3, True, "10"])
def test_trials_must_be_a_positive_integer(trials):
    inst = ExplicitInstance([0.5, 0.5], [[0.2, 0.9], [0.1, 0.3]], [[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="trials must be an integer"):
        monte_carlo_eval(_ConstantSampler(1), ExplicitSource(inst), trials,
                         np.random.default_rng(162))


def test_numpy_integer_trials_are_accepted():
    inst = ExplicitInstance([0.5, 0.5], [[0.2, 0.9], [0.1, 0.3]], [[0.5, 0.4], [0.0, 1.0]])
    rep = monte_carlo_eval(_ConstantSampler(1), ExplicitSource(inst), np.int64(7),
                           np.random.default_rng(163))
    assert rep.signal_counts.tolist() == [0.0, 7.0]


def test_integral_float_recommendations_are_accepted():
    inst = ExplicitInstance([0.5, 0.5], [[0.2, 0.9], [0.1, 0.3]], [[0.5, 0.4], [0.0, 1.0]])
    rep = monte_carlo_eval(_ConstantSampler(1.0), ExplicitSource(inst), 50,
                           np.random.default_rng(158))
    assert rep.signal_counts.tolist() == [0.0, 50.0]


def test_information_samplers_recommend_the_prior_and_honest_actions():
    rng = np.random.default_rng(43)
    for n in (1, 2, 4):
        inst = fixtures.random_explicit(rng, 12, n)
        states = np.arange(12)
        honest = best_response_many(inst.receiver_payoffs, inst.sender_payoffs)
        assert np.array_equal(_full_information(inst).sample_many(states, rng), honest)
        prior = best_response(inst.state_probs @ inst.receiver_payoffs,
                              inst.state_probs @ inst.sender_payoffs)
        assert _no_information(inst).sample(0, rng) == prior
        assert np.all(_no_information(inst).sample_many(states, rng) == prior)
