"""Independent component-signal scheme tests."""

import numpy as np
import pytest

from persuasion import fixtures
from persuasion.approx import IndependentSignalSampler, solve_relaxation
from persuasion.errors import ValidationError
from persuasion.model import IIDInstance


def greedy_relaxation_value(inst):
    """Fractional-knapsack oracle for the relaxation when the receiver
    payoff is constant across types: fill mass 1/n greedily by sender
    payoff, capped per type by its prior probability."""
    n = inst.action_count
    order = np.argsort(-inst.sender_payoffs)
    left = 1.0 / n
    total = 0.0
    for j in order:
        take = min(left, inst.type_probs[j])
        total += take * inst.sender_payoffs[j]
        left -= take
        if left <= 1e-15:
            break
    return n * total


def test_relaxation_on_investor():
    x, y, value = solve_relaxation(fixtures.investor())
    assert value == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert x[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    # strictly above the realizable optimum 5/9: realizability binds
    assert value > 5.0 / 9.0 + 1e-3


def test_relaxation_single_type():
    inst = IIDInstance(4, [1.0], [0.3], [1.0])
    _, _, value = solve_relaxation(inst)
    assert value == pytest.approx(0.3, abs=1e-9)


def test_relaxation_constant_receiver_payoff_matches_greedy():
    rng = np.random.default_rng(61)
    for _ in range(12):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        inst = IIDInstance(
            n,
            fixtures.random_simplex(rng, m),
            rng.uniform(0, 1, m),
            np.full(m, 0.7),
        )
        _, _, value = solve_relaxation(inst)
        assert value == pytest.approx(greedy_relaxation_value(inst), abs=1e-9)


def test_relaxation_upper_bounds_optimum():
    from persuasion.exact import expand_product, solve_exact
    from persuasion.iid import solve_s_signature

    rng = np.random.default_rng(62)
    for _ in range(8):
        inst = fixtures.random_iid(rng, max_actions=3, max_types=3)
        _, _, relaxed = solve_relaxation(inst)
        assert relaxed >= solve_exact(expand_product(inst)).value - 1e-9
        assert relaxed >= solve_s_signature(inst)[1] - 1e-9


def test_independent_signal_uniform_x():
    inst = fixtures.investor()
    q = inst.type_probs
    sampler = IndependentSignalSampler(inst, q / 2, q / 2)
    rng = np.random.default_rng(63)
    _, highs = sampler.sample_many_detailed(np.tile([0, 2], (30000, 1)), rng)
    assert highs[:, 0].mean() == pytest.approx(0.5, abs=0.02)


def test_independent_signal_deterministic_revelation():
    inst = IIDInstance(2, [0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
    sampler = IndependentSignalSampler(inst, [0.5, 0.0], [0.0, 0.5])
    recs, highs = sampler.sample_many_detailed(np.array([[0, 1], [1, 0]]),
                                               np.random.default_rng(64))
    np.testing.assert_array_equal(highs, [[True, False], [False, True]])
    np.testing.assert_array_equal(recs, [0, 1])


def test_independent_signal_rejects_x_above_q():
    inst = IIDInstance(2, [0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValidationError):
        IndependentSignalSampler(inst, [0.6, 0.0], [0.0, 0.4])


def test_recommendation_rules():
    # type 0 is always HIGH and type 1 never: a HIGH action is recommended
    # when there is one, uniformly among the HIGH ones; otherwise any action
    inst = IIDInstance(3, [0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
    sampler = IndependentSignalSampler(inst, [0.5, 0.0], [0.0, 0.5])
    rng = np.random.default_rng(65)
    assert sampler.sample([0, 1, 1], rng) == 0
    picks = sampler.sample_many(np.tile([1, 1, 1], (4000, 1)), rng)
    assert abs(np.mean(picks == 2) - 1.0 / 3.0) < 0.05
    assert abs(np.mean(picks == 0) - 1.0 / 3.0) < 0.05
    picks = sampler.sample_many(np.tile([0, 0, 1], (4000, 1)), rng)
    assert set(picks) == {0, 1}
    assert abs(np.mean(picks) - 0.5) < 0.05


def test_zero_probability_types_are_rejected():
    inst = IIDInstance(3, [0.5, 0.0, 0.5], [0.0, 9.9, 1.0], [1.0, -5.0, 0.0])
    with pytest.warns(UserWarning):
        sampler = IndependentSignalSampler(inst)
    rng = np.random.default_rng(0)
    assert sampler.sample([0, 2, 2], rng) in (0, 1, 2)
    with pytest.raises(ValidationError, match="zero-probability"):
        sampler.sample([0, 1, 2], rng)
    with pytest.raises(ValidationError, match="zero-probability"):
        sampler.sample_many(np.array([[0, 2, 2], [2, 2, 1]]), rng)


def test_investor_high_marginal_is_half():
    inst = fixtures.investor()
    x, y, _ = solve_relaxation(inst)
    sampler = IndependentSignalSampler(inst, x, y)
    rng = np.random.default_rng(66)
    trials = 100000
    profiles = rng.integers(0, 3, size=(trials, 2))
    _, highs = sampler.sample_many_detailed(profiles, rng)
    p = highs[:, 0].mean()
    se = np.sqrt(p * (1 - p) / trials)
    assert abs(p - 0.5) <= 3 * se + 1e-9


def test_at_least_one_high_probability():
    rng = np.random.default_rng(67)
    inst = fixtures.random_iid(rng, nonnegative=True, actions=3, types=3)
    sampler = IndependentSignalSampler(inst)
    trials = 100000
    profiles = np.searchsorted(
        np.cumsum(inst.type_probs), rng.random((trials, 3))
    ).clip(0, 2)
    _, highs = sampler.sample_many_detailed(profiles, rng)
    p = highs.any(axis=1).mean()
    target = 1.0 - (1.0 - 1.0 / 3.0) ** 3
    assert abs(p - target) <= 3 * np.sqrt(target * (1 - target) / trials) + 1e-9


def test_negative_payoffs_warn():
    inst = IIDInstance(2, [0.5, 0.5], [-1.0, 1.0], [0.2, 0.8])
    with pytest.warns(UserWarning):
        IndependentSignalSampler(inst)


def test_guarantee_spot_check():
    rng = np.random.default_rng(68)
    inst = fixtures.random_iid(rng, nonnegative=True, actions=3, types=4)
    x, y, bound = solve_relaxation(inst)
    sampler = IndependentSignalSampler(inst, x, y)
    trials = 200000
    profiles = np.searchsorted(
        np.cumsum(inst.type_probs), rng.random((trials, 3))
    ).clip(0, inst.type_count - 1)
    recs = sampler.sample_many(profiles, rng)
    util = inst.sender_payoffs[profiles[np.arange(trials), recs]]
    se = util.std(ddof=0) / np.sqrt(trials)
    ratio = 1.0 - (1.0 - 1.0 / 3.0) ** 3
    assert util.mean() >= ratio * bound - 3 * se
