"""Sample-and-solve scheme tests."""

import math
import warnings

import numpy as np
import pytest

from persuasion import fixtures
from persuasion.blackbox import (
    BlackboxSampler,
    ExplicitOracle,
    sample_count,
    solve_empirical_lp,
)
from persuasion.errors import ValidationError
from persuasion.exact import expand_product, solve_exact


def test_sample_count_golden_values():
    # re-derive before freezing: 256 n^2 / eps^4 * ln(4 n / eps)
    assert math.ceil(256 * 4 / 0.5 ** 4 * math.log(4 * 2 / 0.5)) == 45427
    assert sample_count(2, 0.5) == 45427
    assert math.ceil(256 * math.log(4.0)) == 355
    assert sample_count(1, 1.0) == 355


def test_sample_count_monotonicity_and_domain():
    assert sample_count(2, 0.25) > sample_count(2, 0.5)
    assert sample_count(3, 0.5) > sample_count(2, 0.5)
    with pytest.raises(ValidationError):
        sample_count(2, 0.0)
    with pytest.raises(ValidationError):
        sample_count(2, -0.1)
    with pytest.raises(ValidationError):
        sample_count(2, 1.5)


def test_empirical_lp_single_state():
    # hand-solved two-variable LP: action 1 is within eps of best and
    # sender-preferred, so all mass goes there
    scheme = solve_empirical_lp(
        (np.array([[0.2, 0.9]]), np.array([[0.5, 0.4]])), epsilon=0.1
    )
    assert scheme.value == pytest.approx(0.9, abs=1e-9)
    np.testing.assert_allclose(scheme.phi, [[0.0, 1.0]], atol=1e-9)


def test_empirical_lp_identical_samples():
    s = np.tile([0.3, 0.8, 0.1], (5, 1))
    r = np.tile([0.6, 0.55, 0.9], (5, 1))
    scheme = solve_empirical_lp((s, r), epsilon=0.4)
    # receiver-eps-acceptable actions are those within 0.4 of payoff 0.9;
    # the sender-best among {0 (0.6), 1 (0.55), 2 (0.9)} is action 1
    assert scheme.value == pytest.approx(0.8, abs=1e-9)
    np.testing.assert_allclose(scheme.phi, np.tile([0, 1, 0], (5, 1)), atol=1e-9)


def test_empirical_lp_full_support_recovers_exact_optimum():
    inst = fixtures.investor_blackbox_instance()
    scheme = solve_empirical_lp(
        (inst.sender_payoffs, inst.receiver_payoffs), epsilon=0.0
    )
    assert scheme.value == pytest.approx(solve_exact(inst).value, abs=1e-9)
    assert scheme.value == pytest.approx(5.0 / 18.0, abs=1e-9)


def test_empirical_lp_value_monotone_in_epsilon():
    rng = np.random.default_rng(71)
    s = rng.uniform(-1, 1, (12, 3))
    r = rng.uniform(-1, 1, (12, 3))
    values = [solve_empirical_lp((s, r), e).value for e in (0.0, 0.1, 0.5, 2.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_empirical_lp_rejects_out_of_range_payoffs():
    with pytest.raises(ValidationError):
        solve_empirical_lp((np.array([[2.0]]), np.array([[0.0]])), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_empirical_lp_rejects_non_finite_payoffs(bad):
    with pytest.raises(ValidationError, match="sample payoffs"):
        solve_empirical_lp((np.array([[bad]]), np.array([[0.0]])), 0.1)
    with pytest.raises(ValidationError, match="sample payoffs"):
        solve_empirical_lp((np.array([[0.0]]), np.array([[bad]])), 0.1)


def test_oracle_single_draw_and_safety_flag():
    oracle = ExplicitOracle(fixtures.rain_shine_mixed(0.1))
    s, r = oracle.draw(np.random.default_rng(3))
    assert s.shape == r.shape == (2,)
    assert np.abs(s).max() <= 1.0 and np.abs(r).max() <= 1.0


def test_oracle_rejects_out_of_range_instance():
    inst = expand_product(fixtures.investor())  # receiver payoffs reach 2
    with pytest.raises(ValidationError):
        ExplicitOracle(inst)


def test_blackbox_k1_recommends_sender_best_acceptable():
    inst = fixtures.rain_shine_mixed(0.1)
    oracle = ExplicitOracle(inst)
    rng = np.random.default_rng(72)
    state = (inst.sender_payoffs[0], inst.receiver_payoffs[0])  # rainy
    # eps = 0.2 makes walking acceptable on a rainy day (gap is only 0.1)
    assert BlackboxSampler(oracle, 0.2, 1).sample(state, rng) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # exact IC on the single rainy state forces the drive recommendation
        assert BlackboxSampler(oracle, 0.0, 1).sample(state, rng) == 1


@pytest.mark.parametrize("state", [
    ([1.0], [0.0]),                    # would broadcast into a made-up state
    (np.zeros((2, 2)), np.zeros((2, 2))),
    ([0.1, 0.2, 0.3], [0.0, 0.5, 1.0]),
], ids=["length-1", "2x2", "length-3"])
def test_blackbox_rejects_a_state_of_the_wrong_shape(state):
    oracle = ExplicitOracle(fixtures.rain_shine_mixed(0.1))
    sampler = BlackboxSampler(oracle, epsilon=0.2, K=5)
    with pytest.raises(ValidationError, match="length 2"):
        sampler.sample(state, np.random.default_rng(77))


def test_empirical_lp_ignores_sample_order():
    rng = np.random.default_rng(78)
    oracle = ExplicitOracle(fixtures.investor_blackbox_instance())
    for eps in (0.0, 0.2):
        s, r = oracle.draw_batch(300, rng)
        perm = rng.permutation(300)
        base = solve_empirical_lp((s, r), eps)
        moved = solve_empirical_lp((s[perm], r[perm]), eps)
        assert moved.value == base.value
        assert np.array_equal(moved.phi, base.phi[perm])


def test_blackbox_point_mass_is_k_independent():
    inst = fixtures.rain_shine_point(0.1)
    oracle = ExplicitOracle(inst)
    state = (inst.sender_payoffs[0], inst.receiver_payoffs[0])
    rng = np.random.default_rng(73)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        picks = {BlackboxSampler(oracle, 0.0, K).sample(state, rng) for K in (1, 5, 50)}
    assert picks == {1}


def test_epsilon_zero_warns():
    oracle = ExplicitOracle(fixtures.rain_shine_point(0.1))
    with pytest.warns(UserWarning):
        BlackboxSampler(oracle, epsilon=0.0, K=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_non_finite_or_negative_epsilon_raises(bad):
    inst = fixtures.rain_shine_point(0.1)
    with pytest.raises(ValidationError, match="epsilon must be finite"):
        BlackboxSampler(ExplicitOracle(inst), epsilon=bad, K=5)
    samples = (inst.sender_payoffs, inst.receiver_payoffs)
    with pytest.raises(ValidationError, match="epsilon must be finite"):
        solve_empirical_lp(samples, bad)


def test_statistical_ic_slack():
    # small-scale version of the deferred-decisions audit
    inst = fixtures.investor_blackbox_instance()
    oracle = ExplicitOracle(inst)
    sampler = BlackboxSampler(oracle, epsilon=0.2, K=120)
    from persuasion.verify import OracleSource, monte_carlo_eval

    rep = monte_carlo_eval(sampler, OracleSource(oracle), 400,
                           np.random.default_rng(74))
    floor = rep.ic_slack_mean + 3 * rep.ic_slack_se
    assert floor.min() >= -0.2 - 1e-9


def test_scheme_rows_are_stochastic_and_ic():
    rng = np.random.default_rng(75)
    s = rng.uniform(-1, 1, (30, 2))
    r = rng.uniform(-1, 1, (30, 2))
    scheme = solve_empirical_lp((s, r), epsilon=0.15)
    np.testing.assert_allclose(scheme.phi.sum(axis=1), np.ones(30), atol=1e-9)
    assert scheme.sample_size == 30


def test_mean_empirical_value_tracks_optimum():
    # repeated empirical solves stay within the relaxation of the true
    # optimum on average (small-scale version of the convergence bound)
    inst = fixtures.investor_blackbox_instance()
    opt = solve_exact(inst).value
    oracle = ExplicitOracle(inst)
    rng = np.random.default_rng(79)
    eps = 0.2
    values = []
    for _ in range(30):
        values.append(solve_empirical_lp(oracle.draw_batch(500, rng), eps).value)
    values = np.array(values)
    se = values.std(ddof=0) / np.sqrt(values.size)
    assert values.mean() >= opt - eps - 3 * se


def test_identical_states_share_rows():
    inst = fixtures.rain_shine_mixed(0.1)
    oracle = ExplicitOracle(inst)
    rng = np.random.default_rng(76)
    s, r = oracle.draw_batch(300, rng)
    scheme = solve_empirical_lp((s, r), epsilon=0.1)
    key = np.hstack([s, r])
    for row in np.unique(key, axis=0):
        mask = np.all(key == row, axis=1)
        block = scheme.phi[mask]
        assert np.max(np.abs(block - block[0])) <= 1e-12
