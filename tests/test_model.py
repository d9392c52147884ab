"""Domain type and audit tests on the worked fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuasion import fixtures
from persuasion.errors import DimensionError, ValidationError
from persuasion.exact import expand_product, honest_scheme, profiles_of
from persuasion.model import (
    DirectScheme,
    ExplicitInstance,
    IIDInstance,
    Marginal,
    audit,
    best_response,
    best_response_many,
    posterior,
)


def random_instance_and_scheme(rng, states=4, actions=3):
    inst = fixtures.random_explicit(rng, states, actions)
    raw = rng.random((states, actions)) + 1e-3
    phi = raw / raw.sum(axis=1, keepdims=True)
    return inst, DirectScheme(phi)


# ---------------------------------------------------------------------------
# validation


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValidationError):
        ExplicitInstance([0.5, 0.5 + 1e-6], [[1], [1]], [[1], [1]])


def test_dimension_error_names_axis():
    with pytest.raises(DimensionError) as err:
        ExplicitInstance([0.5, 0.5], [[1, 2]], [[1, 2], [3, 4]])
    assert "states" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_explicit_instance_rejects_non_finite_payoffs(bad):
    with pytest.raises(ValidationError, match="sender_payoffs"):
        ExplicitInstance([0.5, 0.5], [[0.0, bad], [1.0, 0.0]], [[1, 0], [0, 1]])
    with pytest.raises(ValidationError, match="receiver_payoffs"):
        ExplicitInstance([0.5, 0.5], [[0, 1], [0, 1]], [[1.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_iid_instance_rejects_non_finite_payoffs(bad):
    with pytest.raises(ValidationError, match="sender_payoffs"):
        IIDInstance(2, [0.5, 0.5], [0.0, bad], [0.0, 1.0])
    with pytest.raises(ValidationError, match="receiver_payoffs"):
        IIDInstance(2, [0.5, 0.5], [0.0, 1.0], [bad, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_marginal_rejects_non_finite_payoffs(bad):
    with pytest.raises(ValidationError, match="sender_payoffs"):
        Marginal([0.5, 0.5], [bad, 1.0], [0.0, 1.0])
    with pytest.raises(ValidationError, match="receiver_payoffs"):
        Marginal([0.5, 0.5], [0.0, 1.0], [0.0, bad])


def test_nan_probabilities_are_rejected():
    with pytest.raises(ValidationError):
        ExplicitInstance([np.nan, 0.5], [[1], [1]], [[1], [1]])
    with pytest.raises(ValidationError):
        IIDInstance(2, [np.nan, 0.5], [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValidationError):
        Marginal([0.5, np.nan], [0.0, 1.0], [0.0, 1.0])


def _value_objects(bad):
    """Each value-object constructor, called on otherwise valid input with
    one entry replaced by bad."""
    from persuasion.approx import IndependentSignalSampler
    from persuasion.iid import AllocationRule, PriorityMixture, Signature, SSignature
    from persuasion.khintchine import TwoSignalSignature

    quarter = np.full((2, 2, 2), 0.25)
    quarter[1, 0, 1] = bad
    third = np.full(3, 1.0 / 3.0)
    return {
        "DirectScheme": lambda: DirectScheme([[0.5, 0.5], [bad, 1.0]]),
        "SSignature": lambda: SSignature([bad, 0.5], [0.25, 0.25], 2),
        "Signature": lambda: Signature(quarter),
        "PriorityMixture": lambda: PriorityMixture([bad, 1.0], [[0, 1], [1, 0]]),
        "AllocationRule": lambda: AllocationRule([[0], [1]], [[bad, 0.0], [1.0, 0.0]]),
        "TwoSignalSignature": lambda: TwoSignalSignature([[bad, 0.25]], [[0.25, 0.25]]),
        "IndependentSignalSampler": lambda: IndependentSignalSampler(
            fixtures.investor(), np.append(third[:2] / 2, bad), third / 2),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(_value_objects(0.0)))
def test_value_objects_reject_non_finite_entries(name, bad):
    with pytest.raises(ValidationError, match="must be finite"):
        _value_objects(bad)[name]()


def test_scheme_rows_must_be_stochastic():
    with pytest.raises(ValidationError):
        DirectScheme([[0.5, 0.4]])
    with pytest.raises(ValidationError):
        DirectScheme([[1.2, -0.2]])


# ---------------------------------------------------------------------------
# posterior


def test_posterior_prosecutor_guilty_signal():
    # direct Bayes: alpha = 1/3 * 1, conditional receiver payoffs (0, 1)
    inst = fixtures.prosecutor()
    scheme = DirectScheme([[1.0, 0.0], [0.0, 1.0]])
    ps = posterior(inst, scheme, 1)
    assert ps.signal_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(ps.receiver_posterior, [0.0, 1.0], atol=1e-12)
    assert ps.best_action == 1
    assert not ps.zero_probability


def test_posterior_zero_probability_signal():
    inst = fixtures.prosecutor()
    scheme = DirectScheme([[1.0, 0.0], [1.0, 0.0]])
    ps = posterior(inst, scheme, 1)
    assert ps.zero_probability
    assert ps.signal_prob == 0.0
    assert np.all(ps.receiver_posterior == 0.0)


def test_posterior_full_information_on_investor_expansion():
    # 9 equiprobable states; a fully revealing scheme fires each of its
    # 9 signals with probability exactly 1/9
    full = expand_product(fixtures.investor())
    reveal = DirectScheme(np.eye(9))
    for sig in range(9):
        ps = posterior(full, reveal, sig)
        assert ps.signal_prob == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_posterior_expectation_recovers_prior():
    rng = np.random.default_rng(4)
    for _ in range(25):
        inst, scheme = random_instance_and_scheme(rng)
        total = 0.0
        acc = np.zeros(inst.action_count)
        for sig in range(scheme.signal_count):
            ps = posterior(inst, scheme, sig)
            total += ps.signal_prob
            acc += ps.signal_prob * ps.receiver_posterior
        prior = inst.state_probs @ inst.receiver_payoffs
        assert total == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(acc, prior, atol=1e-9)


def test_posterior_dimension_mismatch():
    inst = fixtures.prosecutor()
    with pytest.raises(DimensionError):
        posterior(inst, DirectScheme([[1.0, 0.0]]), 0)


# ---------------------------------------------------------------------------
# best response


def test_best_response_examples():
    assert best_response([0, 0], [0, 1]) == 1  # sender-favorable tie
    assert best_response([0.5, 0.5], [0, 1]) == 1  # prosecutor tie at 1/2
    assert best_response([0.3, 0.7, 0.1], [9, 9, 9]) == 1  # strict argmax
    assert best_response([1, 1, 1], [2, 2, 0]) == 0  # final tie: lowest index


def test_best_response_tie_tolerance():
    assert best_response([1.0, 1.0 - 1e-10], [0.0, 1.0]) == 1
    assert best_response([1.0, 1.0 - 1e-6], [0.0, 1.0]) == 0


def test_best_response_rejects_empty():
    with pytest.raises(ValidationError):
        best_response([], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_best_response_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="finite"):
        best_response([bad, 1.0], [0.0, 0.0])
    with pytest.raises(ValidationError, match="finite"):
        best_response([0.0, 1.0], [0.0, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_best_response_many_rejects_non_finite(bad):
    # unchecked, a NaN row reads as a tie and answers action 0
    with pytest.raises(ValidationError, match="finite"):
        best_response_many(np.array([[bad, 1.0]]), np.array([[0.0, 0.0]]))
    with pytest.raises(ValidationError, match="finite"):
        best_response_many(np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([[0.0, 0.0], [bad, 0.0]]))


# ---------------------------------------------------------------------------
# audit


def test_audit_always_convict_is_not_credible():
    inst = fixtures.prosecutor()
    scheme = DirectScheme(np.tile([0.0, 1.0], (2, 1)))
    report = audit(inst, scheme)
    assert not report.is_ic
    # deviation to acquittal gains 2/3 - 1/3 of receiver payoff
    assert report.epsilon_certified == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_audit_honest_scheme_is_ic():
    rng = np.random.default_rng(9)
    for _ in range(20):
        inst = fixtures.random_explicit(rng, 5, 3)
        report = audit(inst, honest_scheme(inst))
        assert report.min_slack >= -1e-9
        assert report.epsilon_certified <= 1e-9


def test_audit_investor_reference_scheme():
    inst = fixtures.investor()
    full = expand_product(inst)
    report = audit(full, fixtures.investor_optimal_scheme(inst))
    assert report.sender_utility == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert report.min_slack >= -1e-12
    assert np.all(np.diag(report.ic_slack) == 0.0)


def test_epsilon_certified_zero_iff_all_ic():
    rng = np.random.default_rng(14)
    for _ in range(25):
        inst, scheme = random_instance_and_scheme(rng)
        report = audit(inst, scheme)
        all_ok = np.all(report.ic_slack >= -1e-9)
        assert (report.epsilon_certified <= 1e-9) == all_ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_audit_invariant_under_state_reordering(seed):
    rng = np.random.default_rng(seed)
    inst, scheme = random_instance_and_scheme(rng)
    perm = rng.permutation(inst.state_count)
    inst_p = ExplicitInstance(
        inst.state_probs[perm],
        inst.sender_payoffs[perm],
        inst.receiver_payoffs[perm],
    )
    scheme_p = DirectScheme(scheme.phi[perm])
    a, b = audit(inst, scheme), audit(inst_p, scheme_p)
    assert b.sender_utility == pytest.approx(a.sender_utility, abs=1e-12)
    np.testing.assert_allclose(b.ic_slack, a.ic_slack, atol=1e-12)


def test_profiles_match_expansion_order():
    inst = fixtures.investor()
    profs = profiles_of(inst)
    full = expand_product(inst)
    for t, prof in enumerate(profs):
        np.testing.assert_allclose(
            full.sender_payoffs[t], inst.sender_payoffs[list(prof)]
        )
