"""Khintchine constant: brute force vs the two-signal signature LP."""

import itertools

import numpy as np
import pytest

from persuasion.errors import InstanceTooLargeError, ValidationError
from persuasion.khintchine import (
    TwoSignalSignature,
    khintchine_constant,
    khintchine_lp_witness,
    sign_dot_products,
    solve_khintchine_lp,
)
from persuasion.lp import solve
from persuasion.verify import realizability_check

from lp_rows import row_lp


def signature_of_deterministic(assignment, n):
    """Signature of a deterministic two-signal scheme on the sign prior.

    assignment[state] is 0 (first signal) or 1; state bits follow the
    sign_dot_products order.
    """
    S = 2 ** n
    idx = np.arange(S)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1  # 1 means type +1
    plus = np.zeros((n, 2))
    minus = np.zeros((n, 2))
    for state in range(S):
        target = plus if assignment[state] == 0 else minus
        for i in range(n):
            target[i, bits[state, i]] += 1.0 / S
    return plus, minus


def mixture_membership_oracle(plus, minus, n):
    """Membership via exhaustive mixing of all deterministic two-signal
    schemes; independent of the per-state LP formulation."""
    S = 2 ** n
    sigs = []
    for assignment in itertools.product((0, 1), repeat=S):
        p, m = signature_of_deterministic(assignment, n)
        sigs.append(np.concatenate([p.ravel(), m.ravel()]))
    A = np.array(sigs).T  # (4n, 2^(2^n))
    target = np.concatenate([np.asarray(plus).ravel(), np.asarray(minus).ravel()])
    cons = [(A[k], "=", float(target[k])) for k in range(A.shape[0])]
    cons.append((np.ones(A.shape[1]), "=", 1.0))
    return solve(row_lp(np.zeros(A.shape[1]), cons)).status == "optimal"


def test_constant_examples():
    assert khintchine_constant([1.0]) == pytest.approx(1.0, abs=1e-12)
    assert khintchine_constant([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    # enumerate 8 sign vectors: |3+-1+-1| averages to 3
    assert khintchine_constant([3.0, 1.0, 1.0]) == pytest.approx(3.0, abs=1e-12)


def test_sign_dot_products_order():
    dots = sign_dot_products(np.array([2.0, 1.0]))
    np.testing.assert_allclose(dots, [-3.0, -1.0, 1.0, 3.0])


def test_lp_matches_examples():
    assert solve_khintchine_lp([1.0]) == pytest.approx(1.0, abs=1e-9)
    assert solve_khintchine_lp([1.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
    assert solve_khintchine_lp([3.0, 1.0, 1.0]) == pytest.approx(3.0, abs=1e-9)


def test_lp_matches_bruteforce_on_random_vectors():
    rng = np.random.default_rng(81)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2, 2, n)
        assert solve_khintchine_lp(a) == pytest.approx(
            khintchine_constant(a), abs=1e-6
        )


def test_homogeneity():
    rng = np.random.default_rng(82)
    for _ in range(10):
        a = rng.uniform(-1, 1, int(rng.integers(1, 8)))
        c = rng.uniform(-3, 3)
        assert khintchine_constant(c * a) == pytest.approx(
            abs(c) * khintchine_constant(a), abs=1e-9
        )


def test_witness_sends_each_signal_half_the_time():
    value, sig, phi = khintchine_lp_witness(np.array([0.4, -1.1, 0.6, 0.2]))
    assert value == pytest.approx(khintchine_constant([0.4, -1.1, 0.6, 0.2]), abs=1e-9)
    np.testing.assert_allclose(sig.plus.sum(axis=1), 0.5, atol=1e-9)
    np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-9)


def test_size_caps():
    with pytest.raises(InstanceTooLargeError):
        khintchine_constant(np.ones(21))
    with pytest.raises(InstanceTooLargeError):
        solve_khintchine_lp(np.ones(13))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", [khintchine_constant, solve_khintchine_lp,
                                   khintchine_lp_witness],
                         ids=["brute", "lp", "witness"])
def test_non_finite_coefficients_raise(route, bad):
    with pytest.raises(ValidationError, match="a must be finite"):
        route([1.0, bad])


def test_signature_validation():
    with pytest.raises(ValidationError):
        TwoSignalSignature(np.full((2, 2), 0.3), np.full((2, 2), 0.25))
    with pytest.raises(ValidationError):
        # prior-consistent but first-signal probability is 0.6, not 1/2
        TwoSignalSignature(np.array([[0.4, 0.2], [0.25, 0.25]]),
                           np.array([[0.1, 0.3], [0.25, 0.25]]))


def parametrized_signature(x):
    """Signature determined by the joint mass x_i of (first signal, type -1)."""
    x = np.asarray(x, dtype=float)
    plus = np.stack([x, 0.5 - x], axis=1)
    minus = np.stack([0.5 - x, x], axis=1)
    return TwoSignalSignature(plus, minus)


def test_membership_uninformative_point():
    assert realizability_check(parametrized_signature([0.25, 0.25]))


def test_membership_boundary_cases():
    # mass 1/2 on (first signal, type -1) forces signaling on action 0's
    # type alone, which pins every other action's joint mass at 1/4
    assert realizability_check(parametrized_signature([0.5, 0.25]))
    assert not realizability_check(parametrized_signature([0.5, 0.3]))


def test_membership_agrees_with_mixture_oracle():
    rng = np.random.default_rng(83)
    n = 2
    for _ in range(25):
        x = rng.uniform(0.0, 0.5, n)
        sig = parametrized_signature(x)
        assert realizability_check(sig) == mixture_membership_oracle(
            sig.plus, sig.minus, n
        )


def test_lp_witness_signature_is_realizable():
    _, sig, _ = khintchine_lp_witness(np.array([1.0, -0.7]))
    assert realizability_check(sig)
    assert mixture_membership_oracle(sig.plus, sig.minus, 2)
