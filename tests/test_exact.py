"""Exact solver and product expansion tests."""

import numpy as np
import pytest

from persuasion import exact, fixtures
from persuasion.errors import InstanceTooLargeError, ValidationError
from persuasion.exact import (
    direct_scheme_lp,
    expand_product,
    honest_scheme,
    no_information_scheme,
    solve_exact,
)
from persuasion.model import (
    ExplicitInstance,
    IIDInstance,
    IndependentInstance,
    Marginal,
    audit,
)
from persuasion.lp import solve


def test_prosecutor_optimum():
    sol = solve_exact(fixtures.prosecutor())
    assert sol.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    # claim guilt always when guilty, exactly half the time when innocent
    assert sol.scheme.phi[1, 1] == pytest.approx(1.0, abs=1e-9)
    assert sol.scheme.phi[0, 1] == pytest.approx(0.5, abs=1e-9)
    assert sol.audit.epsilon_certified <= 1e-9
    assert sol.value == pytest.approx(sol.audit.sender_utility, abs=1e-9)


def test_investor_expansion_optimum():
    sol = solve_exact(expand_product(fixtures.investor()))
    assert sol.value == pytest.approx(5.0 / 9.0, abs=1e-9)
    assert sol.audit.epsilon_certified <= 1e-9


def test_single_action_instance():
    inst = ExplicitInstance([0.4, 0.6], [[2.0], [-1.0]], [[0.0], [0.0]])
    sol = solve_exact(inst)
    assert sol.value == pytest.approx(0.4 * 2.0 - 0.6, abs=1e-9)
    np.testing.assert_allclose(sol.scheme.phi, np.ones((2, 1)))


def test_value_monotone_in_epsilon():
    rng = np.random.default_rng(31)
    for _ in range(8):
        inst = fixtures.random_explicit(rng, 4, 3)
        values = [solve_exact(inst, epsilon=e).value for e in (0.0, 0.05, 0.2, 1.0)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_non_finite_or_negative_epsilon_raises(bad):
    with pytest.raises(ValidationError, match="epsilon must be finite"):
        solve_exact(fixtures.prosecutor(), epsilon=bad)


def test_relaxed_solution_stays_within_its_epsilon():
    rng = np.random.default_rng(33)
    for _ in range(6):
        inst = fixtures.random_explicit(rng, 4, 3)
        eps = float(rng.uniform(0.05, 0.5))
        sol = solve_exact(inst, epsilon=eps)
        # unnormalized slack can dip at most eps times the signal probability
        assert sol.audit.epsilon_certified <= eps + 1e-9


def test_dominates_honest_and_no_information():
    rng = np.random.default_rng(32)
    for _ in range(10):
        inst = fixtures.random_explicit(rng, 5, 3)
        v = solve_exact(inst).value
        assert v >= audit(inst, honest_scheme(inst)).sender_utility - 1e-9
        assert v >= audit(inst, no_information_scheme(inst)).sender_utility - 1e-9


def test_zero_probability_state_gets_valid_row():
    inst = ExplicitInstance(
        [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]
    )
    sol = solve_exact(inst)
    np.testing.assert_allclose(sol.scheme.phi[0], [1.0, 0.0])


def test_expand_investor():
    full = expand_product(fixtures.investor())
    assert full.state_count == 9
    np.testing.assert_allclose(full.state_probs, np.full(9, 1.0 / 9.0))
    # second state is profile (low, moderate)
    np.testing.assert_allclose(full.sender_payoffs[1], [0.0, 1.0])
    np.testing.assert_allclose(full.receiver_payoffs[1], [0.0, 1.1])


def test_expand_single_action():
    inst = IIDInstance(1, [0.3, 0.7], [1.0, 2.0], [0.0, 0.0])
    full = expand_product(inst)
    np.testing.assert_allclose(full.state_probs, [0.3, 0.7])
    assert full.action_count == 1


def test_expand_independent_product_measure():
    inst = IndependentInstance([
        Marginal([0.25, 0.75], [1.0, 0.0], [0.5, 0.5]),
        Marginal([0.2, 0.3, 0.5], [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]),
    ])
    full = expand_product(inst)
    assert full.state_count == 6
    np.testing.assert_allclose(
        full.state_probs,
        [0.25 * 0.2, 0.25 * 0.3, 0.25 * 0.5, 0.75 * 0.2, 0.75 * 0.3, 0.75 * 0.5],
    )


def test_expansion_cap_error_names_cap():
    inst = IIDInstance(8, np.full(5, 0.2), np.zeros(5), np.zeros(5))
    with pytest.raises(InstanceTooLargeError) as err:
        expand_product(inst, cap=1000)
    assert "1000" in str(err.value)
    assert err.value.size == 5 ** 8


def _crash_instances():
    rng = np.random.default_rng(41)
    insts = [fixtures.prosecutor(), expand_product(fixtures.investor()),
             fixtures.random_explicit(rng, 1, 3), fixtures.random_explicit(rng, 7, 1),
             fixtures.random_explicit(rng, 50, 4),
             fixtures.random_explicit(rng, 50, 3, nonnegative=True),
             ExplicitInstance([0.0, 0.5, 0.0, 0.5], np.eye(4)[:, :2],
                              np.ones((4, 2)))]  # zero-probability states, all ties
    return insts


def test_solve_exact_starts_from_the_honest_basis(monkeypatch):
    seen = []

    def recording(lp, **kwargs):
        out = solve(lp, **kwargs)
        seen.append((lp, out))
        return out

    monkeypatch.setattr(exact, "solve", recording)
    for inst in _crash_instances():
        for eps in (0.0, 0.05, 0.2):
            sol = solve_exact(inst, epsilon=eps)
            lp, out = seen[-1]
            assert out.start == "crash" and out.pivots[0] == 0
            assert out.duals is not None
            assert sol.value == pytest.approx(solve(lp).value, abs=1e-9)
            assert sol.value == pytest.approx(sol.audit.sender_utility, abs=1e-9)
            assert sol.audit.epsilon_certified <= eps + 1e-9


def test_started_solve_does_not_drift(monkeypatch):
    # on this 243-state expansion the dense tableau's phase 2 from the honest
    # start drifted into a numerical failure and had to be redone cold; the
    # started solve itself must end optimal, with certified duals
    inst = IIDInstance(
        5, [0.3886310828860473, 0.19713255945502944, 0.4142363576589233],
        [0.6864713752330084, 0.8011186824753419, 0.6880673265152568],
        [0.7509172532347691, 0.5264033615780219, 0.8085788748219793])
    full = expand_product(inst)
    seen = []

    def recording(lp, **kwargs):
        out = solve(lp, **kwargs)
        seen.append((lp, out))
        return out

    monkeypatch.setattr(exact, "solve", recording)
    sol = solve_exact(full)
    (lp, out), = seen
    assert out.start == "crash" and out.pivots[0] == 0
    y = out.duals
    assert y is not None
    assert np.all(lp.objective - lp.A.T @ y <= 1e-9)
    assert np.all(y[lp.relations == ">="] <= 1e-9)
    assert y @ lp.b == pytest.approx(out.value, abs=1e-9)
    cold = solve(direct_scheme_lp(full.state_probs, full.sender_payoffs,
                                  full.receiver_payoffs, 0.0))
    assert sol.value == pytest.approx(cold.value, abs=1e-9)
    assert sol.audit.epsilon_certified <= 1e-9


@pytest.mark.parametrize("k", [20, -20, 30, -30, -40])
def test_solve_exact_scales_with_payoffs(k):
    # the LP sees payoffs scaled by powers of two to a largest magnitude in
    # [1/2, 1), so scaling them by 2**k scales the value exactly by 2**k
    rng = np.random.default_rng(97)
    f = 2.0 ** k
    for _ in range(40):
        inst = fixtures.random_explicit(rng, int(rng.integers(2, 40)),
                                        int(rng.integers(2, 5)))
        scaled = ExplicitInstance(inst.state_probs, inst.sender_payoffs * f,
                                  inst.receiver_payoffs * f)
        for eps in (0.0, 0.05):
            base, sol = solve_exact(inst, eps), solve_exact(scaled, eps * f)
            assert sol.value == base.value * f
            assert np.array_equal(sol.scheme.phi, base.scheme.phi)
            assert sol.audit.min_slack >= -(eps + 1e-9) * f


def test_honest_scheme_scales_with_payoffs():
    # both schemes break receiver ties on payoffs scaled by powers of two to a
    # largest magnitude in [1/2, 1), so scaling the payoffs by 2**k leaves
    # them as they are
    rng = np.random.default_rng(97)
    for k in (-20, -30, -40):
        f = 2.0 ** k
        for _ in range(40):
            inst = fixtures.random_explicit(rng, int(rng.integers(2, 40)),
                                            int(rng.integers(2, 5)))
            scaled = ExplicitInstance(inst.state_probs, inst.sender_payoffs * f,
                                      inst.receiver_payoffs * f)
            for scheme in (honest_scheme, no_information_scheme):
                assert np.array_equal(scheme(scaled).phi, scheme(inst).phi), scheme
