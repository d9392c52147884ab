"""Correctness checks applied to each operation's output, and their self-test.

Every check returns ``None`` when the output passes, or a ``(kind, detail)``
pair naming the failure. The kinds form the failure ledger's vocabulary:

- ``exception``: the operation raised something other than a solver status;
- ``lp_status``: a solver ended with a non-optimal LP status;
- ``uncertified``: a result the program's own certificate rejects;
- ``disagreement``: two independent routes to one answer disagree;
- ``statistical_gate``: a Monte-Carlo estimate misses its guarantee by
  more than ``GATE_SE`` standard errors.

``WRONG_ANSWER_KINDS`` are the kinds where the program delivered an answer
that is wrong; the others mean it delivered no certified answer.

Statistical gates use a 5-standard-error band, so a correct program trips
one with probability below 1e-6 per gate and ``failed`` counts defects,
not sampling luck.
"""

from __future__ import annotations

import numpy as np

VALUE_TOL = 1e-7  # LP value against the audit of its clipped scheme
IC_TOL = 1e-7  # LP feasibility is 1e-8 per row; renormalizing adds a little
ORACLE_TOL = 1e-6  # value agreement between independent solvers
# implement_s_signature reproduces the reduced form to 1e-6 per type, which
# can move an n-action value by n * 1e-6 * max |sender payoff|.
REDUCED_FORM_TOL = 1e-6
GATE_SE = 5.0

WRONG_ANSWER_KINDS = frozenset({"disagreement", "statistical_gate"})


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Failure kind of an operation that raised."""
    text = f"{type(exc).__name__}: {exc}"
    if type(exc).__name__ == "SolverError" and "status" in str(exc):
        return "lp_status", text
    return "exception", text


def check_exact(instance, solution, epsilon: float, audit, reference=None):
    """LP value matches the audit of the returned scheme, which is eps-IC.

    audit is ``persuasion.audit``; reference, when given, is a value from
    an independent solver that must match the LP value.
    """
    report = audit(instance, solution.scheme)
    gap = abs(solution.value - report.sender_utility)
    if gap > VALUE_TOL * max(1.0, abs(solution.value)):
        return "disagreement", f"LP value off its audit by {gap:.3e}"
    alpha = (solution.scheme.phi * instance.state_probs[:, None]).sum(axis=0)
    slack = np.asarray(report.ic_slack) + epsilon * alpha[:, None]
    np.fill_diagonal(slack, 0.0)
    if slack.min() < -IC_TOL:
        return "disagreement", f"scheme violates {epsilon}-IC by {-slack.min():.3e}"
    if reference is not None and abs(reference - solution.value) > ORACLE_TOL:
        return "disagreement", (
            f"LP value {solution.value!r} vs s-signature {reference!r}"
        )
    return None


def check_certified(x, q, n: int, border_feasible):
    """The recommended-type vector x passes the Border subset inequalities."""
    if not border_feasible(np.asarray(x) / q, q, n).feasible:
        return "uncertified", "border_feasible rejects the returned x"
    return None


def check_agree(name: str, fast, slow, tol: float = ORACLE_TOL):
    """Two routes to the same verdict (bool) or value (float) agree."""
    if isinstance(fast, (bool, np.bool_)) or isinstance(slow, (bool, np.bool_)):
        same = bool(fast) == bool(slow)
    else:
        same = abs(float(fast) - float(slow)) <= tol
    if not same:
        return "disagreement", f"{name}: {fast!r} vs {slow!r}"
    return None


def check_at_least(name: str, mean: float, se: float, floor: float):
    """A Monte-Carlo mean is not below floor by more than GATE_SE errors."""
    if mean < floor - GATE_SE * se - 1e-12:
        return "statistical_gate", (
            f"{name}: mean {mean:.6f} < {floor:.6f} - {GATE_SE:g} SE ({se:.2e})"
        )
    return None


def check_close(name: str, mean: float, se: float, target: float, slack: float = 1e-9):
    """A Monte-Carlo mean lies within GATE_SE errors (plus slack) of target."""
    if abs(mean - target) > GATE_SE * se + slack:
        return "statistical_gate", (
            f"{name}: mean {mean:.6f} vs {target:.6f}, {GATE_SE:g} SE = {GATE_SE * se:.2e}"
        )
    return None


def self_test(P) -> list[str]:
    """Feed every check a known-wrong output; return the checks that missed it.

    P is the imported ``persuasion`` package. The right and wrong outputs
    are built by hand, so only the functions the checks themselves rely on
    (``audit`` and ``border_feasible``) are exercised. An empty list means
    each check passed its right output and flagged its wrong one.
    """
    from persuasion import fixtures

    missed = []
    judge = fixtures.prosecutor()  # optimum 2/3: convict if guilty, half the time if not
    best = P.DirectScheme([[0.5, 0.5], [0.0, 1.0]])
    sol = P.ExactSolution(scheme=best, value=2.0 / 3.0, audit=P.audit(judge, best))
    if check_exact(judge, sol, 0.0, P.audit, reference=2.0 / 3.0) is not None:
        missed.append("exact: rejects a correct solution")
    perturbed = P.ExactSolution(scheme=best, value=sol.value + 1e-4, audit=sol.audit)
    if check_exact(judge, perturbed, 0.0, P.audit) is None:
        missed.append("exact: perturbed value")
    always_convict = P.DirectScheme([[0.0, 1.0], [0.0, 1.0]])
    non_ic = P.ExactSolution(scheme=always_convict, value=1.0,
                             audit=P.audit(judge, always_convict))
    if check_exact(judge, non_ic, 0.0, P.audit) is None:
        missed.append("exact: non-IC scheme")
    if check_exact(judge, sol, 0.0, P.audit, reference=sol.value + 1e-3) is None:
        missed.append("exact: reference value disagreement")

    q = np.full(3, 1.0 / 3.0)
    if check_certified([1 / 6, 1 / 6, 1 / 6], q, 2, P.border_feasible) is not None:
        missed.append("certified: rejects a feasible x")
    if check_certified([0.0, 1 / 6, 1 / 3], q, 2, P.border_feasible) is None:
        missed.append("certified: border-infeasible x")

    if check_agree("verdict", True, True) is not None:
        missed.append("agree: rejects matching verdicts")
    if check_agree("verdict", False, True) is None:
        missed.append("agree: flipped oracle verdict")
    if check_agree("value", 0.5, 0.5 + 1e-3) is None:
        missed.append("agree: perturbed value")

    if check_at_least("gate", 0.30, 0.01, 0.40) is None:
        missed.append("gate: mean far below its floor")
    if check_close("gate", 0.30, 0.01, 0.40) is None:
        missed.append("gate: mean far from its target")
    if check_close("gate", 0.40, 0.01, 0.40) is not None:
        missed.append("gate: rejects an on-target mean")
    return missed
