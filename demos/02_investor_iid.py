"""Optimal persuasion with i.i.d. actions, three ways, on the investor fixture.

Two stocks each draw a short-term type (low / moderate / high) uniformly.
The investor chases short-term returns (0, 1.1, 2); the adviser is paid on
long-term returns (0, 1, 0). Full information and no information both earn
the adviser 1/3. The optimum, 5/9, recommends the unique moderate stock
when there is one.

Route A solves the exponential-size direct LP on the 9-state expansion.
Route B stays polynomial: optimize the per-type mass pair (x, y) subject
to the subset (win-probability) inequalities, then write the induced
win probabilities as a lottery over priority orders of the types and
sample from it. Both land on 5/9, and the sampler's simulated utility
agrees.
"""

import numpy as np

from persuasion import (
    IIDSource,
    audit,
    expand_product,
    implement_s_signature,
    load_corpus,
    monte_carlo_eval,
    solve_exact,
    solve_s_signature,
    symmetrize,
)

instance = load_corpus("investor")

full = expand_product(instance)
sol = solve_exact(full)
print(f"route A (exact on {full.state_count} states): {sol.value:.6f}")

ssig, value = solve_s_signature(instance)
print(f"route B (s-signature program):               {value:.6f}")
print(f"  recommended-action type mass x: {np.round(ssig.recommended, 5)}")
print(f"  other-action type mass y:       {np.round(ssig.other, 5)}")

tau = ssig.recommended / instance.type_probs
print(f"  induced win probabilities: {np.round(tau, 5)}")

sampler = implement_s_signature(instance, ssig)
mixture = sampler.mixture
for weight, order in zip(mixture.weights, mixture.orders):
    print(f"  priority order {order[:-1]} with probability {weight:.5f}")
print(f"  its win probabilities: "
      f"{np.round(mixture.win_masses(instance.type_probs, 2) / (2 * instance.type_probs), 5)}")

rng = np.random.default_rng(7)
report = monte_carlo_eval(sampler, IIDSource(instance), 200_000, rng)
print(f"  simulated sender utility: {report.mean_sender_utility:.4f} "
      f"+- {report.std_error:.4f} (target 5/9 = {5 / 9:.4f})")

sym = symmetrize(instance, sol.scheme)
print(f"\nsymmetrized exact scheme keeps value: "
      f"{audit(full, sym).sender_utility:.6f}")
