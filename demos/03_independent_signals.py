"""The componentwise scheme: persuasion without coordination.

Instead of one coordinated recommendation, signal HIGH or LOW for every
action independently, calibrated so HIGH carries posterior type mass n*x
for the relaxation optimum (x, y). A rational receiver takes any HIGH
action. Some state realizations produce no HIGH at all, which is where
the 1 - (1 - 1/n)^n factor comes from; everything else is lossless.

The relaxation value also upper-bounds the true optimum, so the measured
ratio below is against a bound that is, if anything, too generous.
"""

import numpy as np

from persuasion import (
    IIDSource,
    expand_product,
    load_corpus,
    solve_exact,
    solve_relaxation,
)
from persuasion.approx import IndependentSignalSampler

instance = load_corpus("investor")
n = instance.action_count

x, y, bound = solve_relaxation(instance)
opt = solve_exact(expand_product(instance)).value
print(f"relaxation bound: {bound:.6f}   true optimum: {opt:.6f}")
print(f"HIGH probabilities per type: {np.round(x / instance.type_probs, 5)}")

sampler = IndependentSignalSampler(instance, x, y)
rng = np.random.default_rng(11)
trials = 500_000
profiles = IIDSource(instance).draw_many(trials, rng)
recs, highs = sampler.sample_many_detailed(profiles, rng)
xi, rho = instance.sender_payoffs, instance.receiver_payoffs
rec_types = profiles[np.arange(trials), recs]

utility = xi[rec_types].mean()
ratio = 1.0 - (1.0 - 1.0 / n) ** n
print(f"\nsimulated utility: {utility:.4f}")
print(f"guaranteed floor:  {ratio:.4f} * {bound:.4f} = {ratio * bound:.4f}")

p_high = highs.any(axis=1).mean()
print(f"\nP[at least one HIGH]: {p_high:.4f} (theory {ratio:.4f})")

hit = highs[np.arange(trials), recs]
est_high = rho[rec_types[hit]].mean()
print(f"receiver payoff of a followed HIGH: {est_high:.4f} "
      f"(theory n*rho.x = {n * rho @ x:.4f})")
print(f"receiver payoff of a LOW action:    {rho[profiles[~highs]].mean():.4f} "
      f"(theory n*rho.y = {n * rho @ y:.4f})")
