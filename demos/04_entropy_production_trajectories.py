"""Entropy production of stochastic measurement trajectories.

Running a sequence of contexts realizes one outcome per context; the
resulting record is a trajectory.  Comparing each trajectory's probability
with that of its time-reversed partner (whose final outcome is drawn from
the unread-outcome marginal) gives a per-trajectory entropy production,
and its ensemble average is exactly the Shannon entropy of the final
outcome distribution.  The exact mean over every path, one pass over the
protocol's step tables, confirms the sampled estimate.
"""

import numpy as np

import csm_sim as cs

z3 = cs.computational_context(3)
protocol = cs.Protocol(
    (z3, cs.haar_context(3, seed=7), cs.haar_context(3, seed=8)), z3.modality(0)
)

print("a few sampled trajectories (outcome per context, entropy production):")
for i in range(6):
    t = cs.sample_trajectory(protocol, (2024, i))
    print(f"  outcomes {t.outcomes}  log P = {t.forward_log_prob:8.4f}"
          f"  entropy = {t.entropy_production:.4f}")

stats = cs.mean_entropy_production(protocol, 50_000, seed=2024)
exact = cs.exhaustive_entropy_production(protocol)
print()
print(f"sampled mean entropy production : {stats.mean_entropy_production:.6f}"
      f" +- {stats.std_error:.6f}")
print(f"exact mean over all {exact.sample_count} paths  : {exact.mean_entropy_production:.6f}")
print(f"Shannon entropy of final outcomes: {stats.shannon_entropy_final:.6f}")
print(f"final outcome distribution       : {np.round(stats.final_distribution, 6)}")

print()
print("A protocol that never changes context produces nothing:")
quiet = cs.Protocol((z3, z3, z3), z3.modality(1))
quiet_stats = cs.mean_entropy_production(quiet, 1000, seed=5)
print(f"  mean entropy production = {quiet_stats.mean_entropy_production}")

print()
print("Through a meter the same gauge interpolates continuously:")
initial = cs.computational_context(2).modality(0)
pointer = cs.rotation_context(np.pi / 2)
for g in (0.0, 0.5, 1.0):
    rho = cs.meter_chain_reduced_state(initial, pointer, cs.gram_uniform(2, g), 1)
    s = cs.von_neumann_entropy(rho)
    print(f"  meter overlap g = {g:3.1f}: entropy = {s:.6f}"
          + ("  (= log 2, projective)" if g == 0 else "  (nothing measured)" if g == 1 else ""))
