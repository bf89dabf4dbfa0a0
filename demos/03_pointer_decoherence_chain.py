"""A chain of meters singles out the pointer basis.

One weak meter leaves most of the system's coherence intact.  Couple a
fresh meter of the same strength to each branch again and again, and the
off-diagonal elements of the reduced state shrink geometrically, by one
factor of the overlap per link, while the branch weights never move: the
state converges to the fully decohered post-measurement form without any
single strong measurement ever happening.
"""

import numpy as np

import csm_sim as cs

initial = cs.computational_context(2).modality(0)
pointer = cs.rotation_context(np.pi / 2)

for g in (0.8, 0.5, 0.2):
    gram = cs.gram_uniform(2, g)
    print(f"meter overlap g = {g}")
    print("  links M | coherence |(rho)_01| | diagonal")
    for m in (0, 1, 2, 4, 8, 16):
        rho = cs.meter_chain_reduced_state(initial, pointer, gram, m)
        diag = np.round(np.diagonal(rho).real, 6)
        print(f"  {m:7d} | {abs(rho[0, 1]):20.3e} | {diag}")
    print()

# The M -> infinity limit is the decohered state that a single projective
# measurement produces: one link whose meter states are orthogonal.
projective = cs.meter_chain_reduced_state(initial, pointer, cs.Gram(np.eye(2)), 1)
print("projective-limit system state (diagonal):", np.diagonal(projective).real)
chain = cs.meter_chain_reduced_state(initial, pointer, cs.gram_uniform(2, 0.5), 40)
print("40-link chain at g = 0.5:                ", np.round(np.diagonal(chain).real, 12))
print("largest remaining coherence:             ", f"{abs(chain[0, 1]):.3e}")
