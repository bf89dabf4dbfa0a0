"""Weak to strong measurement with one dial.

Instead of measuring the tilted context directly, the qubit is entangled
with a meter whose states tag the two branches.  Only the overlap of the
meter states matters: overlap 1 means the branches are untagged (nothing
was measured), overlap 0 means they are perfectly distinguished (a full
projective measurement).  Everything in between is a weak measurement.

Three faces of the same dial, as the overlap g runs from 0 to 1:
  - the probability of finding the initial outcome again rises (1+g)/2,
  - the surviving off-diagonal coherence of the system state rises g/2,
  - the entropy produced falls from log 2 to 0.
"""

import numpy as np

import csm_sim as cs

initial = cs.computational_context(2).modality(0)
pointer = cs.rotation_context(np.pi / 2)

print("overlap g | P(return) | coherence | entropy produced (nats)")
for g in np.linspace(0.0, 1.0, 11):
    gram = cs.gram_uniform(2, g)
    p_return = cs.meter_return_probabilities(initial, pointer, gram)[0]
    state = cs.entangle(initial, pointer, cs.meter_states_from_gram(gram))
    rho = cs.reduced_system_state(state, pointer)
    entropy = cs.von_neumann_entropy(cs.meter_chain_reduced_state(initial, pointer, gram, 1))
    print(f"{g:9.2f} | {p_return:9.4f} | {abs(rho[0, 1]):9.4f} | {entropy:.6f}")

print()
print("Cross-check at g = 0.37: the overlap-matrix formula must agree with the")
print("expectation value taken directly in the explicit composite state.")
gram = cs.gram_uniform(2, 0.37)
state = cs.entangle(initial, pointer, cs.meter_states_from_gram(gram))
via_gram = cs.meter_return_probabilities(initial, pointer, gram)
via_state = cs.composite_return_probabilities(state, initial.context, pointer)
for k in range(2):
    print(f"  outcome {k}: {via_gram[k]:.15f} vs {via_state[k]:.15f}")

print()
print("Meter overlaps can carry phases; the return probability stays real:")
gram = cs.Gram(np.array([[1.0, 0.6j], [-0.6j, 1.0]]))
print(f"  P(return) with overlap 0.6i: "
      f"{cs.meter_return_probabilities(initial, pointer, gram)[0]:.6f}")
