"""Two ways to visit an intermediate context and come back.

A qubit starts in outcome 0 of the computational context and passes through
a tilted context before returning.  If an outcome is *realized* in the
tilted context, probabilities add over its outcomes and the return is
scrambled; if nothing is realized, amplitudes add and the starting outcome
comes back with certainty.  Dialing a relative phase onto the second path
sweeps a full interference fringe between those extremes.
"""

import numpy as np

import csm_sim as cs

z = cs.computational_context(2)
initial = z.modality(0)

print("tilt theta | P(return | outcome realized) | P(return | nothing realized)")
for theta in (0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, np.pi):
    tilted = cs.rotation_context(theta)
    realized = cs.irreversible_return(initial, tilted, 0)
    unrealized = cs.reversible_return(initial, tilted, 0)
    print(f"{theta:10.4f} | {realized:28.6f} | {unrealized:28.6f}")

print()
print("The realized route loses the most at theta = pi/2, where the two")
print("contexts are maximally incompatible; the unrealized route never loses.")
print()

# The unrealized route is an interferometer: phase phi on the second path.
tilted = cs.rotation_context(np.pi / 2)
print("phase phi | P(return)   [expect cos^2(phi/2)]")
for phi in np.linspace(0.0, 2 * np.pi, 9):
    p = cs.interference_returns(initial, tilted, np.array([0.0, phi]))[0]
    print(f"{phi:9.4f} | {p:.6f}")

# Averaging the fringe over a uniform random phase reproduces the realized
# (probability-summed) return: losing track of the phase is a measurement.
rng = np.random.default_rng(1)
phases = rng.uniform(0.0, 2 * np.pi, 20_000)
fringe_mean = np.mean(
    [cs.interference_returns(initial, tilted, np.array([0.0, phi]))[0] for phi in phases]
)
print()
print(f"phase-averaged fringe: {fringe_mean:.4f}")
print(f"probability-summed return: {cs.irreversible_return(initial, tilted, 0):.4f}")
