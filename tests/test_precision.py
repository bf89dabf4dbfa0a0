"""A high-precision referee: each table kernel against its own formula at 40 digits.

Every float64 basis a context holds is lifted exactly into ``mpmath`` (each double is a
40-digit number), the kernel's formula is evaluated there, and the float64 result must lie
within ``BOUND · dim · eps`` of it, entry by entry.  The referee shares no rounding with the
kernels, so it sees an error below the float64 referees' bounds (``verify`` at 1e-10, the
oracle and the entropy cross-check at 1e-12), and one that both of their routes share.  A
kernel that clamps into [0, 1] is compared with its reference clamped the same way.  The
worst error of each kernel, in units of ``dim · eps``, is reported to ``hypothesis.target``.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

import csm_sim as cs

EPS = float(np.finfo(float).eps)
BOUND = 16  # in units of dim · eps
DIGITS = 40


def lift(ctx: cs.Context) -> list[list]:
    """The basis as exact ``mpc`` entries, ``[row][column]``."""
    return [[mpmath.mpc(z) for z in row] for row in ctx.basis.tolist()]


def overlaps(a: list[list], b: list[list]) -> list[list]:
    """W[j][i] = ⟨a_j|b_i⟩ for lifted bases."""
    n = range(len(a))
    return [[mpmath.fsum(mpmath.conj(a[l][j]) * b[l][i] for l in n) for i in n] for j in n]


def weight(z) -> mpmath.mpf:
    return z.real**2 + z.imag**2


def clamp(x) -> mpmath.mpf:
    return min(max(x, 0), 1)


def worst(table: np.ndarray, reference: list[list]) -> float:
    """Largest entrywise |table − reference| of two dim-row tables, in units of dim · eps."""
    rows = zip(table.tolist(), reference)
    gap = max(abs(x - r) for row, ref in rows for x, r in zip(row, ref))
    return float(gap) / (len(reference) * EPS)


@st.composite
def protocols(draw):
    """A protocol of 2–6 contexts of one dim in 2–8, each of any kind that dim admits."""
    dim = draw(st.integers(2, 8))
    kinds = ["computational", "fourier", "haar", "explicit"] + (["rotation"] if dim == 2 else [])
    chain = []
    for s in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "rotation":
            spec = cs.ContextSpec(kind, 2, theta=draw(st.floats(-2 * math.pi, 2 * math.pi)))
        elif kind in ("haar", "explicit"):
            seed = draw(st.integers(0, 2**32 - 1))
            spec = cs.ContextSpec("haar", dim, seed=seed)
            if kind == "explicit":
                spec = cs.ContextSpec(kind, dim, matrix=cs.build_context(spec).basis)
        else:
            spec = cs.ContextSpec(kind, dim)
        chain.append(cs.build_context(spec, f"c{s}"))
    return cs.Protocol(chain, chain[0].modality(draw(st.integers(0, dim - 1))))


@settings(max_examples=150, deadline=None)
@given(protocol=protocols())
def test_each_table_kernel_is_within_its_bound_of_the_40_digit_formula(protocol):
    ratios = {"transition_matrix": 0.0, "reversible": 0.0, "irreversible": 0.0}
    with mpmath.workdps(DIGITS):
        bases = [lift(ctx) for ctx in protocol.contexts]
        n = range(protocol.dim)
        marginal = [mpmath.mpf(k == protocol.initial.index) for k in n]
        for s, (frm, to) in enumerate(zip(bases[:-1], bases[1:])):
            # transition_matrix(frm, to)[j, i] = |⟨to_j|frm_i⟩|², the table of step s
            steps = [[clamp(weight(w)) for w in row] for row in overlaps(to, frm)]
            ratio = worst(cs.transition_matrix(*protocol.contexts[s:s + 2]), steps)
            ratios["transition_matrix"] = max(ratios["transition_matrix"], ratio)
            marginal = [clamp(mpmath.fsum(steps[j][i] * marginal[i] for i in n)) for j in n]
        start = bases[0]
        for ctx, mid in zip(protocol.contexts[1:], bases[1:]):
            there, back = overlaps(mid, start), overlaps(start, mid)  # ⟨v_j|u_i⟩, ⟨u_k|v_j⟩
            reversible, irreversible = protocol.contexts[0].return_tables(ctx)
            amps = [[mpmath.fsum(back[k][j] * there[j][i] for j in n) for i in n] for k in n]
            ratio = worst(reversible, [[clamp(weight(a)) for a in row] for row in amps])
            ratios["reversible"] = max(ratios["reversible"], ratio)
            sums = [[clamp(mpmath.fsum(weight(back[k][j]) * weight(there[j][i]) for j in n))
                     for i in n] for k in n]
            ratios["irreversible"] = max(ratios["irreversible"], worst(irreversible, sums))
        ratios["marginal"] = worst(protocol.marginal[:, None], [[m] for m in marginal])
    for kernel, ratio in ratios.items():
        target(ratio, label=kernel)
        assert ratio <= BOUND, f"{kernel} is off by {ratio:.2f} dim·eps"
