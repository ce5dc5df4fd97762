"""Majorization order and the exact decomposition of the entropy gap.

For rho majorizing sigma:  H(sigma) = H(rho) + D(rho_desc || sigma_desc) + f,
with both extra terms nonnegative, and f the limit of capped approximants.
"""

import numpy as np

from entroloss import (
    Hamiltonian,
    TraceClassElement,
    entropy_gap_decomposition,
    gap_term_approximant,
    majorizes,
    mean_energy,
    rearrangement,
    separable_majorization_check,
    von_neumann_entropy,
)

rng = np.random.default_rng(3)

# ----------------------------------------------------------------------
# a majorization pair: mixing toward uniform only loses order
# ----------------------------------------------------------------------
p = np.sort(rng.random(5))[::-1]
p /= p.sum()
q = 0.4 * p + 0.6 * np.mean([rng.permutation(p) for _ in range(6)], axis=0)
q /= q.sum()
rho = TraceClassElement(p)
sigma = TraceClassElement(q)
print("rho majorizes sigma:", majorizes(rho, sigma))

d_term, f_term = entropy_gap_decomposition(rho, sigma)
print("H(rho)  =", von_neumann_entropy(rho))
print("H(sigma)=", von_neumann_entropy(sigma))
print("KL term =", d_term, "  gap term =", f_term)
print("residual of the decomposition:",
      abs(von_neumann_entropy(sigma) - von_neumann_entropy(rho) - d_term - f_term))

print("\ncapped approximants rise toward the gap term:")
for cap in (0, 1, 2, 4, 8):
    print(f"  cap={cap:2d}:  f_cap = {gap_term_approximant(rho, sigma, cap):.6f}")

# ----------------------------------------------------------------------
# rearrangement never raises the mean energy (and keeps the entropy)
# ----------------------------------------------------------------------
h = Hamiltonian.from_table([0.0, 0.5, 1.25, 2.0])
state = TraceClassElement((lambda m: m / np.real(np.trace(m)))(
    (lambda g: g @ g.conj().T)(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
))
sorted_state = rearrangement(state, h)
print("\nTr H rho          =", mean_energy(state, h))
print("Tr H rho_sorted   =", mean_energy(sorted_state, h))
print("entropy preserved :", abs(von_neumann_entropy(state) - von_neumann_entropy(sorted_state)))

# ----------------------------------------------------------------------
# separable states: both marginals majorize the joint state
# ----------------------------------------------------------------------
joint = np.zeros((2, 2))
joint[0, 0] = joint[1, 1] = 0.5
classical = TraceClassElement(joint.reshape(-1), factor_dims=(2, 2))
print("\nclassical correlated state passes:", separable_majorization_check(classical))

bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / np.sqrt(2), factor_dims=(2, 2))
print("Bell control is flagged:", not separable_majorization_check(bell))
