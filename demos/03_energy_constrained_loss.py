"""Entropy loss under a mean-energy constraint.

With a log-growth level law E_k = log(k + 1) the Gibbs partition converges
only above the threshold g(H) = 1, and the extremal diagonal family with
mean energy E shows an entropy jump of exactly g(H) (E - E0) in the limit.
The finite-n supremum overshoots that value with slowly vanishing
corrections, which is why the closed-form estimator is reported separately.
"""

import numpy as np

from entroloss import (
    Hamiltonian,
    estimate_jump,
    gibbs_state,
    gibbs_threshold,
    make_sharp_sequence,
    mean_energy,
    rearrangement,
    sharp_sequence_weight,
    von_neumann_entropy,
)
from entroloss.sequences import entropy_of

h = Hamiltonian.logarithmic(1.0, 0.0, (1 << 16) + 1)
print("threshold g(H) for E_k = log(k+1):", gibbs_threshold(h))
print("threshold for E_k = 2 log(k+1):   ",
      gibbs_threshold(Hamiltonian.logarithmic(2.0, 0.0, 16)))
print("threshold for the linear law:     ",
      gibbs_threshold(Hamiltonian.linear(0.0, 1.0, 16)))

gs = gibbs_state(h, 2.0, 1000)
print("\nGibbs partition at lam=2, 1000 levels:", np.exp(gs.log_partition),
      " (zeta(2) =", np.pi**2 / 6, ", tail bound", gs.tail_bound, ")")

# ----------------------------------------------------------------------
# the extremal family: mean energy pinned at E, converging to the ground state
# ----------------------------------------------------------------------
energy = 1.0
seq = make_sharp_sequence(h, energy)
print("\n    n       q_n        H(rho_n)   TrH rho_n  q_n log n")
for n in seq.n_grid[::3]:
    rho = seq.element(n)
    q = sharp_sequence_weight(h, energy, n)
    print(f"{n:7d}  {q:.6f}  {von_neumann_entropy(rho):9.6f}  {mean_energy(rho, h):9.6f}  {q * np.log(n):9.6f}")

est = estimate_jump(seq, entropy_of, closed_form_key="entropy")
print("\nwindowed entropy-loss estimate (finite n):", est.loss)
print("closed-form estimate at the largest n:     ", est.loss_closed_form)
print("asymptotic value g(H) (E - E0):            ", gibbs_threshold(h) * energy)

# the rearranged family keeps its energy below the original at every n
worst = max(
    mean_energy(rearrangement(seq.element(n), h), h) - mean_energy(seq.element(n), h)
    for n in seq.n_grid
)
print("max energy raise under rearrangement:", worst, "(never positive)")
