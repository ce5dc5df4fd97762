"""Variational quantities: convex roofs, measurements, and their one-sidedness.

Every optimizer reports which side of the true value it sits on.  Supremum
problems (classical correlations, constrained capacity) yield lower bounds,
infimum problems (formation, squashed family) yield upper bounds, and exact
anchors bypass the search entirely.
"""

import math

import numpy as np

from entroloss import (
    TraceClassElement,
    c_squashed_entanglement_k,
    classical_correlations,
    entanglement_of_formation,
    entropy_k_approximation,
    entropy_k_gap,
    formation_two_member_grid,
    koashi_winter_residual,
    quantum_discord,
    squashed_entanglement_k,
    von_neumann_entropy,
)
from entroloss._optim import OptimizerBudget
from entroloss.rand import random_pure

rng = np.random.default_rng(7)
budget = OptimizerBudget(restarts=8, iterations=800, seed=11)

# ----------------------------------------------------------------------
# entropy approximators: exact anchors at k = 1 and k >= rank
# ----------------------------------------------------------------------
mixed = TraceClassElement(np.array([0.5, 0.5]))
print("H_1 approximator of I/2:", entropy_k_approximation(mixed, 1).value, "(rank-one members)")
gap = entropy_k_gap(mixed, 1)
print("gap at k=1:", gap.value, " = H(I/2) =", von_neumann_entropy(mixed))

# ----------------------------------------------------------------------
# entanglement of formation against the brute-force angle grid
# ----------------------------------------------------------------------
bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
print("\nE_F(Bell) =", entanglement_of_formation(bell).value, "(exact pure anchor)")

a, b = random_pure(4, rng, (2, 2)), random_pure(4, rng, (2, 2))
omega = TraceClassElement(0.5 * a.to_matrix() + 0.5 * b.to_matrix(), (2, 2))
est = entanglement_of_formation(omega, members=2, budget=budget)
oracle = formation_two_member_grid(omega)
print("rank-2 mixture:  optimizer", round(est.value, 6), " grid oracle", round(oracle, 6),
      f" gap_estimate={est.gap_estimate:.2e} converged={est.converged}")

# ----------------------------------------------------------------------
# the squashed family is ordered: E_sq <= E_csq <= E_F (equal on pure states)
# ----------------------------------------------------------------------
psi = random_pure(4, rng, (2, 2))
print("\non a random pure two-qubit state:")
print("  E_sq (k=1) =", squashed_entanglement_k(psi, 1).value)
print("  E_csq(k=1) =", c_squashed_entanglement_k(psi, 1).value, " (singleton: the full mutual information)")
print("  E_F        =", entanglement_of_formation(psi).value)

# ----------------------------------------------------------------------
# classical correlations and discord
# ----------------------------------------------------------------------
cb = classical_correlations(bell, budget=budget)
dq = quantum_discord(bell, budget=budget)
print("\nC_B(Bell) =", cb.value, f"({cb.direction.value})")
print("D_B(Bell) =", dq.value, f"({dq.direction.value})")

# ----------------------------------------------------------------------
# the Koashi-Winter split: C_B(AB) + E_F(AC) = H(A) on pure tripartite states
# ----------------------------------------------------------------------
psi = random_pure(8, rng, (2, 2, 2))
res = koashi_winter_residual(psi, budget)
print("\nKoashi-Winter on a random 3-qubit pure state:")
print("  C_B =", round(res.classical_correlations.value, 6),
      " E_F =", round(res.formation.value, 6),
      " H_A =", round(res.marginal_entropy, 6))
print("  residual =", res.residual, " converged =", res.converged)
