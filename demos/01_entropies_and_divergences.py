"""Tour of the entropic functionals: entropy, divergence, correlations.

Run with:  python3 demos/01_entropies_and_divergences.py
"""

import math

import numpy as np

from entroloss import (
    Ensemble,
    TraceClassElement,
    conditional_entropy,
    conditional_mutual_information,
    holevo_quantity,
    mutual_information,
    partial_trace,
    pinching_distribution,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)

# ----------------------------------------------------------------------
# von Neumann entropy and its homogeneous extension to the cone
# ----------------------------------------------------------------------
mixed = TraceClassElement(np.array([0.5, 0.5]))
print("H(I/2)          =", von_neumann_entropy(mixed), " (log 2 =", math.log(2), ")")

pure = TraceClassElement.pure([1.0, 0.0])
print("H(pure)         =", von_neumann_entropy(pure))
print("H(0.3 * pure)   =", von_neumann_entropy(pure.scaled(0.3)), " (homogeneity kills the trace mismatch)")
print("H(0.5 * I/2)    =", von_neumann_entropy(mixed.scaled(0.5)), " (= 0.5 log 2)")

# ----------------------------------------------------------------------
# relative entropy: support violations carry an explicit +inf tag
# ----------------------------------------------------------------------
zero, one = TraceClassElement.pure([1.0, 0.0]), TraceClassElement.pure([0.0, 1.0])
print("\nH(|0><0| || |1><1|) =", relative_entropy(zero, one))
p = TraceClassElement(np.array([0.7, 0.3]))
q = TraceClassElement(np.array([0.5, 0.5]))
print("H(diag(.7,.3) || I/2) =", float(relative_entropy(p, q)), " (classical KL)")

# ----------------------------------------------------------------------
# pinching in a basis never lowers the entropy
# ----------------------------------------------------------------------
plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
dist = pinching_distribution(plus, np.eye(2))
print("\npinched |+>     =", dist, " S =", float(shannon_entropy(dist)))

# ----------------------------------------------------------------------
# correlations of a Bell pair and of a GHZ triple
# ----------------------------------------------------------------------
bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
print("\nI(A:B) of Bell  =", float(mutual_information(bell)), " (2 log 2)")
print("H(A|B) of Bell  =", conditional_entropy(bell), " (-log 2)")
print("marginal spectrum =", partial_trace(bell, [0]).eigenvalues_descending())

ghz = TraceClassElement.pure(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2, 2))
print("I(A:C|B) of GHZ =", conditional_mutual_information(ghz), " (log 2: marginal entropies are log 2 or 0)")

# ----------------------------------------------------------------------
# Holevo quantity of a two-state ensemble
# ----------------------------------------------------------------------
ensemble = Ensemble([0.5, 0.5], [zero, plus])
print("\nchi({|0>, |+>}) =", float(holevo_quantity(ensemble)))
print("average spectrum:", np.round(ensemble.average.eigenvalues_descending(), 6), " (cos^2, sin^2 of pi/8)")
