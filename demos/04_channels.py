"""Channels, dilations, complementaries and the channel information quantities."""

import math

import numpy as np

from entroloss import (
    TraceClassElement,
    apply,
    channel_mutual_information,
    choi_rank,
    coherent_information,
    constrained_holevo_estimate,
    dephasing_channel,
    depolarizing_channel,
    entropy_exchange,
    identity_channel,
    output_entropy,
    pseudo_diagonal_channel,
    stinespring,
    stinespring_entropy_residual,
    von_neumann_entropy,
)
from entroloss._optim import OptimizerBudget
from entroloss.rand import random_density

rng = np.random.default_rng(12)
rho = random_density(2, rng)

# ----------------------------------------------------------------------
# named channels and their Choi ranks
# ----------------------------------------------------------------------
for name, op in [
    ("identity", identity_channel(2)),
    ("dephasing(0.5)", dephasing_channel(0.5)),
    ("depolarizing(1.0)", depolarizing_channel(1.0, 2)),
]:
    print(f"{name:18s} choi rank {choi_rank(op)}   H_out(rho) = {output_entropy(op, rho):.6f}")

plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
print("\nfull dephasing on |+><+| :\n", apply(dephasing_channel(1.0), plus).to_matrix().real)

# ----------------------------------------------------------------------
# Stinespring dilation: H_out + H_env = H_in + I(B:E) exactly
# ----------------------------------------------------------------------
op = dephasing_channel(0.3)
v = stinespring(op)
print("\ndilation isometry is", v.isometry.shape, "with environment dim", v.env_dim)
print("entropy-sum residual:", stinespring_entropy_residual(op, rho))
print("entropy exchange H(comp(rho)):", entropy_exchange(op, rho))

# ----------------------------------------------------------------------
# channel information quantities
# ----------------------------------------------------------------------
print("\nI(identity, rho)  =", channel_mutual_information(identity_channel(2), rho),
      " (= 2 H(rho) =", 2 * von_neumann_entropy(rho), ")")
print("I_c(identity)     =", coherent_information(identity_channel(2), rho))
print("I_c(depolarizing) =", coherent_information(depolarizing_channel(1.0, 2), rho),
      " (= -H(rho))")

mixed = TraceClassElement(np.array([0.5, 0.5]), diagonal=True)
cap = constrained_holevo_estimate(identity_channel(2), mixed, 2, OptimizerBudget(restarts=8, iterations=600, seed=1))
print("constrained capacity of the identity at I/2:", cap.value,
      f" ({cap.direction.value}, converged={cap.converged})")

# ----------------------------------------------------------------------
# channels complementary to measure-and-prepare maps decohere their input,
# so coherent information and entropy gain stay nonnegative on them
# ----------------------------------------------------------------------
povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
preps = [TraceClassElement.pure([1.0, 0.0]), TraceClassElement.pure([0.0, 1.0])]
pd = pseudo_diagonal_channel(povm, preps)
print("\npseudo-diagonal channel on a random state:")
print("  I_c =", coherent_information(pd, rho), ">= 0")
print("  entropy gain =", output_entropy(pd, rho) - von_neumann_entropy(rho), ">= 0")
