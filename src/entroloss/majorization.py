"""Majorization order, rearrangements, and the entropy-gap decomposition.

For states rho majorizing sigma the entropy gap splits exactly as

    H(sigma) = H(rho) + D(rho_desc || sigma_desc) + f(rho, sigma),

where D is the classical relative entropy of the sorted spectra and
f(rho, sigma) = sum_k (mu_k - lambda_k) (-log mu_k) >= 0.  The f term is the
supremum of the capped approximants f_n built with weights min(n, -log mu_k).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotMajorizedError
from .operators import TraceClassElement, partial_trace, tensor, trace_distance

MAJORIZATION_SLACK = 1e-10
DECOMPOSITION_TOL = 1e-8
_LOG_FLOOR = 1e-300


def _partial_sums(ascending: np.ndarray, n: int) -> np.ndarray:
    """Leading partial sums of an ascending spectrum taken in descending order,
    zero-padded to length n."""
    padded = np.zeros(n)
    padded[: ascending.size] = ascending[::-1]
    return np.cumsum(padded)


def spectrum_majorizes(lam, mu) -> bool:
    """Partial-sum dominance of two nonnegative spectra, zero-padded to a common length."""
    lam = np.sort(np.asarray(lam, dtype=float).reshape(-1))
    mu = np.sort(np.asarray(mu, dtype=float).reshape(-1))
    n = max(lam.size, mu.size)
    return bool(np.all(_partial_sums(lam, n) >= _partial_sums(mu, n) - MAJORIZATION_SLACK))


def majorizes(rho: TraceClassElement, sigma: TraceClassElement) -> bool:
    """True iff every leading partial sum of rho's spectrum dominates sigma's."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    return spectrum_majorizes(rho.eigenvalues_descending(), sigma.eigenvalues_descending())


def _sorted_pair(rho: TraceClassElement, sigma: TraceClassElement) -> tuple[np.ndarray, np.ndarray]:
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    lam = rho.eigenvalues_descending()
    mu = sigma.eigenvalues_descending()
    if not spectrum_majorizes(lam, mu):
        raise NotMajorizedError("first argument does not majorize the second")
    return np.clip(lam, 0.0, None), np.clip(mu, 0.0, None)


def entropy_gap_decomposition(rho: TraceClassElement, sigma: TraceClassElement) -> tuple[float, float]:
    """(D, f) with H(sigma) = H(rho) + D + f; requires rho to majorize sigma.

    Spectrum entries of sigma at numerical zero carry at most slack-sized
    lambda mass under majorization and are dropped from both terms.
    """
    lam, mu = _sorted_pair(rho, sigma)
    on = mu > _LOG_FLOOR
    lam_on, mu_on = lam[on], mu[on]
    d_term = float(np.sum(lam_on[lam_on > 0] * np.log(lam_on[lam_on > 0]))) - float(
        np.sum(lam_on * np.log(mu_on))
    )
    f_term = float(np.sum((mu_on - lam_on) * (-np.log(mu_on))))
    return max(d_term, 0.0), max(f_term, 0.0)


def gap_term_approximant(rho: TraceClassElement, sigma: TraceClassElement, n: float) -> float:
    """f_n with capped weights min(n, -log mu_k); nondecreasing in n toward the f term."""
    lam, mu = _sorted_pair(rho, sigma)
    on = mu > _LOG_FLOOR
    weights = np.minimum(float(n), -np.log(mu[on]))
    return float(np.sum((mu[on] - lam[on]) * weights))


def rearrangement(rho: TraceClassElement, hamiltonian=None) -> TraceClassElement:
    """Diagonal state carrying rho's spectrum descending along ascending energy levels.

    The Hamiltonian's eigenbasis is the computational basis with nondecreasing
    levels, so the rearrangement is the sorted diagonal; entropy is preserved
    exactly and mean energy never increases (Ky Fan).
    """
    if hamiltonian is not None and getattr(hamiltonian, "truncation_dim", rho.dim) < rho.dim:
        raise DimensionMismatchError(
            f"Hamiltonian truncation {hamiltonian.truncation_dim} below state dim {rho.dim}"
        )
    spec = np.clip(rho.eigenvalues_descending(), 0.0, None)
    return TraceClassElement(spec)


def separable_majorization_check(omega: TraceClassElement, construction=None) -> bool:
    """Whether both marginals of a bipartite state majorize the joint state.

    True for every separable state.  ``construction``, when given, is a list
    of (weight, a_factor, b_factor) product terms that must reassemble omega;
    it certifies separability of the input but does not affect the predicate.
    A nonseparable control (e.g. a maximally entangled state) returns False.
    """
    if omega.factor_dims is None or len(omega.factor_dims) != 2:
        raise DimensionMismatchError("separable check requires a bipartite factorization")
    if construction is not None:
        rebuilt = None
        for weight, a, b in construction:
            term = tensor(a, b).scaled(float(weight))
            rebuilt = term if rebuilt is None else TraceClassElement(rebuilt.to_matrix() + term.to_matrix(), omega.factor_dims)
        if rebuilt is None or trace_distance(rebuilt, omega) > 1e-10:
            raise NotMajorizedError("construction does not reassemble the given state")
    # the joint spectrum is the longest: its partial sums are taken once
    joint = omega.eigenvalues()
    bound = _partial_sums(joint, joint.size) - MAJORIZATION_SLACK
    for side in (0, 1):
        marg = partial_trace(omega, [side]).eigenvalues()
        if not np.all(_partial_sums(marg, joint.size) >= bound):
            return False
    return True
