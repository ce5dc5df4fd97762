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
from .operators import TraceClassElement, _require_factors, partial_trace

MAJORIZATION_SLACK = 1e-10
DECOMPOSITION_TOL = 1e-8
_LOG_FLOOR = 1e-300


def _partial_sums(ascending: np.ndarray, n: int) -> np.ndarray:
    """Leading partial sums of an ascending spectrum taken in descending order,
    zero-padded to length n."""
    if ascending.size == n:
        return np.cumsum(ascending[::-1])
    padded = np.zeros(n)
    padded[: ascending.size] = ascending[::-1]
    return np.cumsum(padded)


def _majorizes_sorted(lam: np.ndarray, mu: np.ndarray) -> bool:
    """Partial-sum dominance of two ascending nonnegative spectra, zero-padded
    to a common length."""
    n = max(lam.size, mu.size)
    return bool(np.all(_partial_sums(lam, n) >= _partial_sums(mu, n) - MAJORIZATION_SLACK))


def _spectra(rho: TraceClassElement, sigma: TraceClassElement) -> tuple[np.ndarray, np.ndarray]:
    """The ascending spectra of rho and sigma, one sort of a diagonal each."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    return rho.eigenvalues(), sigma.eigenvalues()


def majorizes(rho: TraceClassElement, sigma: TraceClassElement) -> bool:
    """True iff every leading partial sum of rho's spectrum dominates sigma's."""
    return _majorizes_sorted(*_spectra(rho, sigma))


def _ordered_spectra(rho: TraceClassElement, sigma: TraceClassElement) -> tuple[np.ndarray, np.ndarray]:
    """The ascending spectra of rho and sigma; NotMajorizedError unless rho majorizes sigma."""
    lam, mu = _spectra(rho, sigma)
    if not _majorizes_sorted(lam, mu):
        raise NotMajorizedError("first argument does not majorize the second")
    return lam, mu


def _gap_terms(lam: np.ndarray, mu: np.ndarray) -> tuple[float, float]:
    """(D, f) from the ascending spectra lam of rho and mu of sigma, checking
    no order: each term is clamped at 0, so out of order the two need not sum
    to H(sigma) - H(rho)."""
    lam, mu = (np.clip(w[::-1], 0.0, None) for w in (lam, mu))
    on = mu > _LOG_FLOOR
    lam_on, mu_on = lam[on], mu[on]
    lam_pos, log_mu = lam_on[lam_on > 0], np.log(mu_on)
    d_term = float(np.sum(lam_pos * np.log(lam_pos))) - float(np.sum(lam_on * log_mu))
    f_term = float(np.sum((mu_on - lam_on) * -log_mu))
    return max(d_term, 0.0), max(f_term, 0.0)


def entropy_gap_decomposition(rho: TraceClassElement, sigma: TraceClassElement) -> tuple[float, float]:
    """(D, f) with H(sigma) = H(rho) + D + f; requires rho to majorize sigma.

    Spectrum entries of sigma at numerical zero carry at most slack-sized
    lambda mass under majorization and are dropped from both terms.
    """
    return _gap_terms(*_ordered_spectra(rho, sigma))


def gap_term_approximant(rho: TraceClassElement, sigma: TraceClassElement, n: float) -> float:
    """f_n with capped weights min(n, -log mu_k); nondecreasing in n toward the f term."""
    lam, mu = (np.clip(w[::-1], 0.0, None) for w in _ordered_spectra(rho, sigma))
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


def separable_majorization_check(omega: TraceClassElement) -> bool:
    """Whether both marginals of a bipartite state majorize the joint state.

    True for every separable state.  A nonseparable control (e.g. a
    maximally entangled state) returns False.
    """
    _require_factors(omega, 2)
    # partial sums past the longest held spectrum only repeat the totals, so
    # the joint's are taken once, over that length
    held = (omega, partial_trace(omega, [0]), partial_trace(omega, [1]))
    joint, *margs = (np.sort(w.held_eigenvalues()) for w in held)
    n = max(joint.size, *(m.size for m in margs))
    bound = _partial_sums(joint, n) - MAJORIZATION_SLACK
    return all(np.all(_partial_sums(m, n) >= bound) for m in margs)
