"""Random inputs and reconstructions that only the tests use."""

import numpy as np


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random positive semidefinite matrix g g^dag, Hermitian up to round-off."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def random_probability(dim: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.random(dim)
    return p / p.sum()


def reconstruct(dec) -> np.ndarray:
    """The matrix V diag(w) V^dag of a ``SpectralDecomposition``."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def eta_by_gather(x):
    """eta as a gather of the positive entries and a scatter into zeros."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def spectral_entropy_by_gather(eigs):
    """The cone entropy as a clip of round-off and the gather-and-scatter eta."""
    w = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    return eta_by_gather(w).sum(axis=-1) - eta_by_gather(w.sum(axis=-1))
