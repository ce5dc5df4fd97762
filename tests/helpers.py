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
