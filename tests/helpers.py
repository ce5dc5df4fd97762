"""Random inputs and reconstructions that only the tests use."""

import numpy as np


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_probability(dim: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.random(dim)
    return p / p.sum()


def reconstruct(dec) -> np.ndarray:
    """The matrix V diag(w) V^dag of a ``SpectralDecomposition``."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T
