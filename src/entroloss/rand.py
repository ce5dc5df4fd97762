"""Seeded random states, unitaries and channels for tests and demos."""

from __future__ import annotations

import numpy as np

from ._optim import random_isometry
from .channels import QuantumOperation
from .errors import InvalidParameterError
from .operators import TraceClassElement, integer_parameter


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return random_isometry(rng, dim, dim)


def random_pure(dim: int, rng: np.random.Generator, factor_dims=None) -> TraceClassElement:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return TraceClassElement.pure(v, factor_dims=factor_dims)


def random_density(
    dim: int, rng: np.random.Generator, rank: int | None = None, factor_dims=None
) -> TraceClassElement:
    rank = dim if rank is None else integer_parameter(rank, "rank", 1)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    return TraceClassElement(m, factor_dims=factor_dims)


def random_channel(dim_in: int, dim_out: int, choi_rank: int, rng: np.random.Generator) -> QuantumOperation:
    """Haar-random channel with the given Choi rank via a random Stinespring isometry."""
    total = dim_out * choi_rank
    if total < dim_in:
        raise InvalidParameterError("dim_out * choi_rank must be at least dim_in")
    v = random_isometry(rng, total, dim_in)
    return QuantumOperation(v.reshape(dim_out, choi_rank, dim_in).swapaxes(0, 1))  # inverse of ``stinespring``
