"""Hamiltonians with parametric level laws, Gibbs states, and energy bounds.

A Hamiltonian here is never materialized as a matrix: it is a closed-form
nondecreasing level law k -> E_k on the computational basis plus a declared
truncation dimension.  The partition convergence threshold

    g(H) = inf { lam > 0 : sum_k exp(-lam E_k) < +inf }

is computed symbolically from the law family (a finite truncation always has
threshold 0, which would falsify every asymptotic check).  A Hamiltonian
computes its level array once, on first use, and hands out read-only
slices of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FiniteTableLawError,
    InvalidParameterError,
    LambdaBelowGError,
    QExceedsOneError,
    SupportEscapesTruncationError,
    TruncationTailError,
)
from .extended import ExtendedReal
from .info import von_neumann_entropy, relative_entropy
from .majorization import rearrangement
from .operators import DIAG_DIM_CAP, TraceClassElement, _read_only, _require_diag_dim

ENERGY_SLACK = 1e-10
Q_SLACK = 1e-15  # allowed excess of the sharp weight q over 1


class Hamiltonian:
    """Diagonal Hamiltonian defined by a closed-form eigenvalue law."""

    __slots__ = ("kind", "params", "truncation_dim", "_levels")

    def __init__(self, kind: str, params: tuple, truncation_dim: int):
        if truncation_dim < 1:
            raise InvalidParameterError("truncation_dim must be >= 1")
        self.kind = kind
        self.params = params
        self.truncation_dim = int(truncation_dim)
        self._levels = None
        levels = self._law(min(self.truncation_dim, 4096))
        if levels.size and (np.any(np.diff(levels) < -1e-12) or levels[0] < 0):
            raise InvalidParameterError("level law must be nonnegative and nondecreasing")

    @classmethod
    def linear(cls, offset: float, slope: float, truncation_dim: int) -> "Hamiltonian":
        """E_k = offset + slope * k."""
        return cls("linear", (float(offset), float(slope)), truncation_dim)

    @classmethod
    def logarithmic(cls, scale: float, offset: float, truncation_dim: int) -> "Hamiltonian":
        """E_k = scale * log(k + 1) + offset."""
        return cls("log", (float(scale), float(offset)), truncation_dim)

    @classmethod
    def from_table(cls, values) -> "Hamiltonian":
        values = tuple(float(v) for v in values)
        return cls("table", values, len(values))

    def energies(self, dim: int) -> np.ndarray:
        """The first ``dim`` levels, a read-only slice of the stored level array.

        The first call stores every level up to the truncation (at most
        ``DIAG_DIM_CAP`` of them, or ``dim`` if more are asked for)."""
        if dim > self.truncation_dim:
            raise SupportEscapesTruncationError(
                f"requested {dim} levels, truncation is {self.truncation_dim}"
            )
        if self._levels is None or self._levels.size < dim:
            self._levels = _read_only(self._law(max(dim, min(self.truncation_dim, DIAG_DIM_CAP))))
        return self._levels[:dim]

    def _law(self, dim: int) -> np.ndarray:
        k = np.arange(dim, dtype=float)
        if self.kind == "linear":
            offset, slope = self.params
            return offset + slope * k
        if self.kind == "log":
            scale, offset = self.params
            return scale * np.log(k + 1.0) + offset
        return np.asarray(self.params[:dim], dtype=float)

    @property
    def ground_energy(self) -> float:
        return float(self.energies(1)[0])


def gibbs_threshold(h: Hamiltonian) -> ExtendedReal:
    """g(H): the infimum of lam with a finite Gibbs partition sum.

    Closed form per law family: logarithmic law with scale a has threshold
    1/a, any strictly increasing linear law has threshold 0, and degenerate
    (constant) laws diverge for every lam.  Undefined for finite tables.
    """
    if h.kind == "table":
        raise FiniteTableLawError("growth threshold is undefined for a finite table law")
    if h.kind == "linear":
        _, slope = h.params
        return ExtendedReal(0.0) if slope > 0 else ExtendedReal.infinity()
    scale, _ = h.params
    return ExtendedReal(1.0 / scale) if scale > 0 else ExtendedReal.infinity()


def _partition_tail_bound(h: Hamiltonian, lam: float, dim: int) -> float:
    """Integral-test upper bound on sum_{k >= dim} exp(-lam E_k)."""
    if h.kind == "table":
        return 0.0
    if h.kind == "linear":
        offset, slope = h.params
        if slope <= 0:
            return float("inf")
        r = np.exp(-lam * slope)
        return float(np.exp(-lam * (offset + slope * dim)) / (1.0 - r))
    scale, offset = h.params
    p = lam * scale
    if p <= 1.0:
        return float("inf")
    # terms exp(-lam offset) (k+1)^(-p); sum_{k>=d} <= integral_d^inf x^(-p) dx
    return float(np.exp(-lam * offset) * dim ** (1.0 - p) / (p - 1.0))


@dataclass(frozen=True)
class GibbsState:
    lam: float
    state: TraceClassElement
    log_partition: float
    tail_bound: float


def gibbs_state(
    h: Hamiltonian,
    lam: float,
    dim: int,
    tail_fraction_limit: float | None = None,
) -> GibbsState:
    """Truncated Gibbs state exp(-lam H) / Z on the first ``dim`` levels.

    The reported tail bound estimates the mass of the dropped levels of the
    untruncated partition sum.  Pass ``tail_fraction_limit`` to refuse
    truncations whose tail exceeds that fraction of the computed sum.
    """
    lam = float(lam)
    if h.kind != "table":
        g = gibbs_threshold(h)
        if g.is_infinite or lam <= float(g):
            raise LambdaBelowGError(f"lam={lam} is not above the threshold {float(g)!r}")
    elif lam <= 0:
        raise LambdaBelowGError("lam must be positive")
    e = h.energies(dim)
    weights = np.exp(-lam * e)
    z = float(weights.sum())
    tail = _partition_tail_bound(h, lam, dim)
    if tail_fraction_limit is not None and tail > tail_fraction_limit * z:
        raise TruncationTailError(
            f"tail bound {tail:.3e} exceeds {tail_fraction_limit} of the partition sum {z:.6e}"
        )
    state = TraceClassElement(weights / z)
    return GibbsState(lam=lam, state=state, log_partition=float(np.log(z)), tail_bound=tail)


def mean_energy(rho: TraceClassElement, h: Hamiltonian) -> float:
    """Tr H rho over the truncation (H is diagonal, so only diag(rho) enters)."""
    if rho.dim > h.truncation_dim:
        raise SupportEscapesTruncationError(
            f"state dim {rho.dim} exceeds truncation {h.truncation_dim}"
        )
    return float(np.dot(h.energies(rho.dim), rho.diag))


def within_energy_bound(rho: TraceClassElement, h: Hamiltonian, e: float) -> bool:
    """Membership in the mean-energy shell Tr H rho <= E, with 1e-10 slack."""
    return mean_energy(rho, h) <= float(e) + ENERGY_SLACK


def gibbs_identity_residual(rho: TraceClassElement, h: Hamiltonian, lam: float, dim: int) -> float:
    """|H(rho) + H(rho || sigma_lam) - lam Tr H rho - log Z| for the truncated Gibbs state."""
    if rho.dim > dim:
        raise SupportEscapesTruncationError(f"state dim {rho.dim} exceeds truncation {dim}")
    gs = gibbs_state(h, lam, dim)
    rho_d = rho.embed(dim)
    rel = relative_entropy(rho_d, gs.state)
    lhs = von_neumann_entropy(rho) + float(rel)
    rhs = lam * mean_energy(rho, h) + gs.log_partition
    return abs(lhs - rhs)


def sharp_sequence_state(h: Hamiltonian, e: float, n: int) -> TraceClassElement:
    """The extremal mean-energy-E state (1-q)|0><0| + (q/n) sum_{k=1..n} |k><k|.

    q = (E - E_0) / (mean of E_1..E_n - E_0) is chosen so Tr H rho = E exactly.
    Requires n large enough that q <= 1.
    """
    e = float(e)
    _require_diag_dim(n + 1)
    if e <= h.ground_energy:
        raise ValueError(f"target energy {e} must exceed the ground energy {h.ground_energy}")
    q = sharp_sequence_weight(h, e, n)
    if q > 1.0 + Q_SLACK:
        raise QExceedsOneError(f"q={float(q)!r} exceeds 1 at n={n}; increase n")
    q = min(q, 1.0)
    diag = np.full(n + 1, q / n)
    diag[0] = 1.0 - q
    return TraceClassElement._unchecked(diag=diag)


def sharp_sequence_weight(h: Hamiltonian, e: float, n: int) -> float:
    """The mixing weight q_n of the sharp sequence."""
    levels = h.energies(n + 1)
    e0 = levels[0]
    return (float(e) - e0) / (float(levels[1:].mean()) - e0)


def energy_rearrangement_gap(rho: TraceClassElement, h: Hamiltonian) -> float:
    """Tr H rho - Tr H rho_desc >= 0: the energy released by rearranging."""
    return mean_energy(rho, h) - mean_energy(rearrangement(rho, h), h)


def energy_gap_approximant(rho: TraceClassElement, h: Hamiltonian, m: int) -> float:
    """Gap computed with levels clipped at E_m; nondecreasing in m toward the gap."""
    if rho.dim > h.truncation_dim:
        raise SupportEscapesTruncationError(
            f"state dim {rho.dim} exceeds truncation {h.truncation_dim}"
        )
    m = int(m)
    if m >= h.truncation_dim:
        m = h.truncation_dim - 1
    e = h.energies(rho.dim)
    cap = float(h.energies(m + 1)[m])
    clipped = np.minimum(e, cap)
    diag = rho.diag
    sorted_diag = np.sort(np.clip(rho.eigenvalues_descending(), 0.0, None))[::-1]
    return float(np.dot(clipped, diag) - np.dot(clipped, sorted_diag))
