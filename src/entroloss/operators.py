"""Dense Hermitian linear algebra: the substrate for every other module.

Conventions
-----------
* One constructor, ``TraceClassElement(entries, factor_dims=None)``, and the
  rank of ``entries`` picks the storage: a 1-D array is stored as a
  diagonal, and every operation on it takes an O(dim) fast path, which is
  what makes sequence runs at dimension 2**16 feasible; a 2-D array is a
  dense complex matrix.  Every public construction validates: a diagonal
  is checked for negative entries, a matrix for Hermiticity and, through
  its stored ``eigvalsh`` spectrum, for positivity.
* Multipartite structure is carried as an ordered list of subsystem
  dimensions (``factor_dims``) whose product equals the total dimension.
* Spectra are reported sorted in decreasing order, except the read-only
  ascending ``eigvalsh`` array of ``TraceClassElement.eigenvalues()``.
* A dense element runs ``eigvalsh`` at most once and keeps the result (the
  constructor keeps the one its PSD check computes).  Elements
  holding the same matrix (``copy``, ``with_factors``, ``group_factors``, a
  ``partial_trace`` keeping every factor, a same-dim ``embed``) share the
  array, and ``permute_factors`` passes it on, since a factor permutation is
  a unitary conjugation.  Every other derived element (``scaled``, proper
  partial traces, ``tensor``, channel outputs) computes its own.
* Every element keeps its von Neumann entropy once
  ``info.von_neumann_entropy`` has computed it.  ``copy``, ``with_factors``,
  ``group_factors``, a keep-all ``partial_trace`` and a same-dim ``embed``
  share it; every other derived element, ``permute_factors`` included,
  computes its own.
* ``TraceClassElement._unchecked`` is for derived elements only (copies,
  ``scaled``, ``partial_trace``, ``permute_factors``, ``tensor``, the sharp
  state, channel outputs on diagonals): no copy and no check, so its
  callers keep a diagonal behind ``_require_diag_dim`` and a matrix exactly
  Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from string import ascii_letters

import numpy as np

from .errors import (
    BadFactorizationError,
    ConvergenceFailureError,
    DimensionMismatchError,
    DimensionOverflowError,
    NonHermitianError,
    NotPositiveError,
)

HERMITICITY_RTOL = 1e-12
PSD_TOL = 1e-10
STATE_TRACE_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
SUPPORT_CUTOFF_RTOL = 1e-12

# Caps guarding accidental dense blow-ups.  Diagonal elements are vectors,
# so they may grow far beyond what a dense matrix could hold.
DENSE_DIM_CAP = 4096
DIAG_DIM_CAP = 1 << 20


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _require_dense_dim(n: int) -> None:
    if n > DENSE_DIM_CAP:
        raise DimensionOverflowError(f"dense dimension {n} exceeds cap {DENSE_DIM_CAP}")


def _require_diag_dim(n: int) -> None:
    if n > DIAG_DIM_CAP:
        raise DimensionOverflowError(f"diagonal dimension {n} exceeds cap {DIAG_DIM_CAP}")


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > HERMITICITY_RTOL * scale:
        raise NonHermitianError(f"max |A - A^dag| = {dev:.3e} exceeds {HERMITICITY_RTOL * scale:.3e}")
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending with the matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class TraceClassElement:
    """Positive trace-class element (a cone member); states carry unit trace.

    A 1-D ``entries`` is stored as a diagonal and never touches the
    eigensolver; a 2-D one is a dense matrix.  The PSD check tolerates
    entries or eigenvalues down to -PSD_TOL.
    """

    __slots__ = ("_matrix", "_diag", "_eigenvalues", "_entropy", "factor_dims", "dim")

    def __init__(self, entries, factor_dims=None):
        a = np.asarray(entries)
        self._eigenvalues = None
        if a.ndim == 1:
            d = np.array(a, dtype=float)
            _require_diag_dim(d.size)
            if d.size and float(d.min()) < -PSD_TOL:
                raise NotPositiveError(f"diagonal entry {d.min():.3e} below -{PSD_TOL}")
            self._diag = d
            self._matrix = None
        elif a.ndim == 2:
            if a.shape[0] != a.shape[1]:
                raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
            _require_dense_dim(a.shape[0])
            m = _check_hermitian(np.asarray(a, dtype=complex))
            if m.size:
                self._eigenvalues = _read_only(np.linalg.eigvalsh(m))
                lo = float(self._eigenvalues[0])
                if lo < -PSD_TOL:
                    raise NotPositiveError(f"smallest eigenvalue {lo:.3e} below -{PSD_TOL}")
            self._matrix = m
            self._diag = None
        else:
            raise DimensionMismatchError(f"entries must be 1-D (a diagonal) or 2-D (a matrix), got shape {a.shape}")
        self.dim = a.shape[0]
        self._entropy = None
        if factor_dims is not None:
            factor_dims = tuple(int(d) for d in factor_dims)
            if math.prod(factor_dims) != self.dim:
                raise BadFactorizationError(f"factor dims {factor_dims} do not multiply to {self.dim}")
        self.factor_dims = factor_dims

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _unchecked(
        cls, matrix=None, diag=None, factor_dims=None, eigenvalues=None, entropy=None
    ) -> "TraceClassElement":
        """Element from a matrix or diagonal the caller knows is valid; runs no check,
        so derived elements (partial traces, products, copies) cost no eigensolve.
        Callers pass an exactly Hermitian matrix (``m == m.conj().T`` bit for bit),
        since ``spectrum()`` trusts it, or a 1-D float diagonal within the
        ``_require_diag_dim`` cap that no one writes to.  ``eigenvalues`` and
        ``entropy`` are the stored values of an element with the same spectrum."""
        out = cls.__new__(cls)
        out._matrix = matrix
        out._diag = diag
        out._eigenvalues = eigenvalues
        out._entropy = entropy
        out.factor_dims = factor_dims
        out.dim = (matrix if diag is None else diag).shape[0]
        return out

    @classmethod
    def pure(cls, amplitudes, factor_dims=None) -> "TraceClassElement":
        """Rank-one element |psi><psi| from an amplitude vector (unnormalized)."""
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        _require_dense_dim(v.size)
        return cls(np.outer(v, v.conj()), factor_dims=factor_dims)

    # -- basic views ----------------------------------------------------------

    @property
    def diagonal(self) -> bool:
        return self._diag is not None

    @property
    def diag(self) -> np.ndarray:
        if self._diag is not None:
            return self._diag
        return np.real(np.diagonal(self._matrix)).copy()

    def to_matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        return np.diag(self._diag.astype(complex))

    @property
    def trace(self) -> float:
        if self._diag is not None:
            return float(self._diag.sum())
        return float(np.real(np.trace(self._matrix)))

    @property
    def is_state(self) -> bool:
        return abs(self.trace - 1.0) <= STATE_TRACE_TOL

    def require_state(self) -> "TraceClassElement":
        if not self.is_state:
            raise NotPositiveError(f"trace {self.trace!r} is not 1 within {STATE_TRACE_TOL}")
        return self

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, read-only; a dense element runs eigvalsh on first use only."""
        if self._diag is not None:
            return _read_only(np.sort(self._diag))
        if self._eigenvalues is None:
            self._eigenvalues = _read_only(np.linalg.eigvalsh(self._matrix))
        return self._eigenvalues

    def eigenvalues_descending(self) -> np.ndarray:
        return self.eigenvalues()[::-1].copy()

    def spectrum(self) -> SpectralDecomposition:
        """Eigenvalues sorted descending with their eigenvector columns (``eigh``)."""
        if self._diag is not None:
            _require_dense_dim(self.dim)
            order = np.argsort(self._diag)[::-1]
            vecs = np.zeros((self.dim, self.dim), dtype=complex)
            vecs[order, np.arange(self.dim)] = 1.0
            return SpectralDecomposition(self._diag[order].copy(), vecs)
        try:
            w, v = np.linalg.eigh(self._matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ConvergenceFailureError(str(exc)) from exc
        return SpectralDecomposition(w[::-1].copy(), v[:, ::-1].copy())

    def rank(self) -> int:
        w = self.eigenvalues()
        if w.size == 0 or w[-1] <= 0:
            return 0
        return int(np.count_nonzero(w > SUPPORT_CUTOFF_RTOL * w[-1]))

    def with_factors(self, factor_dims) -> "TraceClassElement":
        out = self.copy()
        factor_dims = tuple(int(d) for d in factor_dims)
        if math.prod(factor_dims) != self.dim:
            raise BadFactorizationError(f"factor dims {factor_dims} do not multiply to {self.dim}")
        out.factor_dims = factor_dims
        return out

    def copy(self) -> "TraceClassElement":
        return TraceClassElement._unchecked(
            self._matrix, self._diag, self.factor_dims, self._eigenvalues, self._entropy
        )

    def scaled(self, factor: float) -> "TraceClassElement":
        factor = float(factor)
        if factor < 0:
            raise NotPositiveError("cone elements cannot be scaled by a negative factor")
        if self._diag is not None:
            _require_diag_dim(self.dim)
            return TraceClassElement._unchecked(diag=self._diag * factor, factor_dims=self.factor_dims)
        return TraceClassElement._unchecked(self._matrix * factor, factor_dims=self.factor_dims)

    def embed(self, dim: int, factor_dims=None) -> "TraceClassElement":
        """Zero-pad into a larger space (the first dim coordinates)."""
        if dim < self.dim:
            raise DimensionMismatchError(f"cannot embed dim {self.dim} into dim {dim}")
        if dim == self.dim:
            out = self.copy()
        elif self._diag is not None:
            d = np.zeros(dim)
            d[: self.dim] = self._diag
            out = TraceClassElement(d)
        else:
            m = np.zeros((dim, dim), dtype=complex)
            m[: self.dim, : self.dim] = self._matrix
            out = TraceClassElement._unchecked(m)
        return out if factor_dims is None else out.with_factors(factor_dims)

    def __repr__(self):
        kind = "diag" if self.diagonal else "dense"
        return f"TraceClassElement(dim={self.dim}, {kind}, trace={self.trace:.6g}, factors={self.factor_dims})"


def tensor(a: TraceClassElement, b: TraceClassElement) -> TraceClassElement:
    """Kronecker product with concatenated factor dimensions."""
    fa = a.factor_dims if a.factor_dims is not None else (a.dim,)
    fb = b.factor_dims if b.factor_dims is not None else (b.dim,)
    dim = a.dim * b.dim
    if a.diagonal and b.diagonal:
        _require_diag_dim(dim)
        return TraceClassElement._unchecked(diag=np.kron(a.diag, b.diag), factor_dims=fa + fb)
    _require_dense_dim(dim)
    return TraceClassElement._unchecked(np.kron(a.to_matrix(), b.to_matrix()), factor_dims=fa + fb)


def _require_factors(w: TraceClassElement) -> tuple[int, ...]:
    if w.factor_dims is None:
        raise BadFactorizationError("operation requires factor_dims metadata")
    return w.factor_dims


def partial_trace(w: TraceClassElement, keep) -> TraceClassElement:
    """Trace out all factors not listed in ``keep`` (indices into factor_dims)."""
    dims = _require_factors(w)
    keep = sorted(set(int(i) for i in keep))
    if not keep or any(i < 0 or i >= len(dims) for i in keep):
        raise BadFactorizationError(f"keep={keep} is not a nonempty subset of factor indices")
    kept_dims = tuple(dims[i] for i in keep)
    if len(keep) == len(dims):
        return w.with_factors(kept_dims)
    if w.diagonal:
        _require_diag_dim(math.prod(kept_dims))
        drop = tuple(i for i in range(len(dims)) if i not in keep)
        marg = w.diag.reshape(dims).sum(axis=drop)
        return TraceClassElement._unchecked(diag=marg.reshape(-1), factor_dims=kept_dims)
    k = len(dims)
    t = w.to_matrix().reshape(dims + dims)
    row = list(ascii_letters[:k])
    col = list(ascii_letters[k : 2 * k])
    for i in range(k):
        if i not in keep:
            col[i] = row[i]
    out_idx = "".join(row[i] for i in keep) + "".join(ascii_letters[k + i] for i in keep)
    expr = "".join(row) + "".join(col) + "->" + out_idx
    d_out = math.prod(kept_dims)
    reduced = np.einsum(expr, t).reshape(d_out, d_out)
    return TraceClassElement._unchecked((reduced + reduced.conj().T) / 2.0, factor_dims=kept_dims)


def permute_factors(w: TraceClassElement, order) -> TraceClassElement:
    """Reorder subsystems; ``order`` lists old factor indices in their new positions."""
    dims = _require_factors(w)
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(len(dims))):
        raise BadFactorizationError(f"order={order} is not a permutation of the factors")
    new_dims = tuple(dims[i] for i in order)
    if w.diagonal:
        _require_diag_dim(w.dim)
        joint = w.diag.reshape(dims).transpose(order)
        return TraceClassElement._unchecked(diag=joint.reshape(-1), factor_dims=new_dims)
    k = len(dims)
    t = w.to_matrix().reshape(dims + dims)
    perm = list(order) + [k + i for i in order]
    permuted = t.transpose(perm).reshape(w.dim, w.dim)
    return TraceClassElement._unchecked(permuted, factor_dims=new_dims, eigenvalues=w._eigenvalues)


def group_factors(w: TraceClassElement, sizes) -> TraceClassElement:
    """Merge consecutive factors into groups, e.g. (A,B,C) with sizes (2,1) -> (AB, C)."""
    dims = _require_factors(w)
    sizes = tuple(int(s) for s in sizes)
    if sum(sizes) != len(dims) or any(s < 1 for s in sizes):
        raise BadFactorizationError(f"group sizes {sizes} do not partition {len(dims)} factors")
    new_dims = []
    i = 0
    for s in sizes:
        new_dims.append(math.prod(dims[i : i + s]))
        i += s
    return w.with_factors(new_dims)


def trace_distance(a: TraceClassElement, b: TraceClassElement) -> float:
    """Trace norm ||A - B||_1 (sum of absolute eigenvalues of the difference)."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim} differ")
    if a.diagonal and b.diagonal:
        return float(np.abs(a.diag - b.diag).sum())
    delta = a.to_matrix() - b.to_matrix()
    return float(np.abs(np.linalg.eigvalsh(delta)).sum())


def purification_amplitude(rho: TraceClassElement) -> np.ndarray:
    """Amplitude matrix M (dim x rank) of a purification of rho.

    The pure state sum_{a,j} M[a, j] |a>|j> has first marginal M M^dag = rho
    exactly; the purifying space is the support dimension.
    """
    dec = rho.spectrum()
    w = np.clip(dec.eigenvalues, 0.0, None)
    if w.size == 0 or w[0] <= 0:
        raise NotPositiveError("cannot purify the zero operator")
    on = w > SUPPORT_CUTOFF_RTOL * w[0]
    return dec.eigenvectors[:, on] * np.sqrt(w[on])


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking isomorphism: vec(M)[i + j*rows] = M[i, j]."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"vec expects a matrix, got ndim={m.ndim}")
    return m.reshape(-1, order="F").copy()


def unvec(v: np.ndarray, shape) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    rows, cols = int(shape[0]), int(shape[1])
    if rows * cols != v.size:
        raise DimensionMismatchError(f"cannot reshape {v.size} entries to {rows}x{cols}")
    return v.reshape((rows, cols), order="F").copy()
