"""Quantum operations in Kraus form and the channel information quantities.

A quantum operation is a completely positive trace-non-increasing map given
by Kraus matrices (dim_out x dim_in).  Stinespring dilations, complementary
operations and the Choi matrix are derived from the Kraus set; complementary
outputs are only ever compared through basis-independent functionals since
the complementary is fixed only up to an isometry on the environment.

An operation whose Kraus operators are scaled partial permutations (at most
one nonzero entry per row and per column) may instead be built from its
nonzero entries (Kraus index, row, column, amplitude) by
``QuantumOperation.from_entries``; ``compression_operation`` builds this
entries form.  Its sum K^dag K is diagonal, so the trace check is one
``bincount`` over the columns, and ``apply`` maps a diagonal input to a
diagonal output with one ``bincount`` over the rows: O(entries) work and no
dense matrix, at any dimension up to ``DIAG_DIM_CAP``.  Every other
consumer (dense inputs, complementary, Stinespring, Choi matrix, channel
mutual information, roofs) reads ``op.kraus``, which an entries-form
operation builds on first use, behind ``_require_dense_dim``, and keeps.

The channel mutual information handles the joint output
tau = (Phi (x) Id)(|psi><psi|) as W W^dag, with the columns w_k = vec(K_k M)
of the purification amplitude M: its spectrum is that of the K x K Gram
matrix W^dag W (which equals Phi^c(rho)^T), so no (dim_out r)^2 matrix is
built or eigendecomposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidPOVMError,
    NotAChannelError,
    TraceIncreasingError,
)
from .info import mutual_information, relative_entropy_of_factor, von_neumann_entropy
from .operators import (
    SUPPORT_CUTOFF_RTOL,
    TraceClassElement,
    _require_dense_dim,
    _require_diag_dim,
    purification_amplitude,
    trace_distance,
)

KRAUS_TOL = 1e-10
IDENTITY_TOL = 1e-8
PURIFICATION_TOL = 1e-8
CI_RANGE_TOL = 1e-9
PROBE_SLACK = 1e-12  # allowed rise of a probe distance along a channel sequence


class QuantumOperation:
    """Kraus-represented CP trace-non-increasing map, from dense Kraus
    matrices or (``from_entries``) from the entries of scaled partial
    permutations."""

    __slots__ = ("_kraus", "_entries", "dim_in", "dim_out", "trace_preserving")

    def __init__(self, kraus):
        mats = [np.asarray(k, dtype=complex) for k in kraus]
        if not mats:
            raise DimensionMismatchError("at least one Kraus operator is required")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise DimensionMismatchError("all Kraus operators must share one shape")
        self._kraus = mats
        self._entries = None
        self.dim_out, self.dim_in = shape
        stacked = np.concatenate(mats, axis=0)  # (n_kraus * dim_out, dim_in)
        rows = stacked.shape[0]
        if rows < self.dim_in:
            # rank-deficient sum K^dag K can never be the identity; its nonzero
            # spectrum equals that of the small row Gram matrix
            top = float(np.linalg.eigvalsh(stacked @ stacked.conj().T)[-1])
            self.trace_preserving = False
        else:
            gram = stacked.conj().T @ stacked
            dev = float(np.max(np.abs(gram - np.eye(self.dim_in))))
            self.trace_preserving = dev <= KRAUS_TOL
            top = 1.0 if self.trace_preserving else float(np.linalg.eigvalsh(gram)[-1])
        if top > 1.0 + KRAUS_TOL:
            raise TraceIncreasingError(f"largest eigenvalue of sum K^dag K is {top!r}")

    @classmethod
    def from_entries(cls, dim_out: int, dim_in: int, index, row, col, amp) -> "QuantumOperation":
        """Operation whose Kraus operator ``index[i]`` holds ``amp[i]`` at
        (``row[i]``, ``col[i]``) and zeros elsewhere; each operator may hold
        at most one entry per row and per column."""
        dim_out, dim_in = int(dim_out), int(dim_in)
        index, row, col = (np.asarray(a, dtype=np.intp).reshape(-1) for a in (index, row, col))
        amp = np.asarray(amp, dtype=complex).reshape(-1)
        if not 0 < index.size == row.size == col.size == amp.size:
            raise DimensionMismatchError("entries need one Kraus index, row, column and amplitude each, at least one")
        if min(index.min(), row.min(), col.min()) < 0 or row.max() >= dim_out or col.max() >= dim_in:
            raise DimensionMismatchError(f"an entry lies outside the {dim_out}x{dim_in} Kraus operators")
        _require_diag_dim(max(dim_out, dim_in))
        for line, size in ((row, dim_out), (col, dim_in)):
            if np.unique(index * size + line).size != index.size:
                raise DimensionMismatchError("a Kraus operator holds two entries in one row or column")
        weight = np.bincount(col, np.abs(amp) ** 2, minlength=dim_in)  # the diagonal sum K^dag K
        top = float(weight.max())
        if top > 1.0 + KRAUS_TOL:
            raise TraceIncreasingError(f"largest eigenvalue of sum K^dag K is {top!r}")
        op = cls.__new__(cls)
        op._kraus = None
        op._entries = (index, row, col, amp)
        op.dim_out, op.dim_in = dim_out, dim_in
        op.trace_preserving = float(weight.min()) >= 1.0 - KRAUS_TOL
        return op

    @property
    def kraus(self) -> list:
        """The dense Kraus matrices; an entries-form operation builds them on first use."""
        if self._kraus is None:
            index, row, col, amp = self._entries
            _require_dense_dim(max(self.dim_out, self.dim_in))
            mats = np.zeros((int(index.max()) + 1, self.dim_out, self.dim_in), dtype=complex)
            mats[index, row, col] = amp
            self._kraus = list(mats)
        return self._kraus

    def require_channel(self) -> "QuantumOperation":
        if not self.trace_preserving:
            raise NotAChannelError("operation is not trace preserving")
        return self

    def __call__(self, rho: TraceClassElement) -> TraceClassElement:
        return apply(self, rho)

    def tensor(self, other: "QuantumOperation") -> "QuantumOperation":
        kraus = [np.kron(a, b) for a in self.kraus for b in other.kraus]
        return QuantumOperation(kraus)

    def __repr__(self):
        count = len(self._kraus) if self._entries is None else int(self._entries[0].max()) + 1
        return (
            f"QuantumOperation({self.dim_in}->{self.dim_out}, "
            f"{count} Kraus, tp={self.trace_preserving})"
        )


def apply(op: QuantumOperation, rho: TraceClassElement) -> TraceClassElement:
    """sum_k K rho K^dag; diagonal inputs avoid materializing the matrix, and
    an entries-form operation maps them to a diagonal output."""
    if rho.dim != op.dim_in:
        raise DimensionMismatchError(f"state dim {rho.dim} does not match input dim {op.dim_in}")
    if rho.diagonal and op._entries is not None:
        _, row, col, amp = op._entries
        out = np.bincount(row, np.abs(amp) ** 2 * rho.diag[col], minlength=op.dim_out)
        return TraceClassElement._unchecked(diag=out)
    _require_dense_dim(op.dim_out)
    if rho.diagonal:
        d = rho.diag
        out = np.zeros((op.dim_out, op.dim_out), dtype=complex)
        for k in op.kraus:
            out += (k * d[None, :]) @ k.conj().T
    else:
        m = rho.to_matrix()
        out = np.zeros((op.dim_out, op.dim_out), dtype=complex)
        for k in op.kraus:
            out += k @ m @ k.conj().T
    return TraceClassElement(out)


@dataclass(frozen=True)
class StinespringDilation:
    isometry: np.ndarray
    out_dim: int
    env_dim: int


def stinespring(op: QuantumOperation) -> StinespringDilation:
    """V = sum_k K_k (x) |k>_E with environment dimension = number of Kraus terms."""
    env = len(op.kraus)
    v = np.zeros((op.dim_out * env, op.dim_in), dtype=complex)
    for idx, k in enumerate(op.kraus):
        v[idx::env, :] = k
    return StinespringDilation(isometry=v, out_dim=op.dim_out, env_dim=env)


def complementary(op: QuantumOperation) -> QuantumOperation:
    """Environment-side marginal of the dilation, Tr_B V rho V^dag.

    Kraus operators of the complementary are the output-row slices of the
    original set: B_b[k, m] = K_k[b, m].
    """
    env = len(op.kraus)
    stacked = np.stack(op.kraus)  # (env, out, in)
    kraus = [stacked[:, b, :].copy() for b in range(op.dim_out)]
    return QuantumOperation(kraus)


def choi_matrix(op: QuantumOperation) -> np.ndarray:
    """Choi matrix on (output x input) ordering, J = sum_k |K_k>><<K_k|."""
    d = op.dim_out * op.dim_in
    _require_dense_dim(d)
    j = np.zeros((d, d), dtype=complex)
    for k in op.kraus:
        v = k.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def choi_rank(op: QuantumOperation) -> int:
    w = np.linalg.eigvalsh(choi_matrix(op))[::-1]
    if w[0] <= 0:
        return 0
    return int(np.count_nonzero(w > SUPPORT_CUTOFF_RTOL * w[0]))


def output_entropy(op: QuantumOperation, rho: TraceClassElement) -> float:
    """Entropy of the output, with the cone extension handling trace loss."""
    return von_neumann_entropy(apply(op, rho))


def entropy_exchange(op: QuantumOperation, rho: TraceClassElement) -> float:
    """Output entropy of a complementary operation (environment entropy)."""
    return von_neumann_entropy(apply(complementary(op), rho))


def stinespring_entropy_residual(op: QuantumOperation, rho: TraceClassElement) -> float:
    """|H_Phi(rho) + H_comp(rho) - H(rho) - I(B:E)| on the dilated pure output."""
    op.require_channel()
    rho.require_state()
    v = stinespring(op)
    _require_dense_dim(v.isometry.shape[0])
    dilated = v.isometry @ rho.to_matrix() @ v.isometry.conj().T
    joint = TraceClassElement(dilated, (v.out_dim, v.env_dim))
    i_be = float(mutual_information(joint))
    lhs = output_entropy(op, rho) + entropy_exchange(op, rho)
    rhs = von_neumann_entropy(rho) + i_be
    return abs(lhs - rhs)


def channel_mutual_information(op: QuantumOperation, rho: TraceClassElement) -> float:
    """I(Phi, rho) = H(Phi (x) Id(psi) || Phi(rho) (x) rho_R) over a purification psi.

    With M the purification amplitude, the joint output is tau = W W^dag for
    the columns w_k = vec(K_k M), so tau is never built: its spectrum comes
    from the K x K Gram matrix W^dag W (equal to Phi^c(rho)^T) and its
    weights on the product eigenbasis from V^dag (K_k M) conj(U)
    (``info.relative_entropy_of_factor``).

    The value is recomputed with a second, rotated purification and must
    agree within 1e-8, and it must equal H(rho) + H(Phi(rho)) - H(Phi^c(rho))
    within 1e-8; disagreement signals a numerical defect.
    """
    op.require_channel()
    rho.require_state()
    m = purification_amplitude(rho)
    kraus = np.stack(op.kraus)
    out = apply(op, rho)

    def value_for(amp: np.ndarray) -> float:
        # marginal of the purification on R: (M^T conj(M))
        varrho = TraceClassElement(amp.T @ amp.conj())
        return float(relative_entropy_of_factor(kraus @ amp, out, varrho))

    first = value_for(m)
    r = m.shape[1]
    if r > 1:
        phase = np.exp(2j * np.pi * np.outer(np.arange(r), np.arange(r)) / r) / np.sqrt(r)
        second = value_for(m @ phase)
        if abs(first - second) > PURIFICATION_TOL:
            raise ArithmeticError(
                f"mutual information depends on the purification: {first!r} vs {second!r}"
            )
    cross = von_neumann_entropy(rho) + von_neumann_entropy(out) - entropy_exchange(op, rho)
    if abs(first - cross) > IDENTITY_TOL:
        raise ArithmeticError(f"mutual information cross-check failed: {first!r} vs {cross!r}")
    return first


def coherent_information(op: QuantumOperation, rho: TraceClassElement) -> float:
    """I_c(Phi, rho) = I(Phi, rho) - H(rho), constrained to [-H(rho), H(rho)]."""
    h = von_neumann_entropy(rho)
    value = channel_mutual_information(op, rho) - h
    direct = output_entropy(op, rho) - entropy_exchange(op, rho)
    if abs(value - direct) > IDENTITY_TOL:
        raise ArithmeticError(f"coherent information forms disagree: {value!r} vs {direct!r}")
    if abs(value) > h + CI_RANGE_TOL:
        raise ArithmeticError(f"coherent information {value!r} escapes [-H, H] with H={h!r}")
    return value


# ---------------------------------------------------------------------------
# Named channel builders
# ---------------------------------------------------------------------------


def identity_channel(dim: int) -> QuantumOperation:
    _require_dense_dim(dim)
    return QuantumOperation([np.eye(dim, dtype=complex)])


def unitary_channel(u: np.ndarray) -> QuantumOperation:
    return QuantumOperation([np.asarray(u, dtype=complex)])


def _weyl(d: int, a: int, b: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d, dtype=complex), a, axis=0)
    z = np.diag(omega ** np.arange(d))
    return x @ np.linalg.matrix_power(z, b)


def depolarizing_channel(p: float, dim: int = 2) -> QuantumOperation:
    """rho -> (1 - p) rho + p Tr[rho] I / dim via the Weyl twirl."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("depolarizing parameter must lie in [0, 1]")
    if dim < 1:
        raise InvalidParameterError("depolarizing dimension must be >= 1")
    _require_dense_dim(dim * dim)  # dim**2 Kraus operators of dim**2 entries each
    kraus = [np.sqrt(1.0 - p + p / dim**2) * np.eye(dim, dtype=complex)]
    for a in range(dim):
        for b in range(dim):
            if a == 0 and b == 0:
                continue
            kraus.append(np.sqrt(p) / dim * _weyl(dim, a, b))
    return QuantumOperation(kraus)


def dephasing_channel(p: float) -> QuantumOperation:
    """Qubit phase damping rho -> (1 - p) rho + p diag(rho), two Kraus terms."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("dephasing parameter must lie in [0, 1]")
    z = np.diag([1.0, -1.0]).astype(complex)
    kraus = [np.sqrt(1.0 - p / 2.0) * np.eye(2, dtype=complex), np.sqrt(p / 2.0) * z]
    return QuantumOperation(kraus)


def pinching_channel(dim: int) -> QuantumOperation:
    """Full decoherence in the computational basis: rho -> diag(rho)."""
    _require_dense_dim(dim * dim)  # dim Kraus operators of dim**2 entries each
    kraus = []
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k, k] = 1.0
        kraus.append(e)
    return QuantumOperation(kraus)


def partial_trace_channel(dims, keep: int) -> QuantumOperation:
    """Channel (A x B) -> kept factor, tracing the other."""
    da, db = int(dims[0]), int(dims[1])
    _require_dense_dim(da * db)
    kraus = []
    if keep == 0:
        for j in range(db):
            k = np.zeros((da, da * db), dtype=complex)
            for a in range(da):
                k[a, a * db + j] = 1.0
            kraus.append(k)
    elif keep == 1:
        for j in range(da):
            k = np.zeros((db, da * db), dtype=complex)
            for b in range(db):
                k[b, j * db + b] = 1.0
            kraus.append(k)
    else:
        raise DimensionMismatchError("keep must be 0 or 1")
    return QuantumOperation(kraus)


def compression_operation(dim_in: int, dim_out: int) -> QuantumOperation:
    """Trace-non-increasing cut-down to the first dim_out levels (single Kraus,
    Choi rank 1), in entries form."""
    if dim_out < 1:
        raise InvalidParameterError("compression dimension must be >= 1")
    if dim_out > dim_in:
        raise DimensionMismatchError("compression cannot enlarge the space")
    levels = np.arange(dim_out)
    return QuantumOperation.from_entries(dim_out, dim_in, np.zeros(dim_out), levels, levels, np.ones(dim_out))


def _validate_povm(povm, dim: int) -> list[np.ndarray]:
    mats = [np.asarray(m, dtype=complex) for m in povm]
    if not mats or any(m.shape != (dim, dim) for m in mats):
        raise InvalidPOVMError("POVM elements must be square matrices of the input dimension")
    total = np.zeros((dim, dim), dtype=complex)
    for m in mats:
        if float(np.max(np.abs(m - m.conj().T))) > KRAUS_TOL:
            raise InvalidPOVMError("POVM element is not Hermitian")
        if float(np.linalg.eigvalsh(m)[0]) < -KRAUS_TOL:
            raise InvalidPOVMError("POVM element is not positive semidefinite")
        total += m
    if float(np.max(np.abs(total - np.eye(dim)))) > KRAUS_TOL:
        raise InvalidPOVMError("POVM does not resolve the identity")
    return mats


def measure_prepare_channel(povm, preps) -> QuantumOperation:
    """Entanglement-breaking channel rho -> sum_i Tr[M_i rho] tau_i."""
    preps = list(preps)
    if not preps:
        raise InvalidPOVMError("at least one preparation state is required")
    dim_in = np.asarray(povm[0]).shape[0]
    mats = _validate_povm(povm, dim_in)
    if len(preps) != len(mats):
        raise InvalidPOVMError("one preparation state per POVM outcome is required")
    dim_out = preps[0].dim
    kraus = []
    for m, tau in zip(mats, preps):
        tau.require_state()
        wm, vm = np.linalg.eigh(m)
        wt, vt = np.linalg.eigh(tau.to_matrix())
        for r in range(dim_in):
            if wm[r] <= KRAUS_TOL:
                continue
            bra = np.sqrt(wm[r]) * vm[:, r].conj()
            for s in range(dim_out):
                if wt[s] <= KRAUS_TOL:
                    continue
                ket = np.sqrt(wt[s]) * vt[:, s]
                kraus.append(np.outer(ket, bra))
    return QuantumOperation(kraus)


def pseudo_diagonal_channel(povm, preps) -> QuantumOperation:
    """Complementary of a measure-and-prepare channel."""
    return complementary(measure_prepare_channel(povm, preps))


class ChannelSequence:
    """Generator n -> operation with a declared limit and probe states.

    Strong convergence is operationalized as trace-distance convergence on
    the declared probes; ``validate`` checks that the probe distances are
    nonincreasing beyond ``n_min`` rather than assuming it.
    """

    def __init__(self, generator, limit: QuantumOperation, probe_states, n_min: int = 0):
        self.generator = generator
        self.limit = limit
        self.probe_states = list(probe_states)
        self.n_min = int(n_min)

    def convergence_profile(self, grid) -> np.ndarray:
        out = []
        for n in grid:
            op = self.generator(n)
            out.append(
                max(
                    trace_distance(apply(op, rho), apply(self.limit, rho))
                    for rho in self.probe_states
                )
            )
        return np.asarray(out)

    def validate(self, grid) -> bool:
        prof = self.convergence_profile(grid)
        tail = prof[[n >= self.n_min for n in grid]]
        return bool(np.all(np.diff(tail) <= PROBE_SLACK))
