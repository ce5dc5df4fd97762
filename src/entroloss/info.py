"""Entropic functionals of states and ensembles.

All logarithms are natural.  The von Neumann entropy carries the homogeneous
extension to subnormalized positive operators,

    H(rho) = Tr eta(rho) - eta(Tr rho),    eta(x) = -x log x,

which reduces to -Tr rho log rho on states and vanishes on every rank-one
element regardless of its trace.  Relative entropy is evaluated in the
eigenbasis of the second argument's support and returns the tagged
+infinity marker on support violation.  Every dense relative entropy ends
in one scalar kernel, ``_relative_entropy_kernel``: from the spectrum of
rho, rho's weights on sigma's support eigenvectors, those eigenvalues and
the two traces it runs the leak test and forms Tr rho log rho and the cross
term.  Against a product a (x) b the eigenbasis comes from the factor
eigendecompositions (eigenvalues w_a w_b, eigenvectors v_a (x) v_b), so the
Kronecker product is never eigendecomposed; mutual information is evaluated
that way.  ``relative_entropy_of_factor`` takes the first argument as
tau = W W^dag from its factor W alone (spectrum from the Gram matrix
W^dag W, weights from V_a^dag w_k conj(V_b)); the channel mutual information
is evaluated that way and never builds tau.

Spectra of dense states come from ``TraceClassElement.eigenvalues()``, so
the entropy and the Tr rho log rho term of a relative entropy reuse the
spectrum an element already holds, and ``von_neumann_entropy`` keeps its
value on the element, so an element is scored once.  The checked
conditional mutual information reads the spectrum of rho_ABC once: its cuts
I(A:BC), I(AB:C) and I(AC:B) are rho_ABC or a factor permutation of it,
which inherits the spectrum.  It builds each two-factor marginal AB, BC and
AC once and evaluates both its entropy and the cuts I(A:B), I(B:C) and
I(A:C) on that one element.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadFactorizationError,
    DimensionMismatchError,
    InconsistentEnsembleError,
    NotUnitaryError,
)
from .extended import ExtendedReal
from .operators import (
    SUPPORT_CUTOFF_RTOL,
    TraceClassElement,
    _require_dense_dim,
    group_factors,
    partial_trace,
    permute_factors,
    tensor,
)

SUPPORT_LEAK_TOL = 1e-10
UNITARITY_TOL = 1e-10
CROSS_CHECK_TOL = 1e-9
CMI_AGREEMENT_TOL = 1e-8


def eta(x):
    """-x log x extended by eta(0) = 0, elementwise on arrays.

    One masked log into an array of -0.0, a product and a negation: no
    gather or scatter.  On x >= 0 every entry, the sign of each zero
    included, equals -x[pos] * log(x[pos]) with eta(0) = +0.0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out.fill(-0.0)
    np.log(x, out=out, where=x > 0.0)
    out *= x
    np.negative(out, out=out)
    return out if out.ndim else float(out)


def spectral_entropy(eigs: np.ndarray) -> np.ndarray:
    """Cone entropy sum eta(w) - eta(sum w) of the spectra along the last axis;
    negative round-off eigenvalues count as zero."""
    w = np.clip(eigs, 0.0, None)
    return eta(w).sum(axis=-1) - eta(w.sum(axis=-1))


def von_neumann_entropy(rho: TraceClassElement) -> float:
    """Entropy with the homogeneous cone extension; H(0) = 0.

    Computed once per element and kept on it (see ``operators``)."""
    if rho._entropy is None:
        rho._entropy = float(spectral_entropy(rho.diag if rho.diagonal else rho.eigenvalues()))
    return rho._entropy


def shannon_entropy(p) -> ExtendedReal:
    """Shannon entropy with the same homogeneous extension to the L1 cone."""
    return ExtendedReal(float(spectral_entropy(np.asarray(p, dtype=float).reshape(-1))))


def _support(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.zeros(0, dtype=bool)
    top = float(values.max())
    if top <= 0:
        return np.zeros(values.shape, dtype=bool)
    return values > SUPPORT_CUTOFF_RTOL * top


def _relative_entropy_kernel(
    w_rho: np.ndarray, tr_rho: float, weights: np.ndarray, w_on: np.ndarray, tr_sigma: float
) -> ExtendedReal:
    """H(rho || sigma) from rho's spectrum and rho's weights <v|rho|v> on sigma's
    support eigenvectors v, whose eigenvalues are ``w_on``.

    The leak test, Tr rho log rho and the cross term Tr rho log sigma; every
    dense relative entropy ends here.  Zero eigenvalues of rho add nothing, so
    ``w_rho`` may omit them.
    """
    leak = tr_rho - float(weights.sum())
    if leak > SUPPORT_LEAK_TOL:
        return ExtendedReal.infinity()
    w_rho = np.clip(w_rho, 0.0, None)
    plog = float(np.sum(w_rho[w_rho > 0] * np.log(w_rho[w_rho > 0])))
    cross = float(np.sum(np.clip(weights, 0.0, None) * np.log(w_on)))
    return ExtendedReal(plog - cross + tr_sigma - tr_rho)


def _dense_relative_entropy(
    rho: TraceClassElement, w_sigma: np.ndarray, v_sigma: np.ndarray, tr_sigma: float
) -> ExtendedReal:
    """H(rho || sigma) from sigma's eigenvalues and eigenvector columns.

    The weights <v|rho|v> of rho on sigma's support vectors are the column
    sums of conj(V) * (rho V): one matrix product and an elementwise reduction.
    """
    on = _support(w_sigma)
    vs = v_sigma[:, on]
    weights = np.real(np.einsum("ij,ij->j", vs.conj(), rho.to_matrix() @ vs))
    return _relative_entropy_kernel(rho.eigenvalues(), rho.trace, weights, w_sigma[on], tr_sigma)


def relative_entropy(rho: TraceClassElement, sigma: TraceClassElement) -> ExtendedReal:
    """H(rho || sigma) = Tr[rho log rho - rho log sigma] + Tr sigma - Tr rho.

    Returns +infinity when supp rho is not contained in supp sigma, detected
    via Tr[(I - P_sigma) rho] > 1e-10.  Homogeneous: H(c rho || c sigma) =
    c H(rho || sigma) for c >= 0.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    if rho.diagonal and sigma.diagonal:
        p, q = rho.diag, sigma.diag
        on = _support(q)
        if float(np.clip(p, 0.0, None)[~on].sum()) > SUPPORT_LEAK_TOL:
            return ExtendedReal.infinity()
        ps = np.clip(p[on], 0.0, None)
        plog = float(np.sum(ps[ps > 0] * np.log(ps[ps > 0])))
        cross = float(np.sum(ps * np.log(q[on])))
        return ExtendedReal(plog - cross + sigma.trace - rho.trace)
    dec = sigma.spectrum()
    return _dense_relative_entropy(rho, dec.eigenvalues, dec.eigenvectors, sigma.trace)


def relative_entropy_to_product(
    rho: TraceClassElement, a: TraceClassElement, b: TraceClassElement
) -> ExtendedReal:
    """H(rho || a (x) b) from the spectra of a and b, as relative_entropy(rho, tensor(a, b))."""
    if rho.dim != a.dim * b.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {a.dim} x {b.dim} differ")
    if rho.diagonal and a.diagonal and b.diagonal:
        return relative_entropy(rho, tensor(a, b))
    _require_dense_dim(rho.dim)
    sa, sb = a.spectrum(), b.spectrum()
    return _dense_relative_entropy(
        rho,
        np.outer(sa.eigenvalues, sb.eigenvalues).ravel(),
        np.kron(sa.eigenvectors, sb.eigenvectors),
        a.trace * b.trace,
    )


def relative_entropy_of_factor(
    w: np.ndarray, a: TraceClassElement, b: TraceClassElement
) -> ExtendedReal:
    """H(tau || a (x) b) for tau = sum_k |w_k>><<w_k|, given the stack w of shape
    (K, a.dim, b.dim) of the columns w_k reshaped to a.dim x b.dim.

    tau is never built: its nonzero spectrum is that of the K x K Gram matrix
    W^dag W, and its weight on the product eigenvector v_i (x) u_j is
    sum_k |(V^dag w_k conj(U))_ij|^2 for the eigenvector matrices V of a and U of b.
    """
    if w.ndim != 3 or w.shape[1:] != (a.dim, b.dim):
        raise DimensionMismatchError(f"factor shape {w.shape} does not match dims {a.dim} x {b.dim}")
    cols = w.reshape(w.shape[0], -1)
    gram = cols.conj() @ cols.T
    sa, sb = a.spectrum(), b.spectrum()
    w_sigma = np.outer(sa.eigenvalues, sb.eigenvalues).ravel()
    on = _support(w_sigma)
    amps = sa.eigenvectors.conj().T @ w @ sb.eigenvectors.conj()
    weights = np.sum(amps.real**2 + amps.imag**2, axis=0).ravel()[on]
    return _relative_entropy_kernel(
        np.linalg.eigvalsh(gram), float(np.real(np.trace(gram))), weights, w_sigma[on], a.trace * b.trace
    )


def pinching_distribution(rho: TraceClassElement, basis: np.ndarray) -> np.ndarray:
    """Diagonal of rho in the given orthonormal basis (columns of ``basis``)."""
    u = np.asarray(basis, dtype=complex)
    if u.shape != (rho.dim, rho.dim):
        raise DimensionMismatchError(f"basis shape {u.shape} does not match dim {rho.dim}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(rho.dim))))
    if dev > UNITARITY_TOL:
        raise NotUnitaryError(f"max |U^dag U - I| = {dev:.3e}")
    p = np.real(np.einsum("ij,ij->j", u.conj(), rho.to_matrix() @ u))
    return np.clip(p, 0.0, None)


def _marginals_ab(omega: TraceClassElement) -> tuple[TraceClassElement, TraceClassElement]:
    if omega.factor_dims is None or len(omega.factor_dims) != 2:
        raise BadFactorizationError("bipartite functional requires exactly two factors")
    return partial_trace(omega, [0]), partial_trace(omega, [1])


def mutual_information(omega: TraceClassElement) -> ExtendedReal:
    """I(A:B) = H(omega_AB || omega_A x omega_B), cone-extended homogeneously."""
    t = omega.trace
    if t <= 0:
        return ExtendedReal(0.0)
    state = omega.scaled(1.0 / t)
    a, b = _marginals_ab(state)
    if state.diagonal:
        # Classical joint distribution: the relative entropy reduces to
        # the Shannon combination of the marginals.
        val = (
            float(shannon_entropy(a.diag))
            + float(shannon_entropy(b.diag))
            - float(shannon_entropy(state.diag))
        )
        return ExtendedReal(max(val, 0.0)) * t
    return relative_entropy_to_product(state, a, b) * t


def conditional_entropy(omega: TraceClassElement) -> float:
    """H(A|B) = H(AB) - H(B), cross-checked against H(A) - I(A:B)."""
    omega.require_state()
    a, b = _marginals_ab(omega)
    primary = von_neumann_entropy(omega) - von_neumann_entropy(b)
    alt = von_neumann_entropy(a) - float(mutual_information(omega))
    if abs(primary - alt) > CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"conditional entropy forms disagree: {primary!r} vs {alt!r}"
        )
    return primary


def _mi_of_cut(omega: TraceClassElement, split: int) -> float:
    """I(first ``split`` factors : the rest) of a multipartite state.

    The state is taken as normalized, so the cut is evaluated without the
    rescaling in mutual_information and keeps the spectrum it inherits."""
    sub = group_factors(omega, (split, len(omega.factor_dims) - split))
    return float(relative_entropy_to_product(sub, *_marginals_ab(sub)))


def conditional_mutual_information(omega: TraceClassElement, check: bool = True) -> float:
    """I(A:C|B) = H(AB) + H(BC) - H(ABC) - H(B) for factors ordered (A, B, C).

    With ``check=True`` the three mutual-information recombinations are also
    evaluated and must agree within 1e-8; strong subadditivity makes the
    value nonnegative.
    """
    omega.require_state()
    if omega.factor_dims is None or len(omega.factor_dims) != 3:
        raise BadFactorizationError("conditional mutual information requires three factors")
    ab = partial_trace(omega, [0, 1])
    bc = partial_trace(omega, [1, 2])
    h_ab = von_neumann_entropy(ab)
    h_bc = von_neumann_entropy(bc)
    h_abc = von_neumann_entropy(omega)
    h_b = von_neumann_entropy(partial_trace(omega, [1]))
    primary = h_ab + h_bc - h_abc - h_b
    if check:
        i_a_bc = _mi_of_cut(omega, 1)
        i_a_b = _mi_of_cut(ab, 1)
        i_ab_c = _mi_of_cut(omega, 2)
        i_b_c = _mi_of_cut(bc, 1)
        i_a_c = _mi_of_cut(partial_trace(omega, [0, 2]), 1)
        i_ac_b = _mi_of_cut(permute_factors(omega, (0, 2, 1)), 2)
        variants = (
            i_a_bc - i_a_b,
            i_ab_c - i_b_c,
            i_a_c - i_a_b - i_b_c + i_ac_b,
        )
        for alt in variants:
            if abs(alt - primary) > CMI_AGREEMENT_TOL:
                raise ArithmeticError(
                    f"conditional mutual information forms disagree: {primary!r} vs {alt!r}"
                )
    return primary


class Ensemble:
    """Finite weighted family of same-dimension trace-class elements."""

    __slots__ = ("weights", "members", "average")

    def __init__(self, weights, members):
        w = np.asarray(weights, dtype=float).reshape(-1)
        members = list(members)
        if w.size != len(members) or w.size == 0:
            raise InconsistentEnsembleError("weights and members must be nonempty and match")
        if float(w.min()) < 0:
            raise InconsistentEnsembleError(f"negative weight {w.min()!r}")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise InconsistentEnsembleError(f"member dimensions differ: {sorted(dims)}")
        self.weights = w
        self.members = members
        if all(m.diagonal for m in members):
            avg = np.zeros(members[0].dim)
            for wi, m in zip(w, members):
                avg += wi * m.diag
            self.average = TraceClassElement(avg, members[0].factor_dims)
        else:
            avg = np.zeros((members[0].dim, members[0].dim), dtype=complex)
            for wi, m in zip(w, members):
                avg += wi * m.to_matrix()
            self.average = TraceClassElement(avg, members[0].factor_dims)

    @property
    def is_state_ensemble(self) -> bool:
        return abs(self.weights.sum() - 1.0) <= 1e-12 and all(m.is_state for m in self.members)


def holevo_quantity(ensemble: Ensemble) -> ExtendedReal:
    """chi = sum_i pi_i H(rho_i || rho_bar), cross-checked against H(rho_bar) - sum pi_i H(rho_i)."""
    if not ensemble.is_state_ensemble:
        raise InconsistentEnsembleError("Holevo quantity requires a normalized state ensemble")
    avg = ensemble.average
    total = ExtendedReal(0.0)
    mean_member_entropy = 0.0
    for wi, m in zip(ensemble.weights, ensemble.members):
        if wi == 0.0:
            continue
        total = total + relative_entropy(m, avg) * wi
        mean_member_entropy += wi * von_neumann_entropy(m)
    if total.is_finite:
        alt = von_neumann_entropy(avg) - mean_member_entropy
        if abs(total.value - alt) > CROSS_CHECK_TOL:
            raise ArithmeticError(f"Holevo forms disagree: {total.value!r} vs {alt!r}")
    return total
