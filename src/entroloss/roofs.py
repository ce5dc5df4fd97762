"""Variational quantities defined by optimization over ensembles and extensions.

Every ensemble of m members with average rho is produced by purifying rho
and measuring the purifying system with an m-outcome POVM whose elements
have rank <= block (Schroedinger-HJW).  With the purification amplitude
M (dim x rank) and an isometry W ((m * block) x rank), the unnormalized
members are

    omega_i = C_i C_i^dag,     C_i = M @ W[i-th block].T,

so the average constraint sum_i omega_i = M M^dag = rho holds exactly by
construction and the optimizer only ever moves along valid ensembles.
block = 1 yields pure members (entanglement of formation, convex closure of
output entropy), block = rank yields unrestricted members (c-squashed).

Every objective is a signed sum of cone entropies S(X X^dag) of matrices X
that are linear in W, so one helper (``_entropy``) gives each value with its
gradient and the objective only adds the adjoint of its linear map, an
einsum with conj(M).  With rho = X X^dag and T = Tr rho, the cone entropy
S = T log T - Tr rho log rho has

    dS = Tr[(log T - log rho) d rho],     d rho = dX X^dag + X dX^dag,

so dS = Re Tr[G^dag dX] with G = dS/dconj(X) = 2 (log T - log rho) X.  X has
no component off the support of rho, where log rho is undefined, so G is
evaluated in the eigenbasis of rho on its support only; an eigenvalue that
rounds to zero or below lies off it.

Most terms have 2 rows (a qubit marginal, a rank-2 state's ensemble), and
there no eigensolver runs.  The eigenvalues of the 2 x 2 rho / T are
p+- = (1 +- delta) / 2 with delta = hypot(rho_00 - rho_11, 2 |rho_01|) / T,
so S = -T (p+ log p+ + p- log p-), and on a 2-dimensional support
log rho = alpha I + beta rho / T with the divided difference
beta = (log p+ - log p-) / delta, computed as log1p(delta / p-) / delta: no
cancellation near a degenerate spectrum, and its limit 1 / p- at
delta = 0.  When p- lies off the support, log T - log rho restricted to the
support is -log p+ / p+ times rho / T.  Every step is elementwise per
matrix, so a stack scores each matrix as it would score it alone.

Estimates carry explicit one-sidedness: an optimizer chasing a supremum
reports a LOWER bound on the true value, one chasing an infimum reports an
UPPER bound.  Exact anchors (pure inputs, k = 1, k >= rank) bypass the
optimizer entirely and are flagged as exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._optim import DEFAULT_BUDGET, IsometrySearchResult, OptimizerBudget, minimize_isometry
from .channels import output_entropy
from .errors import BadFactorizationError, InvalidParameterError, NotPureError
from .info import eta, mutual_information, spectral_entropy, von_neumann_entropy
from .operators import TraceClassElement, _require_factors, integer_parameter, partial_trace, purification_amplitude


class Direction(enum.Enum):
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class BoundedValue:
    """Optimizer output with one-sidedness and convergence metadata."""

    value: float
    direction: Direction
    converged: bool
    gap_estimate: float
    meta: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return bool(self.meta.get("exact", False))


def _exact(value: float, direction: Direction, **meta) -> BoundedValue:
    meta = {"exact": True, **meta}
    return BoundedValue(float(value), direction, converged=True, gap_estimate=0.0, meta=meta)


def _from_search(value: float, direction: Direction, search: IsometrySearchResult, **meta) -> BoundedValue:
    """Wrap a search; ``meta`` also records its cost (isometries scored over all
    restarts, speculative candidates included, next to the trajectory steps
    those restarts took and the stacked objective calls, the rounds, they
    shared), its agreement (restarts within 1e-4 of the best), each
    restart's final step multiplier and the search's wall seconds."""
    return BoundedValue(
        float(value),
        direction,
        converged=search.converged,
        gap_estimate=search.gap_estimate,
        meta={
            **meta,
            "evaluations": int(search.evaluations.sum()),
            "steps": int(search.steps.sum()),
            "rounds": search.rounds,
            "restarts_near_best": int(np.count_nonzero(search.restart_values <= search.value + 1e-4)),
            "multipliers": search.multipliers,
            "seconds": search.seconds,
        },
    )


def _derived(value: float, direction: Direction, estimate: BoundedValue, **meta) -> BoundedValue:
    """A value computed from ``estimate``, with its convergence and the cost of its search."""
    cost = ("evaluations", "steps", "rounds", "restarts_near_best", "multipliers", "seconds")
    return BoundedValue(
        value,
        direction,
        converged=estimate.converged,
        gap_estimate=estimate.gap_estimate,
        meta={**meta, **{key: estimate.meta[key] for key in cost if key in estimate.meta}},
    )


# ---------------------------------------------------------------------------
# batched entropy helpers (restarts, then members, along the leading axes)
# ---------------------------------------------------------------------------


_EYE2 = np.eye(2)


def _members(amp: np.ndarray, w: np.ndarray, m: int, block: int) -> np.ndarray:
    r = amp.shape[1]
    return np.einsum("dr,nmbr->nmdb", amp, w.reshape(-1, m, block, r))


def _members_adjoint(amp: np.ndarray, g: np.ndarray, m: int, block: int) -> np.ndarray:
    """Gradient in w from the gradient g in the members of ``_members(amp, w, m, block)``."""
    return np.einsum("nmdb,dr->nmbr", g, amp.conj()).reshape(g.shape[0], m * block, -1)


def _entropy(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cone entropies S(M M^dag) of a stack of matrices M, with their gradients
    dS/dconj(M) = 2 (log Tr rho - log rho) M for rho = M M^dag (module docstring).

    Eigenvalues that round to zero or below lie off the support and carry
    no gradient.  Matrices with 2 rows take the closed form (module
    docstring), with the divided difference as log1p(delta / p-) / delta;
    larger ones one batched ``eigh``."""
    rho = m @ m.conj().swapaxes(-1, -2)
    if m.shape[-2] == 2:
        return _qubit_entropy(m, rho)
    lam, v = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    support = lam > 0.0
    total = lam.sum(axis=-1, keepdims=True)
    coef = np.log(np.where(support, total, 1.0)) - np.log(np.where(support, lam, 1.0))
    grad = 2.0 * (v @ (coef[..., None] * (v.conj().swapaxes(-1, -2) @ m)))
    return spectral_entropy(lam), grad


def _qubit_entropy(m: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_entropy`` of 2-row matrices M from rho = M M^dag, on the spectrum
    p- = (1 - delta) / 2, p+ = 1 - p- of rho / T: S = -T (p+ log p+ + p- log p-), and
    log T - log rho = a0 I + a1 rho / T on the support, with a1 = -beta and
    a0 = beta p+ - log p+ when both eigenvalues lie on it, a1 = -log p+ / p+
    and a0 = 0 when p- lies off it.  On rho / T the divided difference is at
    most about 2^54, so no step overflows, however small T is."""
    a, c, b = rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1]
    total = a + c
    scale = np.where(total > 0.0, total, 1.0)
    delta = np.hypot(a - c, 2.0 * np.abs(b)) / scale
    minus = np.maximum(1.0 - delta, 0.0) / 2  # clipped as the eigh path clips
    plus = 1.0 - minus  # at most 1, so no term of S is positive
    on = minus > 0.0
    safe_minus = np.where(on, minus, 1.0)
    log_plus, log_minus = np.log(plus), np.log(safe_minus)
    value = total * (0.0 - (plus * log_plus + minus * log_minus))  # +0.0, not -0.0, at a rank-one rho
    ratio = delta / safe_minus
    beta = np.divide(np.log1p(ratio), ratio, out=np.ones_like(ratio), where=ratio > 0.0) / safe_minus
    a1 = np.where(on, -beta, -log_plus / plus)
    a0 = np.where(on, beta * plus - log_plus, 0.0)
    unit = (rho.view(float) / scale[..., None, None]).view(complex)  # rho / T, without complex division by a tiny T
    f = 2.0 * (a1[..., None, None] * unit + a0[..., None, None] * _EYE2)  # 2 (log T - log rho)
    return value, f[..., :, :1] * m[..., :1, :] + f[..., :, 1:] * m[..., 1:, :]


# ---------------------------------------------------------------------------
# entropy approximators
# ---------------------------------------------------------------------------


def entropy_k_approximation(
    rho: TraceClassElement, k: int, budget: OptimizerBudget | None = None, members: int | None = None
) -> BoundedValue:
    """Best found mean member entropy over ensembles with member rank <= k.

    Lower bound on the rank-k entropy approximator; exact at k = 1 (zero)
    and at k >= rank(rho) (the singleton ensemble gives H(rho)).  Refuses
    ``members`` * k below the rank, where no such ensemble averages to rho."""
    k = integer_parameter(k, "k", 1)
    m = integer_parameter(members, "members", 1) if members is not None else rho.dim
    if k == 1:
        return _exact(0.0, Direction.LOWER_BOUND, anchor="rank-1 members have zero entropy")
    rank = rho.rank()
    if k >= rank:
        return _exact(von_neumann_entropy(rho), Direction.LOWER_BOUND, anchor="singleton ensemble")
    amp = purification_amplitude(rho)
    r = amp.shape[1]
    if m * k < r:
        raise InvalidParameterError(f"ensemble size {m} times member rank {k} below rank {r} cannot average to the state")

    def objective(w):
        ent, g = _entropy(_members(amp, w, m, k).swapaxes(-1, -2))  # k x dim: the smaller Gram side
        return -ent.sum(axis=-1), -_members_adjoint(amp, g.swapaxes(-1, -2), m, k)

    search = minimize_isometry(objective, m * k, r, budget)
    return _from_search(-search.value, Direction.LOWER_BOUND, search, members=m)


def entropy_k_gap(
    rho: TraceClassElement, k: int, budget: OptimizerBudget | None = None, members: int | None = None
) -> BoundedValue:
    """Best found sum_i pi_i H(rho_i || rho): the gap between H and its approximator.

    Upper bound; exact at k = 1 (the spectral ensemble gives H(rho)) and at
    k >= rank(rho) (zero).  Equals H(rho) minus the approximator value on
    the same ensemble by construction.
    """
    k = integer_parameter(k, "k", 1)
    if members is not None:  # refused here too, not only where the approximator runs
        members = integer_parameter(members, "members", 1)
    h = von_neumann_entropy(rho)
    if k == 1:
        return _exact(h, Direction.UPPER_BOUND, anchor="spectral ensemble")
    if k >= rho.rank():
        return _exact(0.0, Direction.UPPER_BOUND, anchor="singleton ensemble")
    approx = entropy_k_approximation(rho, k, budget, members)
    return _derived(h - approx.value, Direction.UPPER_BOUND, approx, approximator=approx.value)


# ---------------------------------------------------------------------------
# channel-side roofs
# ---------------------------------------------------------------------------


def convex_closure_output_entropy(
    op, rho: TraceClassElement, members: int, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """Best found sum_i pi_i H(Phi(rho_i)) over pure-member ensembles averaging to rho.

    Exact on a pure rho and for the singleton ensemble (``members`` = 1);
    refuses any other ``members`` below the rank of rho, where no
    pure-member ensemble averages to it."""
    m = integer_parameter(members, "members", 1)
    amp = purification_amplitude(rho)
    r = amp.shape[1]
    if m == 1 or r == 1:
        return _exact(output_entropy(op, rho), Direction.UPPER_BOUND, anchor="singleton ensemble")
    if m < r:
        raise InvalidParameterError(f"ensemble size {m} below rank {r} cannot average to the state")

    def objective(w):
        c = _members(amp, w, m, 1)[..., 0]  # (B, m, din) pure member amplitudes
        ent, g = _entropy(np.einsum("koi,nmi->nmok", op.kraus, c))  # op.kraus: (nk, dout, din)
        gc = np.einsum("nmok,koi->nmi", g, op.kraus.conj())
        return ent.sum(axis=-1), _members_adjoint(amp, gc[..., None], m, 1)

    search = minimize_isometry(objective, m, r, budget)
    return _from_search(search.value, Direction.UPPER_BOUND, search, members=m)


def constrained_holevo_estimate(
    op, rho: TraceClassElement, members: int, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """Lower estimate of the constrained Holevo capacity at rho.

    Uses the identity C(Phi, rho) + coH(Phi, rho) = H(Phi(rho)) on the
    optimizing ensemble, so the reported value and the convex-closure
    estimate are two sides of one optimization.
    """
    op.require_channel()
    rho.require_state()
    coh = convex_closure_output_entropy(op, rho, members, budget)
    h_out = output_entropy(op, rho)
    return _derived(
        max(h_out - coh.value, 0.0), Direction.LOWER_BOUND, coh, convex_closure=coh.value, output_entropy=h_out
    )


# ---------------------------------------------------------------------------
# entanglement measures
# ---------------------------------------------------------------------------


def entanglement_of_formation(
    omega: TraceClassElement, members: int | None = None, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """Best found sum_i pi_i H((omega_i)_A) over pure-member ensembles averaging to omega.

    Upper bound on the entanglement of formation; exact on pure inputs where
    it equals the marginal entropy.
    """
    da, db = _require_factors(omega, 2)
    omega.require_state()
    rank = omega.rank()
    m = integer_parameter(members, "members", 1) if members is not None else rank
    if rank <= 1:
        return _exact(
            von_neumann_entropy(partial_trace(omega, [0])),
            Direction.UPPER_BOUND,
            anchor="pure state",
        )
    amp = purification_amplitude(omega)
    r = amp.shape[1]
    if m < rank:
        raise InvalidParameterError(f"ensemble size {m} below rank {rank} cannot average to the state")

    def objective(w):
        ent, g = _entropy(_members(amp, w, m, 1).reshape(-1, m, da, db))
        return ent.sum(axis=-1), _members_adjoint(amp, g.reshape(-1, m, da * db, 1), m, 1)

    search = minimize_isometry(objective, m, r, budget)
    return _from_search(search.value, Direction.UPPER_BOUND, search, members=m)


def formation_two_member_grid(omega: TraceClassElement, grid_points: int = 10_000) -> float:
    """Brute-force oracle: minimum over a Bloch-angle grid of two-member pure ensembles.

    Only rank-2 states admit two-member decompositions; the measurement bases
    of the rank-2 purifying system are swept over an (angle x phase) grid.
    """
    da, db = _require_factors(omega, 2)
    omega.require_state()
    amp = purification_amplitude(omega)
    if amp.shape[1] != 2:
        raise InvalidParameterError("the two-member grid oracle requires a rank-2 state")
    side = max(2, math.isqrt(integer_parameter(grid_points, "grid_points", 1)))
    thetas = np.linspace(0.0, np.pi, side)
    phis = np.linspace(0.0, 2.0 * np.pi, side, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    u0 = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)], axis=-1).reshape(-1, 2)
    u1 = np.stack([-np.exp(-1j * pp) * np.sin(tt / 2), np.cos(tt / 2)], axis=-1).reshape(-1, 2)
    values = np.zeros(u0.shape[0])
    for u in (u0, u1):
        c = u @ amp.T  # (N, dA*dB) member amplitudes
        c4 = c.reshape(-1, da, db)
        marg = np.einsum("mab,mcb->mac", c4, c4.conj())
        values += spectral_entropy(np.linalg.eigvalsh(marg))
    return float(values.min())


def formation_two_qubit_closed_form(omega: TraceClassElement) -> float:
    """Exact two-qubit entanglement of formation (Wootters, PRL 80, 2245, 1998).

    With rho~ = (Y x Y) conj(rho) (Y x Y) and l1 >= ... >= l4 the square roots
    of the eigenvalues of sqrt(rho) rho~ sqrt(rho), the concurrence is
    C = max(0, l1 - l2 - l3 - l4) and E_F = h((1 + sqrt(1 - C^2)) / 2) with the
    binary entropy h.
    """
    if _require_factors(omega, 2) != (2, 2):
        raise BadFactorizationError("the closed form holds for two qubits")
    omega.require_state()
    rho = omega.to_matrix()
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(y, y)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ yy @ rho.conj() @ yy @ root), 0.0, None))[::-1]
    c = max(0.0, float(lam[0] - lam[1:].sum()))
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    return float(eta(x) + eta(1.0 - x))


def c_squashed_entanglement_k(
    omega: TraceClassElement, k: int, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """Best found sum_i pi_i I(A:B) over ensembles of at most k states averaging to omega."""
    da, db = _require_factors(omega, 2)
    omega.require_state()
    k = integer_parameter(k, "ensemble size k", 1)
    if k == 1 or omega.rank() <= 1:
        return _exact(mutual_information(omega), Direction.UPPER_BOUND, anchor="singleton ensemble")
    amp = purification_amplitude(omega)
    r = amp.shape[1]

    def objective(w):
        c = _members(amp, w, k, r)
        c4 = c.reshape(-1, k, da, db, r)
        # the joint term (r x dim: the smaller Gram side), then the A and B terms
        terms = (c.swapaxes(-1, -2), c4.reshape(-1, k, da, db * r), c4.swapaxes(2, 3).reshape(-1, k, db, da * r))
        if r == da == db:  # one shape, so one stacked call
            ent, grads = _entropy(np.stack(terms))
        else:
            ent, grads = zip(*map(_entropy, terms))
        (joint, s_a, s_b), (g_ab, g_a, g_b) = ent, grads
        g = g_a.reshape(c4.shape) + g_b.reshape(-1, k, db, da, r).swapaxes(2, 3)
        g = g.reshape(c.shape) - g_ab.swapaxes(-1, -2)
        return (s_a + s_b - joint).sum(axis=-1), _members_adjoint(amp, g, k, r)

    # the identity is the singleton ensemble, a critical point
    search = minimize_isometry(objective, k * r, r, budget, identity_start=False)
    return _from_search(search.value, Direction.UPPER_BOUND, search, ensemble_size=k)


def squashed_entanglement_k(
    omega: TraceClassElement, k: int, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """Best found half conditional mutual information over extensions with dim(E) = k.

    Extensions are parameterized by a channel on the purifying system,
    itself given by a Stinespring isometry, so the search sweeps all
    extensions of the declared environment dimension.
    """
    da, db = _require_factors(omega, 2)
    omega.require_state()
    k = integer_parameter(k, "extension dimension k", 1)
    if k == 1:
        return _exact(0.5 * mutual_information(omega), Direction.UPPER_BOUND, anchor="trivial extension")
    amp = purification_amplitude(omega)
    r = amp.shape[1]
    if r == 1:
        return _exact(0.5 * mutual_information(omega), Direction.UPPER_BOUND, anchor="pure state")
    f = r * k  # environment of the squashing channel covers every channel R -> E
    # n4 below is pure on ABEF, so S(ABE) = S(F).  Each marginal is M M^dag with
    # the kept system along the rows of M; the four Ms are zero-padded into one
    # stack so that one eigh call yields every spectrum and gradient (padding
    # adds only zero eigenvalues; the padded gradient entries are dropped).
    side, width = max(da * k, db * k, f), da * db * f
    signs = np.array([0.5, 0.5, -0.5, -0.5])  # AE, BE, F, E terms of half the CMI

    def objective(w):
        n = w.shape[0]
        n4 = np.einsum("xr,nefr->nxef", amp, w.reshape(n, k, f, r)).reshape(n, da, db, k, f)
        m = np.zeros((n, 4, side, width), dtype=complex)
        m[:, 0, : da * k, : db * f] = n4.transpose(0, 1, 3, 2, 4).reshape(n, da * k, db * f)
        m[:, 1, : db * k, : da * f] = n4.transpose(0, 2, 3, 1, 4).reshape(n, db * k, da * f)
        m[:, 2, :f, : da * db * k] = n4.reshape(n, da * db * k, f).swapaxes(1, 2)
        m[:, 3, :k] = n4.transpose(0, 3, 1, 2, 4).reshape(n, k, width)
        ent, g = _entropy(m)
        g = g * signs[:, None, None]
        g4 = (
            g[:, 0, : da * k, : db * f].reshape(n, da, k, db, f).transpose(0, 1, 3, 2, 4)
            + g[:, 1, : db * k, : da * f].reshape(n, db, k, da, f).transpose(0, 3, 1, 2, 4)
            + g[:, 2, :f, : da * db * k].swapaxes(1, 2).reshape(n, da, db, k, f)
            + g[:, 3, :k].reshape(n, k, da, db, f).transpose(0, 2, 3, 1, 4)
        )
        grad = np.einsum("nxef,xr->nefr", g4.reshape(n, da * db, k, f), amp.conj()).reshape(n, k * f, r)
        return (ent * signs).sum(axis=-1), grad

    # the identity is the trivial extension, a critical point
    search = minimize_isometry(objective, k * f, r, budget, identity_start=False)
    return _from_search(max(search.value, 0.0), Direction.UPPER_BOUND, search, extension_dim=k)


# ---------------------------------------------------------------------------
# measurement-side quantities
# ---------------------------------------------------------------------------


def classical_correlations(
    omega: TraceClassElement, povm_size: int | None = None, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """Best found H(omega_A) - sum_i pi_i H(omega_A^i) over rank-one POVMs on B.

    POVMs of the given size are parameterized by an isometry from B into the
    outcome space followed by the projective measurement there (Naimark), so
    the estimate is a lower bound on the Henderson-Vedral measure.
    """
    da, db = _require_factors(omega, 2)
    omega.require_state()
    m = integer_parameter(povm_size, "povm_size", 1) if povm_size is not None else max(2, db)
    if m < db:
        raise InvalidParameterError(f"povm size {m} cannot embed the measured system of dim {db}")
    h_a = von_neumann_entropy(partial_trace(omega, [0]))
    amp3 = purification_amplitude(omega).reshape(da, db, -1)

    def objective(w):
        # outcome i leaves A with M_i M_i^dag, M_i = sum_b amp[(a, b), :] w[i, b]
        ent, g = _entropy(np.einsum("abr,nib->niar", amp3, w))
        return ent.sum(axis=-1), np.einsum("niar,abr->nib", g, amp3.conj())

    search = minimize_isometry(objective, m, db, budget)
    return _from_search(max(h_a - search.value, 0.0), Direction.LOWER_BOUND, search, povm_size=m)


def quantum_discord(
    omega: TraceClassElement, povm_size: int | None = None, budget: OptimizerBudget | None = None
) -> BoundedValue:
    """I(A:B) minus the classical-correlations estimate; an upper bound on the discord."""
    cb = classical_correlations(omega, povm_size, budget)
    i_ab = mutual_information(omega)
    return _derived(
        max(i_ab - cb.value, 0.0), Direction.UPPER_BOUND, cb, mutual_information=i_ab, classical_correlations=cb.value
    )


@dataclass(frozen=True)
class KoashiWinterResult:
    residual: float
    classical_correlations: BoundedValue
    formation: BoundedValue
    marginal_entropy: float

    @property
    def converged(self) -> bool:
        return self.classical_correlations.converged and self.formation.converged


def koashi_winter_residual(
    omega_abc: TraceClassElement, budget: OptimizerBudget | None = None
) -> KoashiWinterResult:
    """|C_B(omega_AB) + E_F(omega_AC) - H(omega_A)| on a pure tripartite state.

    Both optimizers sweep the same ensemble family (B purifies omega_AC), so
    with converged budgets the residual is pure optimizer noise.
    """
    da, db, dc = _require_factors(omega_abc, 3)
    omega_abc.require_state()
    if omega_abc.rank() > 1:
        raise NotPureError("the relation is evaluated on pure tripartite states")
    omega_ab = partial_trace(omega_abc, [0, 1])
    omega_ac = partial_trace(omega_abc, [0, 2])
    h_a = von_neumann_entropy(partial_trace(omega_abc, [0]))
    rank_ac = max(omega_ac.rank(), 1)
    size = max(2, db, rank_ac)
    budget = budget or DEFAULT_BUDGET
    cb = classical_correlations(omega_ab, povm_size=size, budget=budget)
    ef = entanglement_of_formation(omega_ac, members=max(size, rank_ac), budget=replace(budget, seed=budget.seed + 1))
    return KoashiWinterResult(
        residual=abs(cb.value + ef.value - h_a),
        classical_correlations=cb,
        formation=ef,
        marginal_entropy=h_a,
    )
