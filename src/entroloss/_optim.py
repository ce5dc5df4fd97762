"""Riemannian quasi-Newton descent on the isometry manifold.

The search space is the set of complex isometries W (rows x cols, rows >=
cols, W^dag W = I).  The objective contract is a ``(B, rows, cols)`` stack of
isometries in and a pair out: the ``(B,)`` values and the ``(B, rows, cols)``
Euclidean gradients G = df/dconj(W), normalized so that the derivative along
a direction D is Re Tr[G^dag D].  The objectives are homogeneous, so they
are defined off the manifold as well.

Each step projects G onto the tangent space at W, g = G - W herm(W^dag G)
(Edelman, Arias and Smith 1998, embedded metric), moves along a
limited-memory BFGS direction d = -H g and retracts to the manifold by a
sign-fixed QR factorization (quasi-Newton on manifolds: Huang, Absil and
Gallivan, SIAM J. Optim. 28, 2018).  Each restart keeps its last ``MEMORY``
pairs of an accepted move s = W_new - W_old and the gradient change y =
g_new - P(g_old), the old gradient projected to the new point; a pair with
<s, y> <= 0 is not stored, and stored pairs are not transported further.
H is the L-BFGS inverse Hessian from H_0 = gamma I, gamma = <s, y> / <y, y>
of the newest pair, in the compact form of Byrd, Nocedal and Schnabel (Math.
Prog. 63, 1994): with R the upper triangle of S^T Y and D its diagonal,

    H g = gamma g + S p - gamma Y u,   R u = S^T g,
    R^T p = (D + gamma Y^T Y) u - gamma Y^T g.

All inner products come from one batched Gram matrix of [S, Y, g] per round.
The two triangular systems are solved as one, for the coefficients of d on
S and Y, through numpy's ``solve`` gufunc without ``np.linalg.solve``'s
checks:

    [[0, R], [R^T, D / gamma + Y^T Y]] [-p; gamma u] = gamma [S^T g; Y^T g].

A missing pair is a zero column of S and Y with 1 on the system's diagonal
in both its rows, and gamma = INITIAL_STEP while the newest pair is
missing, so an empty memory gives d = -INITIAL_STEP g: the first candidate
of every restart, and the fallback where d is not downhill (<d, g> >= 0).

The candidate at multiplier t is qr(W + t d).  A step that lowers the value
by more than 1e-14 is accepted and the next t is 1; a rejected step
multiplies t by ``SHRINK``.  A restart stops once its projected gradient
norm falls below ``GRADIENT_TOL``, its multiplier below ``MIN_STEP`` or its
trajectory reaches the iteration budget.

All restarts advance together as one ``(restarts, rows, cols)`` stack: each
round retracts the candidates of the active restarts with one stacked QR and
scores them with one objective call.  After an accepted step a restart puts
one candidate in a round; after a rejected one, the next ``BATCH``
multipliers t, t SHRINK, ... that its rejections would try one round at a
time, none below ``MIN_STEP`` or past its budget, and it takes the first
candidate that lowers its value.  So every restart follows the
one-candidate trajectory in fewer rounds.  ``IsometrySearchResult.steps``
counts that trajectory, which the budget bounds; ``evaluations`` counts
every isometry scored and ``rounds`` the stacked objective calls.  A round
is then: the multipliers of the active restarts (t SHRINK^j, exact because
SHRINK is a power of two), the stacked retraction, the objective and the
accept rule; and for the restarts that accepted, one stacked ``_tangent``
call that projects the new gradient and the old one at the new point (the
memory's last slot holds the new raw gradient next to the old projected
one), one concatenate that pushes the pair and one ``_direction`` call.

Every restart starts at a random isometry drawn from its own stream spawned
from the budget seed, the draws retracted together by one stacked QR.  That
stack depends only on (seed, restarts, rows, cols), so it is built once per
key and kept read-only in a memo of ``STARTS_KEPT`` keys; a search descends a
copy.  The descent itself draws nothing, so the result is deterministic and
every restart follows the trajectory it would follow alone.
``random_isometry`` is the one sign-fixed QR draw the package uses
for Haar-random unitaries, isometries and Stinespring dilations.
``qr_isometry`` calls the gufuncs behind ``np.linalg.qr`` without its
``triu``, type checks and ``errstate``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
# the gufuncs behind np.linalg.solve and np.linalg.qr, without their wrappers' checks
from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced, solve as _solve

from .errors import InvalidParameterError
from .operators import integer_parameter


@dataclass(frozen=True)
class OptimizerBudget:
    restarts: int = 16
    iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("iterations", 0), ("seed", 0)):
            object.__setattr__(self, name, integer_parameter(getattr(self, name), f"budget {name}", least))


DEFAULT_BUDGET = OptimizerBudget()

# A restart leaves the stack once the Frobenius norm of its projected gradient
# falls below this.
GRADIENT_TOL = 3e-7
INITIAL_STEP = 0.7
SHRINK = 0.5  # multiplier factor after a rejected step
MIN_STEP = 1e-9
BATCH = 4  # candidates a restart scores in one round after a rejected step
MEMORY = 3  # (s, y) pairs a restart keeps for its L-BFGS direction
_UPPER = np.triu(np.ones((MEMORY, MEMORY)))
# [[0, R], [R^T, D / gamma + Y^T Y]] is this mask times the Gram matrix of [S, Y], plus a diagonal
_SADDLE = np.block([[np.zeros((MEMORY, MEMORY)), _UPPER], [_UPPER.T, np.ones((MEMORY, MEMORY))]])
_POWERS = SHRINK ** np.arange(BATCH + 1)  # t SHRINK^j is exact: SHRINK is a power of two
STARTS_KEPT = 32  # starting stacks memoized, one per (seed, restarts, rows, cols)


def qr_isometry(m: np.ndarray) -> np.ndarray:
    """Nearest-ish isometry via QR with the R diagonal phase fixed positive.

    ``m`` is one complex matrix or a stack of them along leading axes."""
    a = np.array(m, dtype=complex)  # overwritten with R above its diagonal and the reflectors below
    q = _qr_reduced(a, _qr_r_raw(a))
    d = np.diagonal(a, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phase = np.divide(d, mag, out=np.ones_like(d), where=mag > 0)
    return q * phase.conj()[..., None, :]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A (rows x cols) matrix of standard complex Gaussian entries."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random (rows x cols) isometry; a unitary when rows == cols."""
    return qr_isometry(_ginibre(rng, rows, cols))


@dataclass(frozen=True)
class IsometrySearchResult:
    value: float
    isometry: np.ndarray
    restart_values: np.ndarray
    evaluations: np.ndarray  # isometries scored per restart, the start and every speculative candidate included
    steps: np.ndarray  # trajectory length per restart: the start plus one per step taken or rejected
    rounds: int  # stacked objective calls shared by all restarts, the start's included
    multipliers: np.ndarray  # step multiplier t per restart when it stopped
    seconds: float  # wall time of the search, the starting draws included

    @property
    def gap_estimate(self) -> float:
        if self.restart_values.size < 2:
            return 0.0
        ordered = np.sort(self.restart_values)
        return float(ordered[1] - ordered[0])

    @property
    def converged(self) -> bool:
        return self.restart_values.size >= 2 and self.gap_estimate <= 1e-4


def _tangent(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project ambient gradients onto the tangent spaces of the isometries: G - W herm(W^dag G)."""
    wg = w.conj().swapaxes(-1, -2) @ g
    return g - w @ ((wg + wg.conj().swapaxes(-1, -2)) / 2)


def _direction(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L-BFGS directions -H g, and <g, g>, from stacks ``basis`` of [s_1 .. s_M,
    y_1 .. y_M, g], oldest pair first and missing pairs zero, in the compact
    form (module docstring)."""
    k = MEMORY
    v = basis.reshape(len(basis), 2 * k + 1, -1).view(float)  # Re<a, b> is the dot product of the real views
    gram = v @ v.swapaxes(-1, -2)
    sy = np.diagonal(gram[:, :k, k:-1], axis1=-2, axis2=-1)  # D; zero at the missing pairs
    missing = sy == 0
    # gamma = <s, y> / <y, y> of the newest pair, INITIAL_STEP while it is missing
    gamma = np.divide(sy[:, -1:], gram[:, -2, -2, None], out=np.full((len(v), 1), INITIAL_STEP), where=~missing[:, -1:])
    system = gram[:, :-1, :-1] * _SADDLE
    diagonal = system.reshape(len(v), -1)[:, :: 2 * k + 1]  # a view of each system's diagonal
    diagonal += np.concatenate([missing, sy / gamma + missing], axis=1)  # 1 at a missing pair
    coef = np.concatenate([_solve(system, gamma[..., None] * gram[:, :-1, -1:]), -gamma[..., None]], axis=1)
    d = (coef.swapaxes(-1, -2) @ v).view(complex).reshape(basis.shape[0], *basis.shape[2:])
    downhill = (gram[:, -1:] @ coef)[:, 0, 0] < 0
    if not downhill.all():
        d[~downhill] = -INITIAL_STEP * basis[~downhill, -1]  # the direction of an empty memory
    return d, gram[:, -1, -1]


def _descend(objective, w: np.ndarray, budget: OptimizerBudget):
    """Descend every restart of the stack ``w`` in place until its gradient, its
    step multiplier or its iteration budget is spent."""
    best, grad = objective(w)
    k = MEMORY
    # [S, Y, g] per restart, and a last slot that takes the raw gradient of its next accepted step
    basis = np.zeros((len(w), 2 * k + 2, *w.shape[1:]), dtype=complex)
    basis[:, 2 * k] = _tangent(w, grad)
    direction = -INITIAL_STEP * basis[:, 2 * k]
    norm = np.linalg.norm(basis[:, 2 * k], axis=(-2, -1))
    step = np.ones(len(w))  # 1 after an accepted step and at the start, below 1 after a rejected one
    evaluations, steps = np.ones(len(w), dtype=int), np.ones(len(w), dtype=int)
    rounds = 1
    offsets = np.arange(BATCH + 1)
    while True:
        active = np.flatnonzero((step >= MIN_STEP) & (norm >= GRADIENT_TOL) & (steps <= budget.iterations))
        if active.size == 0:
            break
        # the multipliers t, t SHRINK, ... of each active restart, one past the
        # batch; it scores one after an accepted step and BATCH after a rejected
        # one, as many as its budget allows and none below MIN_STEP
        lengths = step[active, None] * _POWERS
        limit = np.minimum(np.where(lengths[:, 0] < 1.0, BATCH, 1), budget.iterations + 1 - steps[active])
        scored = (lengths >= MIN_STEP) & (offsets < limit[:, None])
        count = scored.sum(axis=1)
        owner = active.repeat(count)
        cand = qr_isometry(w[owner] + lengths[scored][:, None, None] * direction[owner])
        val, g = objective(cand)
        rounds += 1
        # a restart takes its first candidate that lowers its value; one that
        # rejected all it scored stops at its first unscored multiplier, the next
        stop = ~scored
        stop[scored] = val < best[owner] - 1e-14
        first = stop.argmax(axis=1)
        won = first < count
        evaluations[active] += count
        steps[active] += first + won
        step[active] = np.where(won, 1.0, lengths[:, 0] * _POWERS[first])
        pick, up = (count.cumsum() - count + first)[won], active[won]
        if up.size == 0:
            continue
        # the pair (s, y) of each accepted step: one stacked projection at the
        # new point takes the old gradient and the new one from the last two
        # slots; the memory drops its oldest pair for it unless <s, y> <= 0
        new, old = cand[pick], basis[up]
        old[:, -1] = g[pick]
        both = _tangent(new[:, None], old[:, -2:])
        moved, change = new - w[up], both[:, 1] - both[:, 0]
        keep = np.einsum("nij,nij->n", moved.conj(), change).real > 0
        mem = np.concatenate([old[:, 1:k], moved[:, None], old[:, k + 1 : 2 * k], change[:, None], both[:, 1:]], axis=1)
        if not keep.all():
            mem[~keep, :-1] = old[~keep, : 2 * k]
        basis[up, :-1] = mem
        direction[up], gg = _direction(mem)
        w[up], best[up], norm[up] = new, val[pick], np.sqrt(gg)
    return best, evaluations, steps, rounds, step


@functools.lru_cache(maxsize=STARTS_KEPT)
def _starts(seed: int, restarts: int, rows: int, cols: int) -> np.ndarray:
    """The read-only stack of every restart's starting draw: the isometry
    ``random_isometry`` draws from the restart's stream spawned from ``seed``."""
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    w = qr_isometry(np.stack([_ginibre(np.random.default_rng(s), rows, cols) for s in seeds]))
    w.flags.writeable = False
    return w


def minimize_isometry(objective, rows: int, cols: int, budget: OptimizerBudget | None = None) -> IsometrySearchResult:
    """Multi-restart minimization of ``objective`` over (rows x cols) isometries.

    ``objective`` maps a (B, rows, cols) stack of isometries to its (B,)
    values and (B, rows, cols) gradients."""
    budget = budget or DEFAULT_BUDGET
    if rows < cols:
        raise InvalidParameterError(f"isometry needs rows >= cols, got {rows} < {cols}")
    start = time.perf_counter()
    w = _starts(budget.seed, budget.restarts, rows, cols).copy()
    values, evaluations, steps, rounds, multipliers = _descend(objective, w, budget)
    best_idx = int(np.argmin(values))
    return IsometrySearchResult(
        value=float(values[best_idx]),
        isometry=w[best_idx],
        restart_values=values,
        evaluations=evaluations,
        steps=steps,
        rounds=rounds,
        multipliers=multipliers,
        seconds=time.perf_counter() - start,
    )
