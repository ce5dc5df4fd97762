"""Riemannian gradient descent on the isometry manifold.

The search space is the set of complex isometries W (rows x cols, rows >=
cols, W^dag W = I).  The objective contract is a ``(B, rows, cols)`` stack of
isometries in and a pair out: the ``(B,)`` values and the ``(B, rows, cols)``
Euclidean gradients G = df/dconj(W), normalized so that the derivative along
a direction D is Re Tr[G^dag D].  The objectives are homogeneous, so they
are defined off the manifold as well.

Each step projects G onto the tangent space at W, G - W herm(W^dag G)
(Edelman, Arias and Smith 1998, embedded metric), moves along minus the
projection and retracts to the manifold by a sign-fixed QR factorization.
A step that lowers the value is accepted and the next length is the
Barzilai-Borwein length <s, y> / <y, y> of the accepted move s and the
gradient change y (``GROW`` times the length when <s, y> <= 0); a rejected
step shrinks by ``SHRINK``.  A restart starts at ``INITIAL_STEP`` and stops
once its projected gradient norm falls below ``GRADIENT_TOL`` or its step
below ``MIN_STEP``.

All restarts advance together as one ``(restarts, rows, cols)`` stack: each
round retracts the candidates of the active restarts with one stacked QR and
scores them with one objective call.  After an accepted step a restart puts
one candidate in a round; after a rejected one, the next ``BATCH`` lengths
s, s SHRINK, ... that its rejections would try one round at a time, none
below ``MIN_STEP`` or past its budget, and it takes the first candidate that
lowers its value.  So every restart follows the one-candidate trajectory in
fewer rounds.  ``IsometrySearchResult.steps`` counts that trajectory, which
the budget bounds; ``evaluations`` counts every isometry scored.

Restart 0 starts at the identity embedding, every other restart at a random
isometry drawn from its own stream spawned from the budget seed, the draws
retracted together by one stacked QR.  An objective with a critical point at
the identity (a singleton ensemble, a trivial extension) would stop restart
0 there at once, so its search passes ``identity_start=False`` and restart 0
starts at its own draw too.  The descent itself draws nothing, so the result
is deterministic and every restart follows the trajectory it would follow
alone.  ``random_isometry`` is the one sign-fixed QR draw the package uses
for Haar-random unitaries, isometries and Stinespring dilations.
``qr_isometry`` calls the gufuncs behind ``np.linalg.qr`` without its
``triu``, type checks and ``errstate``; numpy < 2 names them otherwise, so
there it calls ``np.linalg.qr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizerBudget:
    restarts: int = 16
    iterations: int = 2000
    seed: int = 0


DEFAULT_BUDGET = OptimizerBudget()

# A restart leaves the stack once the Frobenius norm of its projected gradient
# falls below this.
GRADIENT_TOL = 3e-7
INITIAL_STEP = 0.7
SHRINK = 0.93  # step factor after a rejected step
GROW = 1.25  # step factor after an accepted step with <s, y> <= 0
MIN_STEP = 1e-9
BATCH = 4  # candidates a restart scores in one round after a rejected step


try:
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced
except ImportError:
    _qr_r_raw = _qr_reduced = None


def qr_isometry(m: np.ndarray) -> np.ndarray:
    """Nearest-ish isometry via QR with the R diagonal phase fixed positive.

    ``m`` is one complex matrix or a stack of them along leading axes."""
    if _qr_r_raw is None:
        q, r = np.linalg.qr(m)
        d = np.diagonal(r, axis1=-2, axis2=-1)
    else:
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


def _descend(objective, w: np.ndarray, budget: OptimizerBudget):
    """Descend every restart of the stack ``w`` in place until its gradient, its
    step or its iteration budget is spent."""
    best, grad = objective(w)
    grad = _tangent(w, grad)
    norm = np.linalg.norm(grad, axis=(-2, -1))
    step = np.full(len(w), INITIAL_STEP)
    evaluations, steps = np.ones(len(w), dtype=int), np.ones(len(w), dtype=int)
    width = np.ones(len(w), dtype=int)  # candidates per round: 1 after an accepted step, BATCH after a rejected one
    offsets = np.arange(BATCH + 1)
    while True:
        active = np.flatnonzero((step >= MIN_STEP) & (norm >= GRADIENT_TOL) & (steps <= budget.iterations))
        if active.size == 0:
            break
        # the lengths s, s SHRINK, ... of each active restart (each the one before
        # times SHRINK), one past the batch; it scores as many as its width and
        # its budget allow, none below MIN_STEP
        lengths = np.full((active.size, BATCH + 1), SHRINK)
        lengths[:, 0] = step[active]
        lengths = np.multiply.accumulate(lengths, axis=1)
        limit = np.minimum(width[active], budget.iterations + 1 - steps[active])
        scored = (lengths >= MIN_STEP) & (offsets < limit[:, None])
        count = scored.sum(axis=1)
        owner = active.repeat(count)
        cand = qr_isometry(w[owner] - lengths[scored][:, None, None] * grad[owner])
        val, g = objective(cand)
        # a restart takes its first candidate that lowers its value; one that
        # rejected all it scored stops at its first unscored length, the next
        stop = ~scored
        stop[scored] = val < best[owner] - 1e-14
        first = stop.argmax(axis=1)
        won = first < count
        s = lengths[np.arange(active.size), first]
        evaluations[active] += count
        steps[active] += first + won
        step[active] = s
        width[active] = np.where(won, 1, BATCH)
        pick, up = (count.cumsum() - count + first)[won], active[won]
        # Barzilai-Borwein length <s, y> / <y, y> from the accepted move s and
        # the change y of the gradient, the old one projected to the new point;
        # one stacked call projects both
        new = cand[pick]
        both = _tangent(np.concatenate([new, new]), np.concatenate([g[pick], grad[up]]))
        g, carried = both[: up.size], both[up.size :]
        moved, change = new - w[up], g - carried
        sy = np.einsum("nij,nij->n", moved.conj(), change).real
        yy = np.einsum("nij,nij->n", change.conj(), change).real
        step[up] = np.where(sy > 0, sy / np.where(sy > 0, yy, 1.0), s[won] * GROW)
        w[up], best[up], grad[up] = new, val[pick], g
        norm[up] = np.linalg.norm(g, axis=(-2, -1))
    return best, evaluations, steps


def minimize_isometry(
    objective, rows: int, cols: int, budget: OptimizerBudget | None = None, identity_start: bool = True
) -> IsometrySearchResult:
    """Multi-restart minimization of ``objective`` over (rows x cols) isometries.

    ``objective`` maps a (B, rows, cols) stack of isometries to its (B,)
    values and (B, rows, cols) gradients; ``identity_start`` puts restart 0
    at the identity embedding instead of a random isometry."""
    budget = budget or DEFAULT_BUDGET
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    # each start is the draw random_isometry makes from its restart's stream
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    w = qr_isometry(np.stack([_ginibre(np.random.default_rng(seed), rows, cols) for seed in seeds]))
    if identity_start:
        w[0] = np.eye(rows, cols)
    values, evaluations, steps = _descend(objective, w, budget)
    best_idx = int(np.argmin(values))
    return IsometrySearchResult(
        value=float(values[best_idx]),
        isometry=w[best_idx],
        restart_values=values,
        evaluations=evaluations,
        steps=steps,
    )
