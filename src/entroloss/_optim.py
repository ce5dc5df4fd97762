"""Derivative-free descent on the isometry manifold.

The search space is the set of complex isometries W (rows x cols, rows >=
cols, W^dag W = I).  Steps are random ambient directions retracted back to
the manifold by a sign-fixed QR factorization; the step length shrinks on
failure and grows mildly on success, so each restart terminates once the
step falls below ``min_step``.

All restarts advance together as one ``(restarts, rows, cols)`` stack: each
iteration retracts the still-active restarts with one stacked QR and scores
them with one objective call.  The objective contract is therefore a
``(B, rows, cols)`` stack of isometries in and a ``(B,)`` array of values
out.  Restart 0 starts at the identity embedding, every other restart at a
random isometry, and each restart draws its directions from its own stream
spawned from the budget seed, so the result is deterministic and every
restart follows the trajectory it would follow alone.
``random_isometry`` is the one sign-fixed QR draw the package uses for
Haar-random unitaries, isometries and Stinespring dilations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptimizerBudget:
    restarts: int = 16
    iterations: int = 2000
    seed: int = 0
    initial_step: float = 0.7
    shrink: float = 0.93
    grow: float = 1.25
    min_step: float = 1e-9


DEFAULT_BUDGET = OptimizerBudget()

# Iterations of search directions drawn per generator call.  A restart draws
# one direction on every iteration it is active, so drawing ahead reproduces
# its stream exactly; draws past its last iteration are never used.
_DRAW_CHUNK = 16


def qr_isometry(m: np.ndarray) -> np.ndarray:
    """Nearest-ish isometry via QR with the R diagonal phase fixed positive.

    ``m`` is one matrix or a stack of matrices along leading axes."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phase.conj()[..., None, :]


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random (rows x cols) isometry; a unitary when rows == cols."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return qr_isometry(g)


@dataclass(frozen=True)
class IsometrySearchResult:
    value: float
    isometry: np.ndarray
    restart_values: np.ndarray
    evaluations: np.ndarray  # objective evaluations per restart: the start plus one per active iteration

    @property
    def gap_estimate(self) -> float:
        if self.restart_values.size < 2:
            return 0.0
        ordered = np.sort(self.restart_values)
        return float(ordered[1] - ordered[0])

    @property
    def converged(self) -> bool:
        return self.restart_values.size >= 2 and self.gap_estimate <= 1e-4


def _descend(objective, w: np.ndarray, rngs: list, budget: OptimizerBudget):
    """Descend every restart of the stack ``w`` in place until its step falls below ``min_step``."""
    best = objective(w)
    step = np.full(len(rngs), budget.initial_step)
    evaluations = np.ones(len(rngs), dtype=int)
    directions = np.empty((len(rngs), _DRAW_CHUNK) + w.shape[1:], dtype=complex)
    for t in range(budget.iterations):
        active = np.flatnonzero(step >= budget.min_step)
        if active.size == 0:
            break
        j = t % _DRAW_CHUNK
        if j == 0:
            for i in active:
                g = rngs[i].standard_normal((_DRAW_CHUNK, 2) + w.shape[1:])
                directions[i] = g[:, 0] + 1j * g[:, 1]
        s = step[active]
        cand = qr_isometry(w[active] + s[:, None, None] * directions[active, j])
        val = objective(cand)
        evaluations[active] += 1
        won = val < best[active] - 1e-14
        up = active[won]
        w[up], best[up] = cand[won], val[won]
        step[active] = np.where(won, np.minimum(s * budget.grow, 2.0), s * budget.shrink)
    return best, evaluations


def minimize_isometry(
    objective, rows: int, cols: int, budget: OptimizerBudget | None = None
) -> IsometrySearchResult:
    """Multi-restart minimization of ``objective`` over (rows x cols) isometries.

    ``objective`` maps a (B, rows, cols) stack of isometries to (B,) values."""
    budget = budget or DEFAULT_BUDGET
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(budget.seed).spawn(budget.restarts)]
    w = np.stack([np.eye(rows, cols, dtype=complex)] + [random_isometry(rng, rows, cols) for rng in rngs[1:]])
    values, evaluations = _descend(objective, w, rngs, budget)
    best_idx = int(np.argmin(values))
    return IsometrySearchResult(
        value=float(values[best_idx]),
        isometry=w[best_idx],
        restart_values=values,
        evaluations=evaluations,
    )
