"""Derivative-free descent on the isometry manifold.

The search space is the set of complex isometries W (rows x cols, rows >=
cols, W^dag W = I).  Steps are random ambient directions retracted back to
the manifold by a sign-fixed QR factorization; the step length shrinks on
failure and grows mildly on success, so each restart terminates once the
step falls below ``min_step``.  Restarts run one after another, each on its
own stream spawned from the budget seed, so the result is deterministic.
``random_isometry`` is the one sign-fixed QR draw the package uses for
Haar-random unitaries, isometries and Stinespring dilations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    def reseeded(self, seed: int) -> "OptimizerBudget":
        return replace(self, seed=seed)


DEFAULT_BUDGET = OptimizerBudget()


def qr_isometry(m: np.ndarray) -> np.ndarray:
    """Nearest-ish isometry via QR with the R diagonal phase fixed positive."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r).copy()
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phase.conj()


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random (rows x cols) isometry; a unitary when rows == cols."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return qr_isometry(g)


def identity_isometry(rows: int, cols: int) -> np.ndarray:
    w = np.zeros((rows, cols), dtype=complex)
    w[np.arange(cols), np.arange(cols)] = 1.0
    return w


@dataclass(frozen=True)
class IsometrySearchResult:
    value: float
    isometry: np.ndarray
    restart_values: np.ndarray

    @property
    def gap_estimate(self) -> float:
        if self.restart_values.size < 2:
            return 0.0
        ordered = np.sort(self.restart_values)
        return float(ordered[1] - ordered[0])

    @property
    def converged(self) -> bool:
        return self.restart_values.size >= 2 and self.gap_estimate <= 1e-4


def _descend(objective, w0: np.ndarray, rng: np.random.Generator, budget: OptimizerBudget):
    w = w0
    best = float(objective(w))
    step = budget.initial_step
    shape = w.shape
    for _ in range(budget.iterations):
        if step < budget.min_step:
            break
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cand = qr_isometry(w + step * d)
        val = float(objective(cand))
        if val < best - 1e-14:
            w, best = cand, val
            step = min(step * budget.grow, 2.0)
        else:
            step *= budget.shrink
    return best, w


def minimize_isometry(
    objective,
    rows: int,
    cols: int,
    budget: OptimizerBudget | None = None,
    extra_starts=(),
    include_identity_start: bool = True,
) -> IsometrySearchResult:
    """Multi-restart minimization of ``objective`` over (rows x cols) isometries."""
    budget = budget or DEFAULT_BUDGET
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    starts = [np.asarray(s, dtype=complex) for s in extra_starts]
    if include_identity_start:
        starts.insert(0, identity_isometry(rows, cols))
    outcomes = []
    for i, seed in enumerate(np.random.SeedSequence(budget.seed).spawn(budget.restarts)):
        rng = np.random.default_rng(seed)
        w0 = starts[i] if i < len(starts) else random_isometry(rng, rows, cols)
        outcomes.append(_descend(objective, w0, rng, budget))
    values = np.array([v for v, _ in outcomes])
    best_idx = int(np.argmin(values))
    return IsometrySearchResult(
        value=float(values[best_idx]),
        isometry=outcomes[best_idx][1],
        restart_values=values,
    )
