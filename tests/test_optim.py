"""The stacked gradient search against restarts run one after another, and the
objective gradients against finite differences.

Every restart of ``minimize_isometry`` advances inside one stack, but it must
follow exactly the trajectory it would follow alone: the same start, the same
projected gradient, the same QR retraction, accept rule and step length.  The
reference below is that one-restart-at-a-time loop, scoring one-element
stacks with the same batched objective.
"""

import numpy as np
import pytest

from entroloss import TraceClassElement, roofs
from entroloss._optim import (
    GRADIENT_TOL,
    GROW,
    INITIAL_STEP,
    MIN_STEP,
    SHRINK,
    OptimizerBudget,
    _tangent,
    minimize_isometry,
    qr_isometry,
    random_isometry,
)
from entroloss.rand import random_channel, random_density, random_pure

# long enough that several roofs see restarts leave the stack at different iterations
BUDGET = OptimizerBudget(restarts=4, iterations=600, seed=9)


def inner(a, b):
    """Real part of the Frobenius inner product <a, b>."""
    return np.einsum("ij,ij->", a.conj(), b).real


def reference_search(objective, rows, cols, budget, identity_start=True):
    """Restarts one after another; returns values, final isometries and evaluation counts."""
    values, isometries, evaluations = [], [], []
    for i, seed in enumerate(np.random.SeedSequence(budget.seed).spawn(budget.restarts)):
        if i == 0 and identity_start:
            w = np.eye(rows, cols, dtype=complex)
        else:
            w = random_isometry(np.random.default_rng(seed), rows, cols)
        value, grad = objective(w[None])
        best, g = float(value[0]), _tangent(w, grad[0])
        step = INITIAL_STEP
        count = 1
        for _ in range(budget.iterations):
            if step < MIN_STEP or np.linalg.norm(g) < GRADIENT_TOL:
                break
            cand = qr_isometry(w - step * g)
            value, grad = objective(cand[None])
            count += 1
            if value[0] < best - 1e-14:
                g_new = _tangent(cand, grad[0])
                moved, change = cand - w, g_new - _tangent(cand, g)
                sy = inner(moved, change)
                step = sy / inner(change, change) if sy > 0 else step * GROW
                w, best, g = cand, float(value[0]), g_new
            else:
                step *= SHRINK
        values.append(best)
        isometries.append(w)
        evaluations.append(count)
    return np.array(values), isometries, np.array(evaluations)


def rank2_two_qubit(rng):
    a, b = random_pure(4, rng, (2, 2)), random_pure(4, rng, (2, 2))
    return TraceClassElement(0.6 * a.to_matrix() + 0.4 * b.to_matrix(), (2, 2))


ROOFS = {
    "entropy_k_approximation": lambda rng, budget: roofs.entropy_k_approximation(
        random_density(4, rng, rank=3), 2, budget
    ),
    "convex_closure": lambda rng, budget: roofs.convex_closure_output_entropy(
        random_channel(3, 2, 2, rng), random_density(3, rng, rank=2), 3, budget
    ),
    "formation": lambda rng, budget: roofs.entanglement_of_formation(rank2_two_qubit(rng), members=3, budget=budget),
    "c_squashed": lambda rng, budget: roofs.c_squashed_entanglement_k(rank2_two_qubit(rng), 2, budget),
    "squashed": lambda rng, budget: roofs.squashed_entanglement_k(rank2_two_qubit(rng), 2, budget),
    "squashed_padded": lambda rng, budget: roofs.squashed_entanglement_k(
        random_density(6, rng, rank=2, factor_dims=(2, 3)), 3, budget
    ),
    "classical_correlations": lambda rng, budget: roofs.classical_correlations(rank2_two_qubit(rng), 3, budget),
}


def captured_search(monkeypatch, run, rng, budget=BUDGET):
    """Run one roof and return (objective, rows, cols, budget, kwargs, result) of its single search."""
    searches = []

    def capture(objective, rows, cols, budget, **kwargs):
        result = minimize_isometry(objective, rows, cols, budget, **kwargs)
        searches.append((objective, rows, cols, budget, kwargs, result))
        return result

    monkeypatch.setattr(roofs, "minimize_isometry", capture)
    run(rng, budget)
    assert len(searches) == 1
    return searches[0]


@pytest.mark.parametrize("shape", [(5, 4, 2), (3, 3, 3), (4, 8, 2), (2, 16, 4), (2, 3, 6, 2)])
def test_stacked_qr_isometry_equals_per_matrix(shape):
    rng = np.random.default_rng(31)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = qr_isometry(stack)
    flat_in, flat_out = stack.reshape(-1, *shape[-2:]), out.reshape(-1, *shape[-2:])
    for m, w in zip(flat_in, flat_out):
        assert w.tobytes() == qr_isometry(m).tobytes()
        assert np.allclose(w.conj().T @ w, np.eye(shape[-1]), atol=1e-12)
        r_diag = np.diagonal(w.conj().T @ m)  # m = w r with r's diagonal fixed real positive
        assert np.allclose(r_diag.imag, 0.0, atol=1e-12) and (r_diag.real > 0).all()


@pytest.mark.parametrize("name", sorted(ROOFS))
def test_stacked_search_matches_sequential_restarts(name, monkeypatch, rng):
    objective, rows, cols, budget, kwargs, result = captured_search(monkeypatch, ROOFS[name], rng)
    values, isometries, evaluations = reference_search(objective, rows, cols, budget, **kwargs)
    assert result.restart_values.tobytes() == values.tobytes()
    assert result.isometry.tobytes() == isometries[int(np.argmin(values))].tobytes()
    assert result.evaluations.tolist() == evaluations.tolist()


@pytest.mark.parametrize("name", sorted(ROOFS))
def test_objective_gradient_matches_finite_differences(name, monkeypatch, rng):
    # Re<G, D> is the derivative of the objective along D; the objectives are
    # homogeneous cone entropies, so they extend off the manifold and the
    # straight line W + hD is a valid finite-difference path
    objective, rows, cols, *_ = captured_search(
        monkeypatch, ROOFS[name], rng, OptimizerBudget(restarts=1, iterations=0)
    )
    w = np.stack([random_isometry(rng, rows, cols) for _ in range(3)])
    _, grad = objective(w)
    assert grad.shape == w.shape
    h = 1e-5
    for _ in range(4):
        d = _tangent(w, rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape))
        numeric = (objective(w + h * d)[0] - objective(w - h * d)[0]) / (2 * h)
        analytic = np.einsum("nij,nij->n", grad.conj(), d).real
        assert (np.abs(numeric - analytic) <= 1e-6 * np.abs(analytic)).all()


def test_evaluations_count_every_scored_isometry():
    scored = []

    def objective(w):
        scored.append(w.shape[0])
        grad = np.zeros_like(w)
        grad[:, 0, 0] = -2.0 * w[:, 0, 0]
        return 1.0 - np.abs(w[:, 0, 0]) ** 2, grad

    for iterations in (0, 1, 40, 400):
        scored.clear()
        budget = OptimizerBudget(restarts=5, iterations=iterations, seed=2)
        result = minimize_isometry(objective, 3, 2, budget)
        assert result.evaluations.shape == (5,)
        assert result.evaluations.min() >= 1
        assert result.evaluations.max() <= iterations + 1
        assert result.evaluations.sum() == sum(scored)
        if iterations == 0:
            assert result.evaluations.tolist() == [1] * 5
        if iterations == 400:
            assert result.value == pytest.approx(0.0, abs=1e-12)


def test_restarts_stop_once_the_step_is_spent():
    # a gradient that never leads downhill: every step is rejected, so each
    # restart shrinks from INITIAL_STEP until it falls below MIN_STEP and then
    # leaves the stack
    budget = OptimizerBudget(restarts=3, iterations=5000, seed=0)
    result = minimize_isometry(lambda w: (np.zeros(w.shape[0]), np.ones_like(w)), 3, 2, budget)
    step, spent = INITIAL_STEP, 0
    while step >= MIN_STEP:
        step *= SHRINK
        spent += 1
    assert result.evaluations.tolist() == [1 + spent] * 3


def test_restarts_stop_once_the_gradient_vanishes():
    # a constant objective has a zero gradient: every restart stops at its start
    budget = OptimizerBudget(restarts=3, iterations=5000, seed=0)
    result = minimize_isometry(lambda w: (np.zeros(w.shape[0]), np.zeros_like(w)), 3, 2, budget)
    assert result.evaluations.tolist() == [1] * 3
