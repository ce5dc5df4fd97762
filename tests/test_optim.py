"""The stacked isometry search against restarts run one after another.

Every restart of ``minimize_isometry`` advances inside one stack, but it must
follow exactly the trajectory it would follow alone: the same directions from
its own stream, the same QR retraction and the same accept rule.  The
reference below is that one-restart-at-a-time loop, scoring one-element
stacks with the same batched objective.
"""

import numpy as np
import pytest

from entroloss import TraceClassElement, roofs
from entroloss._optim import OptimizerBudget, minimize_isometry, qr_isometry, random_isometry
from entroloss.rand import random_channel, random_density, random_pure

# long enough that several roofs see restarts leave the stack at different iterations
BUDGET = OptimizerBudget(restarts=4, iterations=600, seed=9)


def reference_search(objective, rows, cols, budget):
    """Restarts one after another; returns values, final isometries and evaluation counts."""
    values, isometries, evaluations = [], [], []
    for i, seed in enumerate(np.random.SeedSequence(budget.seed).spawn(budget.restarts)):
        rng = np.random.default_rng(seed)
        w = np.eye(rows, cols, dtype=complex) if i == 0 else random_isometry(rng, rows, cols)
        best = float(objective(w[None])[0])
        step = budget.initial_step
        count = 1
        for _ in range(budget.iterations):
            if step < budget.min_step:
                break
            d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
            cand = qr_isometry(w + step * d)
            val = float(objective(cand[None])[0])
            count += 1
            if val < best - 1e-14:
                w, best = cand, val
                step = min(step * budget.grow, 2.0)
            else:
                step *= budget.shrink
        values.append(best)
        isometries.append(w)
        evaluations.append(count)
    return np.array(values), isometries, np.array(evaluations)


def rank2_two_qubit(rng):
    a, b = random_pure(4, rng, (2, 2)), random_pure(4, rng, (2, 2))
    return TraceClassElement(0.6 * a.to_matrix() + 0.4 * b.to_matrix(), (2, 2), validate=False)


ROOFS = {
    "entropy_k_approximation": lambda rng: roofs.entropy_k_approximation(random_density(4, rng, rank=3), 2, BUDGET),
    "convex_closure": lambda rng: roofs.convex_closure_output_entropy(
        random_channel(3, 2, 2, rng), random_density(3, rng, rank=2), 3, BUDGET
    ),
    "formation": lambda rng: roofs.entanglement_of_formation(rank2_two_qubit(rng), members=3, budget=BUDGET),
    "c_squashed": lambda rng: roofs.c_squashed_entanglement_k(rank2_two_qubit(rng), 2, BUDGET),
    "squashed": lambda rng: roofs.squashed_entanglement_k(rank2_two_qubit(rng), 2, BUDGET),
    "classical_correlations": lambda rng: roofs.classical_correlations(rank2_two_qubit(rng), 3, BUDGET),
}


def captured_search(monkeypatch, run, rng):
    """Run one roof and return (objective, rows, cols, budget, result) of its single search."""
    searches = []

    def capture(objective, rows, cols, budget):
        result = minimize_isometry(objective, rows, cols, budget)
        searches.append((objective, rows, cols, budget, result))
        return result

    monkeypatch.setattr(roofs, "minimize_isometry", capture)
    run(rng)
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
    objective, rows, cols, budget, result = captured_search(monkeypatch, ROOFS[name], rng)
    values, isometries, evaluations = reference_search(objective, rows, cols, budget)
    assert result.restart_values.tobytes() == values.tobytes()
    assert result.isometry.tobytes() == isometries[int(np.argmin(values))].tobytes()
    assert result.evaluations.tolist() == evaluations.tolist()


def test_evaluations_count_every_scored_isometry():
    scored = []

    def objective(w):
        scored.append(w.shape[0])
        return 1.0 - np.abs(w[:, 0, 0]) ** 2

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


def test_restarts_stop_once_the_step_is_spent():
    # a constant objective never accepts a step, so each restart shrinks from
    # initial_step until it falls below min_step and then leaves the stack
    budget = OptimizerBudget(restarts=3, iterations=5000, seed=0)
    result = minimize_isometry(lambda w: np.zeros(w.shape[0]), 3, 2, budget)
    step, spent = budget.initial_step, 0
    while step >= budget.min_step:
        step *= budget.shrink
        spent += 1
    assert result.evaluations.tolist() == [1 + spent] * 3
