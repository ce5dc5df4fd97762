"""The stacked L-BFGS search against restarts run one after another, against the
Barzilai-Borwein search it replaced, and the objective gradients against
finite differences.

Every restart of ``minimize_isometry`` advances inside one stack, but it must
follow exactly the trajectory it would follow alone: the same start, the same
projected gradient, the same memory of (s, y) pairs, direction, QR
retraction, accept rule and step multiplier.  The reference below is that
one-restart-at-a-time loop, scoring one-element stacks with the same batched
objective.
"""

import numpy as np
import pytest

from entroloss import TraceClassElement, _optim, roofs
from entroloss._optim import (
    BATCH,
    GRADIENT_TOL,
    INITIAL_STEP,
    MEMORY,
    MIN_STEP,
    SHRINK,
    OptimizerBudget,
    _direction,
    _tangent,
    minimize_isometry,
    qr_isometry,
    random_isometry,
)
from entroloss.errors import InvalidParameterError
from entroloss.operators import purification_amplitude
from entroloss.rand import random_channel, random_density, random_pure

# long enough that several roofs see restarts leave the stack at different iterations
BUDGET = OptimizerBudget(restarts=4, iterations=600, seed=9)


def inner(a, b):
    """Real part of the Frobenius inner product <a, b>."""
    return np.einsum("ij,ij->", a.conj(), b).real


def start_points(rows, cols, budget):
    """The start of each restart: the isometry drawn from its own stream."""
    for seed in np.random.SeedSequence(budget.seed).spawn(budget.restarts):
        yield random_isometry(np.random.default_rng(seed), rows, cols)


def reference_search(objective, rows, cols, budget):
    """Restarts one after another, each a one-candidate L-BFGS loop; returns
    values, final isometries and trajectory lengths."""
    values, isometries, lengths = [], [], []
    for w in start_points(rows, cols, budget):
        value, grad = objective(w[None])
        best, g = float(value[0]), _tangent(w, grad[0])
        pairs = []  # (s, y), oldest first
        direction, norm, t = -INITIAL_STEP * g, np.linalg.norm(g), 1.0
        count = 1
        for _ in range(budget.iterations):
            if t < MIN_STEP or norm < GRADIENT_TOL:
                break
            cand = qr_isometry(w + t * direction)
            value, grad = objective(cand[None])
            count += 1
            if value[0] < best - 1e-14:
                g_new = _tangent(cand, grad[0])
                s, y = cand - w, g_new - _tangent(cand, g)
                if inner(s, y) > 0:
                    pairs = (pairs + [(s, y)])[-MEMORY:]
                basis = np.zeros((2 * MEMORY + 1, rows, cols), dtype=complex)
                for j, (s_j, y_j) in enumerate(pairs, start=MEMORY - len(pairs)):
                    basis[j], basis[MEMORY + j] = s_j, y_j
                basis[-1] = g_new
                d, gg = _direction(basis[None])
                direction, norm, t = d[0], np.sqrt(gg[0]), 1.0
                w, best, g = cand, float(value[0]), g_new
            else:
                t *= SHRINK
        values.append(best)
        isometries.append(w)
        lengths.append(count)
    return np.array(values), isometries, np.array(lengths)


# the Barzilai-Borwein step the L-BFGS direction replaced, with its constants
BB_SHRINK = 0.93  # step factor after a rejected step
BB_GROW = 1.25  # step factor after an accepted step with <s, y> <= 0


def bb_search(objective, rows, cols, budget):
    """The Barzilai-Borwein search, restarts one after another; returns the
    restart values and the rounds its stacked, batched form took: each restart
    scores one candidate in the round after an accepted step and up to
    ``BATCH`` after a rejected one, and all restarts share the start's round."""
    values, rounds = [], []
    for w in start_points(rows, cols, budget):
        value, grad = objective(w[None])
        best, g = float(value[0]), _tangent(w, grad[0])
        step = INITIAL_STEP
        spent, left, width = 0, 0, 1  # rounds, candidates left in this one, candidates in the next
        for _ in range(budget.iterations):
            if step < MIN_STEP or np.linalg.norm(g) < GRADIENT_TOL:
                break
            if left == 0:
                spent, left = spent + 1, width
            cand = qr_isometry(w - step * g)
            value, grad = objective(cand[None])
            left -= 1
            if value[0] < best - 1e-14:
                g_new = _tangent(cand, grad[0])
                moved, change = cand - w, g_new - _tangent(cand, g)
                sy = inner(moved, change)
                step = sy / inner(change, change) if sy > 0 else step * BB_GROW
                w, best, g = cand, float(value[0]), g_new
                left, width = 0, 1
            else:
                step *= BB_SHRINK
                width = BATCH
        values.append(best)
        rounds.append(spent)
    return np.array(values), 1 + max(rounds)


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
    """Run one roof and return (objective, rows, cols, budget, result) of its single search."""
    searches = []

    def capture(objective, rows, cols, budget):
        result = minimize_isometry(objective, rows, cols, budget)
        searches.append((objective, rows, cols, budget, result))
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
    q, r = np.linalg.qr(stack)  # the sign-fixed np.linalg.qr form, byte for byte
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert out.tobytes() == (q * (d / np.abs(d)).conj()[..., None, :]).tobytes()


@pytest.mark.parametrize("restarts", [1, 16])  # a lone restart 0 starts at its own draw too
@pytest.mark.parametrize("shape", [(2, 2), (4, 2), (8, 2), (16, 4), (6, 3)])
def test_stacked_starts_equal_per_restart_draws(shape, restarts):
    rows, cols = shape
    budget = OptimizerBudget(restarts=restarts, iterations=0, seed=23)
    seen = []

    def objective(w):
        seen.append(w.copy())
        return np.zeros(len(w)), np.zeros_like(w)

    minimize_isometry(objective, rows, cols, budget)
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)
    starts = [random_isometry(np.random.default_rng(seed), rows, cols) for seed in seeds]
    assert seen[0].tobytes() == np.stack(starts).tobytes()


def test_starts_are_memoized_read_only():
    starts = _optim._starts(23, 4, 3, 2)
    assert _optim._starts(23, 4, 3, 2) is starts
    with pytest.raises(ValueError, match="read-only"):
        starts[0, 0, 0] = 1.0


def test_a_descent_does_not_move_the_memoized_draws(rng):
    # the descent moves every restart of its stack in place; the memo keeps the draws
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a + a.conj().T
    budget = OptimizerBudget(restarts=3, iterations=5, seed=41)
    seen = []

    def objective(w):  # Re Tr[W^dag A W]
        seen.append(w.copy())
        return np.einsum("nij,ik,nkj->n", w.conj(), a, w).real, a @ w

    memo = _optim._starts(budget.seed, budget.restarts, 4, 2)
    drawn = memo.tobytes()
    first = minimize_isometry(objective, 4, 2, budget)
    second_start = len(seen)
    again = minimize_isometry(objective, 4, 2, budget)
    assert memo.tobytes() == drawn
    assert seen[0].tobytes() == seen[second_start].tobytes() == drawn
    assert (first.restart_values < objective(memo)[0]).all()  # every restart moved
    assert again.restart_values.tobytes() == first.restart_values.tobytes()


@pytest.mark.parametrize("name", sorted(ROOFS))
def test_a_repeated_search_is_bit_identical(name, monkeypatch, rng):
    # the second search draws its starts from the memo, the first built them
    _optim._starts.cache_clear()
    objective, rows, cols, budget, result = captured_search(monkeypatch, ROOFS[name], rng)
    again = minimize_isometry(objective, rows, cols, budget)
    assert again.restart_values.tobytes() == result.restart_values.tobytes()
    assert again.isometry.tobytes() == result.isometry.tobytes()
    assert again.evaluations.tolist() == result.evaluations.tolist() and again.rounds == result.rounds


# the long budget keeps the plain roof name; short budgets stop restarts
# inside a batch of speculative candidates
SEARCH_CASES = [
    pytest.param(name, iterations, id=name if iterations == BUDGET.iterations else f"{name}-{iterations}")
    for name in sorted(ROOFS)
    for iterations in (BUDGET.iterations, 0, 1, 2, 5, 9, 17)
]


@pytest.mark.parametrize("name, iterations", SEARCH_CASES)
def test_stacked_search_matches_sequential_restarts(name, iterations, monkeypatch, rng):
    budget = OptimizerBudget(restarts=BUDGET.restarts, iterations=iterations, seed=BUDGET.seed)
    objective, rows, cols, budget, result = captured_search(monkeypatch, ROOFS[name], rng, budget)
    values, isometries, evaluations = reference_search(objective, rows, cols, budget)
    assert result.restart_values.tobytes() == values.tobytes()
    assert result.isometry.tobytes() == isometries[int(np.argmin(values))].tobytes()
    assert result.steps.tolist() == evaluations.tolist()
    assert (result.evaluations >= result.steps).all()


# seeds of the inputs next to the fixture's
BB_SEEDS = [None, 1, 2]


def bb_case(name, seed, monkeypatch, rng):
    """One roof's search and the Barzilai-Borwein oracle's (values, rounds) on its objective."""
    rng = rng if seed is None else np.random.default_rng(seed)
    objective, rows, cols, budget, result = captured_search(monkeypatch, ROOFS[name], rng)
    return result, bb_search(objective, rows, cols, budget)


@pytest.mark.parametrize("seed", BB_SEEDS)
@pytest.mark.parametrize("name", sorted(ROOFS))
def test_lbfgs_is_no_looser_than_barzilai_borwein(name, seed, monkeypatch, rng):
    result, (values, _) = bb_case(name, seed, monkeypatch, rng)
    assert result.value <= values.min() + 1e-9


@pytest.mark.parametrize("seed", BB_SEEDS)
@pytest.mark.parametrize("name", ["c_squashed", "squashed", "squashed_padded"])
def test_lbfgs_takes_fewer_rounds_than_barzilai_borwein(name, seed, monkeypatch, rng):
    result, (_, rounds) = bb_case(name, seed, monkeypatch, rng)
    assert result.rounds < rounds


def two_loop(pairs, g):
    """-H g by the textbook two-loop recursion (Nocedal and Wright, Algorithm 7.4)."""
    q, alphas = g, []
    for s, y in reversed(pairs):
        alphas.append(inner(s, q) / inner(s, y))
        q = q - alphas[-1] * y
    gamma = inner(*pairs[-1]) / inner(pairs[-1][1], pairs[-1][1]) if pairs else INITIAL_STEP
    r = gamma * q
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - inner(y, r) / inner(s, y)) * s
    return -r


def memory_stack(pairs, g):
    """The [s_1 .. s_M, y_1 .. y_M, g] stack of one restart, oldest pair first, missing pairs zero."""
    basis = np.zeros((2 * MEMORY + 1, *g.shape), dtype=complex)
    for j, (s, y) in enumerate(pairs, start=MEMORY - len(pairs)):
        basis[j], basis[MEMORY + j] = s, y
    basis[-1] = g
    return basis


def random_pairs(rng, stored, shape):
    """``stored`` (s, y) pairs with <s, y> > 0, and a gradient."""
    def gauss():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    pairs = []
    for _ in range(stored):
        s = gauss()
        pairs.append((s, rng.uniform(0.2, 2.0) * s + 0.3 * gauss()))
    assert all(inner(s, y) > 0 for s, y in pairs)
    return pairs, gauss()


@pytest.mark.parametrize("stored", range(MEMORY + 1))
def test_direction_is_the_two_loop_recursion(stored, rng):
    # the compact form and the two-loop recursion are two evaluations of one H g
    pairs, g = random_pairs(rng, stored, (5, 2))
    d, gg = _direction(memory_stack(pairs, g)[None])
    expected = two_loop(pairs, g)
    assert np.allclose(d[0], expected, rtol=0, atol=1e-12 * np.linalg.norm(expected))
    assert gg[0] == pytest.approx(inner(g, g), rel=1e-14)
    assert inner(d[0], g) < 0
    if not pairs:  # an empty memory steps along -g at INITIAL_STEP
        assert d[0].tobytes() == (-INITIAL_STEP * g).tobytes()


def test_direction_of_a_stack_equals_one_call_per_restart(rng):
    stacks = [memory_stack(*random_pairs(rng, stored, (4, 3))) for stored in (0, 1, 2, 3, 3, 1)]
    d, gg = _direction(np.stack(stacks))
    for i, basis in enumerate(stacks):
        alone, gg_alone = _direction(basis[None])
        assert d[i].tobytes() == alone[0].tobytes() and gg[i] == gg_alone[0]


def test_direction_falls_back_to_the_first_step_when_not_downhill(rng):
    # the search stores no pair with <s, y> <= 0; one such pair here turns -H g uphill
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    d, _ = _direction(memory_stack([(g, -g)], g)[None])
    assert d[0].tobytes() == (-INITIAL_STEP * g).tobytes()


def test_first_candidate_is_the_gradient_step_at_initial_step(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a + a.conj().T
    seen = []

    def objective(w):  # Re Tr[W^dag A W]
        seen.append(w.copy())
        return np.einsum("nij,ik,nkj->n", w.conj(), a, w).real, a @ w

    minimize_isometry(objective, 4, 2, OptimizerBudget(restarts=3, iterations=1, seed=5))
    start = seen[0]
    g = _tangent(start, a @ start)
    assert seen[1].tobytes() == qr_isometry(start - INITIAL_STEP * g).tobytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", 0),
        ("restarts", -2),
        ("restarts", True),
        ("restarts", "4"),
        ("restarts", 2.5),
        ("restarts", float("nan")),
        ("iterations", -3),
        ("iterations", 1.5),
        ("iterations", False),
        ("iterations", None),
        ("seed", -1),
        ("seed", "0"),
        ("seed", 0.5),
        ("seed", float("inf")),
    ],
)
def test_budget_refuses_invalid_values(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        OptimizerBudget(**{field: value})


def test_budget_takes_integral_numbers():
    budget = OptimizerBudget(restarts=np.int64(3), iterations=5.0, seed=0)
    assert (budget.restarts, budget.iterations, budget.seed) == (3, 5, 0)
    assert all(type(v) is int for v in (budget.restarts, budget.iterations, budget.seed))


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


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_c_squashed_objective_equals_three_entropy_calls(dims, monkeypatch, rng):
    # at r = dA = dB the joint, A and B terms share a shape and go through one
    # stacked entropy call; values and gradients match one call per term
    omega = random_density(dims[0] * dims[1], rng, rank=2, factor_dims=dims)

    def run(rng, budget):
        return roofs.c_squashed_entanglement_k(omega, 2, budget)

    objective, rows, cols, *_ = captured_search(monkeypatch, run, rng, OptimizerBudget(restarts=1, iterations=0))
    amp = purification_amplitude(omega)
    k, r, (da, db) = 2, amp.shape[1], dims
    w = np.stack([random_isometry(rng, rows, cols) for _ in range(5)])
    c = roofs._members(amp, w, k, r)
    c4 = c.reshape(-1, k, da, db, r)
    joint, g_ab = roofs._entropy(c.swapaxes(-1, -2))
    s_a, g_a = roofs._entropy(c4.reshape(-1, k, da, db * r))
    s_b, g_b = roofs._entropy(c4.swapaxes(2, 3).reshape(-1, k, db, da * r))
    g = g_a.reshape(c4.shape) + g_b.reshape(-1, k, db, da, r).swapaxes(2, 3)
    g = g.reshape(c.shape) - g_ab.swapaxes(-1, -2)
    value, grad = objective(w)
    assert value.tobytes() == (s_a + s_b - joint).sum(axis=-1).tobytes()
    assert grad.tobytes() == roofs._members_adjoint(amp, g, k, r).tobytes()


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


def test_fewer_rows_than_columns_is_an_invalid_parameter():
    with pytest.raises(InvalidParameterError, match="rows >= cols") as raised:
        minimize_isometry(lambda w: (np.zeros(len(w)), np.zeros_like(w)), 2, 3)
    assert isinstance(raised.value, ValueError)  # callers that catch ValueError still do
