import math

import numpy as np
import pytest

from entroloss import (
    Direction,
    TraceClassElement,
    c_squashed_entanglement_k,
    classical_correlations,
    cli,
    constrained_holevo_estimate,
    conditional_mutual_information,
    convex_closure_output_entropy,
    depolarizing_channel,
    entanglement_of_formation,
    entropy_k_approximation,
    entropy_k_gap,
    formation_two_member_grid,
    formation_two_qubit_closed_form,
    identity_channel,
    koashi_winter_residual,
    mutual_information,
    partial_trace,
    partial_trace_channel,
    purification_amplitude,
    quantum_discord,
    roofs,
    squashed_entanglement_k,
    tensor,
    von_neumann_entropy,
)
from entroloss._optim import DEFAULT_BUDGET, OptimizerBudget, minimize_isometry, random_isometry
from entroloss.errors import InvalidParameterError, NotPureError
from entroloss.rand import random_density, random_pure

LOG2 = math.log(2.0)
BUDGET = OptimizerBudget(restarts=8, iterations=800, seed=17)


def bell():
    return TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))


def rank2_two_qubit(rng, weight=0.5):
    a = random_pure(4, rng, (2, 2))
    b = random_pure(4, rng, (2, 2))
    m = weight * a.to_matrix() + (1 - weight) * b.to_matrix()
    return TraceClassElement(m, (2, 2))


# -- the 2-row closed form of the cone entropy -----------------------------------


def eigh_path(m):
    """``roofs._entropy`` of 2-row matrices through its eigh path: a zero third
    row adds one zero eigenvalue, off the support, and gets a zero gradient row."""
    value, grad = roofs._entropy(np.concatenate([m, np.zeros_like(m[..., :1, :])], axis=-2))
    return value, grad[..., :2, :]


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def two_row_stacks(rng):
    """Stacks of 2-row matrices M, named by the spectrum of M M^dag."""
    flips = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 1.0j]))
    return {
        "random": [gaussian(rng, 30, 2, 2), 1e-3 * gaussian(rng, 10, 2, 2), gaussian(rng, 10, 2, 4)],
        # product members: one row zero, so the smaller eigenvalue is exactly 0
        "rank_one": [
            np.stack([np.stack([gaussian(rng, 3), np.zeros(3)]) * s for s in (1.0, 1e-4, 7.0)]),
            np.stack([np.zeros(2), 1j * gaussian(rng, 2)])[None],
        ],
        # maximally entangled members: rho is c I, exactly for the flips and
        # up to rounding for Haar-random isometries
        "degenerate": [
            np.stack([c * u for c in (1.0, 0.3j, 2.5) for u in flips]),
            np.stack([c * random_isometry(rng, 2, 2) for c in (1.0, 0.2, 3.0 + 1.0j)]),
            np.stack([c * random_isometry(rng, 3, 2).T for c in (1.0, 0.2)]),
        ],
        "zero": [np.zeros((3, 2, 3), dtype=complex)],
    }


@pytest.mark.parametrize("kind", ["random", "rank_one", "degenerate", "zero"])
def test_two_row_entropy_equals_the_eigh_path(kind, rng):
    for m in two_row_stacks(rng)[kind]:
        value, grad = roofs._entropy(m)
        expected, expected_grad = eigh_path(m)
        assert np.isfinite(value).all() and np.isfinite(grad).all()
        assert not np.signbit(value).any()  # no negative entropy, not even -0.0
        # relative to the trace and to |M|, the scales of a cone entropy and its gradient
        size = np.linalg.norm(m, axis=(-2, -1))
        assert (np.abs(value - expected) <= 1e-13 * np.maximum(np.abs(expected), size**2)).all()
        gap = np.linalg.norm(grad - expected_grad, axis=(-2, -1))
        assert (gap <= 1e-13 * np.maximum(np.linalg.norm(expected_grad, axis=(-2, -1)), size)).all()
        if kind == "zero":
            assert not value.any() and not grad.any()


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e100])
def test_two_row_entropy_is_finite_and_homogeneous_at_any_scale(scale, rng):
    # S(s M) = s^2 S(M) and G(s M) = s G(M); at s = 1e-160 rho is subnormal,
    # where only finiteness holds (a floating-point warning fails the test)
    m = gaussian(rng, 20, 2, 3)
    m[::4, 1] = 0.0  # product members too
    value, grad = roofs._entropy(scale * m)
    assert np.isfinite(value).all() and np.isfinite(grad).all()
    if scale**2 > 1e-300:
        expected, expected_grad = roofs._entropy(m)
        assert np.allclose(value, scale**2 * expected, rtol=1e-12, atol=0.0)
        assert np.allclose(grad, scale * expected_grad, rtol=1e-12, atol=1e-12 * scale)


def test_two_row_entropy_gradient_matches_finite_differences_at_a_degenerate_point(rng):
    # at rho = c I the divided difference is its limit 1 / lambda
    m = np.stack([0.6 * np.eye(2, dtype=complex), 0.8j * random_isometry(rng, 2, 2)])
    _, grad = roofs._entropy(m)
    h = 1e-6
    for _ in range(4):
        d = gaussian(rng, *m.shape)
        numeric = (roofs._entropy(m + h * d)[0] - roofs._entropy(m - h * d)[0]) / (2 * h)
        analytic = np.einsum("nij,nij->n", grad.conj(), d).real
        assert np.allclose(numeric, analytic, rtol=1e-7, atol=1e-9)


# -- entropy approximators ----------------------------------------------------


def test_rank_one_approximation_vanishes(rng):
    rho = random_density(3, rng)
    out = entropy_k_approximation(rho, 1, BUDGET)
    assert out.value == 0.0 and out.exact
    assert out.direction is Direction.LOWER_BOUND


def test_full_rank_approximation_is_entropy(rng):
    rho = random_density(3, rng)
    out = entropy_k_approximation(rho, 3, BUDGET)
    assert out.value == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
    assert out.exact


def test_gap_of_maximally_mixed_qubit():
    rho = TraceClassElement(np.array([0.5, 0.5]))
    assert entropy_k_approximation(rho, 1).value == 0.0
    gap = entropy_k_gap(rho, 1)
    assert gap.value == pytest.approx(LOG2, abs=1e-12)
    assert gap.exact and gap.direction is Direction.UPPER_BOUND


def test_gap_of_pure_state_all_k(rng):
    psi = random_pure(3, rng)
    for k in (1, 2, 3):
        assert entropy_k_gap(psi, k).value == pytest.approx(0.0, abs=1e-12)


def test_gap_vanishes_at_rank(rng):
    rho = random_density(4, rng, rank=2)
    assert entropy_k_gap(rho, 2).value == pytest.approx(0.0, abs=1e-12)


def test_intermediate_approximation_bounded(rng):
    rho = random_density(4, rng)
    h = von_neumann_entropy(rho)
    out = entropy_k_approximation(rho, 2, BUDGET)
    assert 0.0 <= out.value <= h + 1e-9
    gap = entropy_k_gap(rho, 2, BUDGET)
    assert gap.value == pytest.approx(h - out.value, abs=1e-12)


def test_gap_scaling_monotone_under_operator_order(rng):
    # operator order rho <= sigma realized by scaling; gaps ordered at the exact anchor k = 1
    sigma = random_density(3, rng).scaled(0.8)
    rho = sigma.scaled(0.5)
    assert entropy_k_gap(rho, 1).value <= entropy_k_gap(sigma, 1).value + 1e-12


def test_gap_subadditive_at_certified_points(rng):
    # rank-one summands: the summed state has rank <= 2, every term is exact
    a = random_pure(3, rng).scaled(0.5)
    b = random_pure(3, rng).scaled(0.5)
    summed = TraceClassElement(a.to_matrix() + b.to_matrix())
    lhs = entropy_k_gap(summed, 2).value
    rhs = entropy_k_gap(a, 1).value + entropy_k_gap(b, 1).value
    assert lhs <= rhs + 1e-9


# -- convex closure and constrained capacity -----------------------------------


def test_convex_closure_identity_channel(rng):
    rho = random_density(3, rng)
    out = convex_closure_output_entropy(identity_channel(3), rho, 3, BUDGET)
    assert out.value == pytest.approx(0.0, abs=1e-9)


def test_convex_closure_full_depolarizing(rng):
    from entroloss import depolarizing_channel

    rho = random_density(2, rng)
    out = convex_closure_output_entropy(depolarizing_channel(1.0, 2), rho, 2, BUDGET)
    assert out.value == pytest.approx(LOG2, abs=1e-9)


def test_convex_closure_matches_formation_on_partial_trace(rng):
    op = partial_trace_channel((2, 2), keep=0)
    # pure input: both are exact anchors
    psi = random_pure(4, rng, (2, 2))
    coh = convex_closure_output_entropy(op, psi, 1, BUDGET)
    ef = entanglement_of_formation(psi, budget=BUDGET)
    assert coh.value == pytest.approx(ef.value, abs=1e-10)
    # mixed rank-2 input: identical optimization problems
    omega = rank2_two_qubit(rng)
    coh = convex_closure_output_entropy(op, omega, 2, BUDGET)
    ef = entanglement_of_formation(omega, members=2, budget=BUDGET)
    assert coh.value == pytest.approx(ef.value, abs=1e-9)


def test_an_ensemble_smaller_than_the_rank_is_refused(rng):
    rho = random_density(3, rng)  # full rank: three pure members at least
    op = depolarizing_channel(0.3, 3)
    sigma = random_density(4, rng)  # rank 4: members * k >= 4 for rank-k members
    calls = {
        "convex closure": lambda: convex_closure_output_entropy(op, rho, 2, BUDGET),
        "constrained Holevo": lambda: constrained_holevo_estimate(op, rho, 2, BUDGET),
        "approximator": lambda: entropy_k_approximation(sigma, 2, BUDGET, members=1),
        "gap": lambda: entropy_k_gap(sigma, 3, BUDGET, members=1),
    }
    for call in calls.values():
        with pytest.raises(InvalidParameterError, match="below rank"):
            call()
    # at the rank the search runs
    assert convex_closure_output_entropy(op, rho, 3, BUDGET).value >= 0.0


def test_constrained_holevo_identity_consistency(rng):
    rho = random_density(2, rng)
    est = constrained_holevo_estimate(identity_channel(2), rho, 2, BUDGET)
    assert est.value == pytest.approx(von_neumann_entropy(rho), abs=1e-6)
    assert est.meta["convex_closure"] + est.value == pytest.approx(est.meta["output_entropy"], abs=1e-12)


# -- entanglement of formation ---------------------------------------------------


def test_formation_pure_state_exact(rng):
    psi = random_pure(4, rng, (2, 2))
    out = entanglement_of_formation(psi)
    assert out.exact
    assert out.value == pytest.approx(von_neumann_entropy(partial_trace(psi, [0])), abs=1e-12)


def test_formation_bell():
    out = entanglement_of_formation(bell())
    assert out.value == pytest.approx(LOG2, abs=1e-6)


def test_formation_product_mixed(rng):
    w = tensor(random_density(2, rng), random_density(2, rng))
    out = entanglement_of_formation(w, budget=BUDGET)
    assert out.value <= 5e-4


def test_formation_matches_grid_oracle(rng):
    for _ in range(3):
        omega = rank2_two_qubit(rng)
        est = entanglement_of_formation(omega, members=2, budget=BUDGET)
        oracle = formation_two_member_grid(omega)
        assert abs(est.value - oracle) <= 1e-2


def test_closed_form_anchors():
    assert formation_two_qubit_closed_form(bell()) == pytest.approx(LOG2, abs=1e-12)
    mixed = TraceClassElement(np.eye(4) / 4, (2, 2))
    assert formation_two_qubit_closed_form(mixed) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_formation_brackets_closed_form(seed):
    # both the optimizer and the grid oracle minimize over decompositions, so
    # neither may fall below the exact value
    omega = rank2_two_qubit(np.random.default_rng(seed))
    exact = formation_two_qubit_closed_form(omega)
    est = entanglement_of_formation(omega, members=2)
    assert exact - 1e-12 <= est.value <= exact + 1e-6
    assert formation_two_member_grid(omega) >= exact - 1e-12


def test_grid_oracle_requires_rank_two(rng):
    with pytest.raises(ValueError):
        formation_two_member_grid(random_density(4, rng, factor_dims=(2, 2)))


# -- squashed and c-squashed -------------------------------------------------------


def test_csq_product(rng):
    w = tensor(random_density(2, rng), random_density(2, rng))
    out = c_squashed_entanglement_k(w, 2, BUDGET)
    assert out.value <= 5e-3


def test_csq_bell_singleton():
    out = c_squashed_entanglement_k(bell(), 1)
    assert out.exact
    assert out.value == pytest.approx(2 * LOG2, abs=1e-10)


def test_csq_separable_mixture(rng):
    p0 = TraceClassElement.pure([1.0, 0.0])
    p1 = TraceClassElement.pure([0.0, 1.0])
    w = TraceClassElement(
        0.5 * tensor(p0, p0).to_matrix() + 0.5 * tensor(p1, p1).to_matrix(), (2, 2)
    )
    out = c_squashed_entanglement_k(w, 2, BUDGET)
    assert out.value <= 1e-3


def test_squashed_trivial_extension(rng):
    w = random_density(4, rng, factor_dims=(2, 2))
    out = squashed_entanglement_k(w, 1)
    assert out.exact
    assert out.value == pytest.approx(0.5 * float(mutual_information(w)), abs=1e-12)


def test_squashed_product(rng):
    w = tensor(random_density(2, rng), random_density(2, rng))
    for k in (1, 2):
        assert squashed_entanglement_k(w, k, BUDGET).value <= 5e-3


def test_squashed_separable_flag_extension_oracle(rng):
    # two-term separable mixture; the classical-flag extension has zero
    # conditional mutual information, so the estimate must drop toward 0 at k = 2
    a0, b0 = random_density(2, rng), random_density(2, rng)
    a1, b1 = random_density(2, rng), random_density(2, rng)
    w = TraceClassElement(
        0.5 * tensor(a0, b0).to_matrix() + 0.5 * tensor(a1, b1).to_matrix(), (2, 2)
    )
    # explicit flag-extension value: arrange factors (A, E, B) and condition on E
    flag = np.zeros((4 * 2 * 4,))
    ext = 0.5 * np.kron(np.kron(a0.to_matrix(), np.diag([1.0, 0.0])), b0.to_matrix()) + 0.5 * np.kron(
        np.kron(a1.to_matrix(), np.diag([0.0, 1.0])), b1.to_matrix()
    )
    ext_el = TraceClassElement(ext, (2, 2, 2))
    flag_value = 0.5 * conditional_mutual_information(ext_el)
    assert flag_value <= 1e-10  # product members make the flag extension exact
    e1 = squashed_entanglement_k(w, 1)
    e2 = squashed_entanglement_k(w, 2, BUDGET)
    assert e2.value <= e1.value + 1e-9
    assert e2.value <= flag_value + 5e-3


@pytest.mark.parametrize("dims,k", [((2, 2), 2), ((2, 2), 3), ((2, 3), 2)])
def test_squashed_objective_is_half_the_extension_cmi(dims, k, rng, monkeypatch):
    # the objective reads S(ABE) off the purifying system F and pads the four
    # marginals into one stack; rebuild the extension on (A, E, B) explicitly
    # and compare with the three-factor conditional mutual information, which
    # takes S(ABE) from the extension itself: the two differ only by rounding
    da, db = dims
    omega = random_density(da * db, rng, rank=2, factor_dims=dims)
    captured = []

    def capture(objective, rows, cols, budget, **kwargs):
        captured.append(objective)
        return minimize_isometry(objective, rows, cols, budget, **kwargs)

    monkeypatch.setattr(roofs, "minimize_isometry", capture)
    squashed_entanglement_k(omega, k, OptimizerBudget(restarts=1, iterations=0))
    amp = purification_amplitude(omega)
    f = 2 * k
    stack = np.stack([random_isometry(rng, k * f, 2) for _ in range(3)])
    values, _ = captured[0](stack)
    for w, value in zip(stack, values):
        n4 = np.einsum("xr,efr->xef", amp, w.reshape(k, f, 2)).reshape(da, db, k, f)
        aeb = np.einsum("abef,cdgf->aebcgd", n4, n4.conj()).reshape(da * k * db, da * k * db)
        extension = TraceClassElement(aeb, (da, k, db))
        assert value == pytest.approx(0.5 * conditional_mutual_information(extension), abs=1e-13)


# -- against the random-direction search --------------------------------------------

# (formation, c-squashed k = 2, squashed k = 2, classical correlations) at the
# default budget on rank2_two_qubit(default_rng(800 + i)), as reported by the
# random-direction search that the gradient step replaced
RANDOM_SEARCH_VALUES = [
    (0.040151522898273284, 0.07653019040102782, 0.03196984807217135, 0.1393276857610331),
    (0.2577646987592094, 0.5115488839152573, 0.2519395375129925, 0.4567977948380245),
    (0.08105206133668347, 0.1589231140628341, 0.07494093426089743, 0.27760658768300567),
    (0.13845001538979906, 0.2757613327429413, 0.1378806888385834, 0.5958377626113162),
    (0.08704370866569433, 0.17138613058948027, 0.08371546463572016, 0.371486301809895),
    (0.06665032299110546, 0.13157430196917047, 0.06528686350085428, 0.2593189771851917),
    (0.23874169936254988, 0.4720161109798154, 0.22886967110749576, 0.31132494741841754),
    (0.1156863711922459, 0.22599205290317964, 0.10400127814126159, 0.2692755722951952),
]


@pytest.mark.parametrize("i", range(len(RANDOM_SEARCH_VALUES)))
def test_gradient_search_is_no_looser_than_the_random_search(i):
    omega = rank2_two_qubit(np.random.default_rng(800 + i))
    ef, csq, sq, cc = RANDOM_SEARCH_VALUES[i]
    assert entanglement_of_formation(omega).value <= ef + 1e-10
    assert c_squashed_entanglement_k(omega, 2).value <= csq + 1e-10
    squashed = squashed_entanglement_k(omega, 2)
    assert squashed.value <= sq + 1e-10
    # the random search ran every squashed restart to the iteration cap
    restarts, cap = DEFAULT_BUDGET.restarts, DEFAULT_BUDGET.iterations + 1
    assert squashed.meta["evaluations"] < restarts * cap
    assert classical_correlations(omega).value >= cc - 1e-10


@pytest.mark.parametrize("i", range(4))
def test_one_restart_descends_from_the_singleton_and_the_trivial_extension(i):
    # the singleton ensemble and the trivial extension are critical points of
    # the c-squashed and squashed objectives, so a search that started its
    # only restart there would stop at once on I(A:B) and I(A:B) / 2
    omega = rank2_two_qubit(np.random.default_rng(800 + i))
    mi = float(mutual_information(omega))
    budget = OptimizerBudget(restarts=1)
    c_squashed = c_squashed_entanglement_k(omega, 2, budget)
    squashed = squashed_entanglement_k(omega, 2, budget)
    assert c_squashed.value < mi - 1e-3
    assert squashed.value < mi / 2 - 1e-3
    assert c_squashed.meta["evaluations"] > 1 and squashed.meta["evaluations"] > 1


def test_search_meta_records_cost_and_agreement(rng, monkeypatch):
    searches = []

    def capture(objective, rows, cols, budget):
        searches.append(minimize_isometry(objective, rows, cols, budget))
        return searches[-1]

    monkeypatch.setattr(roofs, "minimize_isometry", capture)
    out = entanglement_of_formation(rank2_two_qubit(rng), members=3, budget=BUDGET)
    (search,) = searches
    assert out.meta["members"] == 3
    assert out.meta["evaluations"] == search.evaluations.sum() > BUDGET.restarts
    assert out.meta["steps"] == search.steps.sum() <= out.meta["evaluations"]
    assert out.meta["rounds"] == search.rounds
    assert 1 < out.meta["rounds"] <= search.steps.max()
    near = [v for v in search.restart_values if v <= search.value + 1e-4]
    assert out.meta["restarts_near_best"] == len(near) >= 1
    # the report keeps its fields: the diagnostics stay out of the serialized value
    assert sorted(cli._jsonable(out)) == ["converged", "direction", "gap_estimate", "provenance", "value"]
    assert "evaluations" not in entanglement_of_formation(bell()).meta  # exact anchors run no search
    # the estimates derived from a search carry its cost next to their own values
    cost = ["evaluations", "steps", "rounds", "restarts_near_best"]
    derived = [
        (entropy_k_gap(random_density(4, rng, rank=3), 2, BUDGET), "approximator"),
        (constrained_holevo_estimate(identity_channel(2), random_density(2, rng), 2, BUDGET), "convex_closure"),
        (quantum_discord(rank2_two_qubit(rng), budget=BUDGET), "classical_correlations"),
    ]
    for (est, key), search in zip(derived, searches[1:], strict=True):
        assert {k: est.meta[k] for k in cost} == {
            "evaluations": search.evaluations.sum(),
            "steps": search.steps.sum(),
            "rounds": search.rounds,
            "restarts_near_best": np.count_nonzero(search.restart_values <= search.value + 1e-4),
        }
        assert key in est.meta


def test_search_meta_records_final_multipliers_and_wall_time(rng, monkeypatch):
    searches = []

    def capture(objective, rows, cols, budget):
        searches.append(minimize_isometry(objective, rows, cols, budget))
        return searches[-1]

    monkeypatch.setattr(roofs, "minimize_isometry", capture)
    out = entanglement_of_formation(rank2_two_qubit(rng), members=3, budget=BUDGET)
    gap = entropy_k_gap(random_density(4, rng, rank=3), 2, BUDGET)
    for est, search in zip((out, gap), searches, strict=True):
        # a restart ends at t = 1 after an accepted step, or below it after rejections
        assert search.multipliers.shape == (BUDGET.restarts,)
        assert ((search.multipliers > 0) & (search.multipliers <= 1)).all()
        assert search.seconds > 0
        assert est.meta["multipliers"] is search.multipliers
        assert est.meta["seconds"] == search.seconds
    assert sorted(cli._jsonable(gap)) == ["converged", "direction", "gap_estimate", "provenance", "value"]


# -- measurement side ------------------------------------------------------------


def test_classical_correlations_pure(rng):
    psi = random_pure(4, rng, (2, 2))
    h_a = von_neumann_entropy(partial_trace(psi, [0]))
    out = classical_correlations(psi, budget=BUDGET)
    assert out.direction is Direction.LOWER_BOUND
    assert out.value == pytest.approx(h_a, abs=1e-5)
    assert out.value <= h_a + 1e-9


def test_classical_correlations_classical_quantum(rng):
    # cq state: the measure equals the mutual information
    r0, r1 = random_density(2, rng), random_density(2, rng)
    w = TraceClassElement(
        0.6 * np.kron(r0.to_matrix(), np.diag([1.0, 0.0]))
        + 0.4 * np.kron(r1.to_matrix(), np.diag([0.0, 1.0])),
        (2, 2),
    )
    i_ab = float(mutual_information(w))
    out = classical_correlations(w, budget=BUDGET)
    assert out.value == pytest.approx(i_ab, abs=1e-4)
    assert out.value <= i_ab + 1e-9


def test_classical_correlations_product(rng):
    w = tensor(random_density(2, rng), random_density(2, rng))
    assert classical_correlations(w, budget=BUDGET).value <= 1e-6


def test_discord_examples(rng):
    out = quantum_discord(bell(), budget=BUDGET)
    assert out.direction is Direction.UPPER_BOUND
    assert out.value == pytest.approx(LOG2, abs=1e-5)
    w = tensor(random_density(2, rng), random_density(2, rng))
    assert quantum_discord(w, budget=BUDGET).value <= 1e-6
    r0, r1 = random_density(2, rng), random_density(2, rng)
    cq = TraceClassElement(
        0.5 * np.kron(r0.to_matrix(), np.diag([1.0, 0.0]))
        + 0.5 * np.kron(r1.to_matrix(), np.diag([0.0, 1.0])),
        (2, 2),
    )
    assert quantum_discord(cq, budget=BUDGET).value <= 1e-4


# -- Koashi-Winter ------------------------------------------------------------------


def test_koashi_winter_product_with_entangled_rest():
    # |phi>_A (x) Bell_BC: all three terms vanish
    phi = np.array([1.0, 0.0])
    bell_bc = np.array([1, 0, 0, 1]) / math.sqrt(2)
    psi = np.kron(phi, bell_bc)
    w = TraceClassElement.pure(psi, factor_dims=(2, 2, 2))
    res = koashi_winter_residual(w, BUDGET)
    assert res.classical_correlations.value == pytest.approx(0.0, abs=1e-9)
    assert res.formation.value == pytest.approx(0.0, abs=1e-9)
    assert res.marginal_entropy == pytest.approx(0.0, abs=1e-12)
    assert res.residual <= 1e-9


def test_koashi_winter_ghz():
    ghz = TraceClassElement.pure(
        np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2, 2)
    )
    res = koashi_winter_residual(ghz, BUDGET)
    assert res.classical_correlations.value == pytest.approx(LOG2, abs=1e-5)
    assert res.formation.value == pytest.approx(0.0, abs=1e-5)
    assert res.marginal_entropy == pytest.approx(LOG2, abs=1e-12)
    assert res.residual <= 5e-3


def test_koashi_winter_random(rng):
    for _ in range(3):
        psi = random_pure(8, rng, (2, 2, 2))
        res = koashi_winter_residual(psi, BUDGET)
        if res.converged:
            assert res.residual <= 5e-3


def test_koashi_winter_requires_pure(rng):
    with pytest.raises(NotPureError):
        koashi_winter_residual(random_density(8, rng, factor_dims=(2, 2, 2)), BUDGET)


# -- ordering at certified points --------------------------------------------------------


def test_measure_ordering_on_pure_states(rng):
    psi = random_pure(4, rng, (2, 2))
    h_a = von_neumann_entropy(partial_trace(psi, [0]))
    e_sq = squashed_entanglement_k(psi, 1)
    e_csq = c_squashed_entanglement_k(psi, 1)
    e_f = entanglement_of_formation(psi)
    assert e_sq.value == pytest.approx(h_a, abs=1e-10)
    assert e_csq.value == pytest.approx(2 * h_a, abs=1e-10) or e_csq.value >= e_sq.value
    assert e_f.value == pytest.approx(h_a, abs=1e-10)
    # upper estimates never fall below the pure-state anchor
    assert e_csq.value >= e_f.value - 1e-9 >= e_sq.value - 1e-9


@pytest.mark.parametrize(
    "call",
    [
        lambda w: entanglement_of_formation(w, members=2.7),
        lambda w: entanglement_of_formation(w, members="3"),
        lambda w: entanglement_of_formation(w, members=np.True_),
        lambda w: classical_correlations(w, povm_size=3.5),
        lambda w: quantum_discord(w, povm_size="2"),
        lambda w: c_squashed_entanglement_k(w, 2.9),
        lambda w: squashed_entanglement_k(w, True),
        lambda w: squashed_entanglement_k(w, 0),
        lambda w: entropy_k_approximation(w, 2.5),
        lambda w: entropy_k_approximation(w, 2, members=4.5),
        lambda w: entropy_k_gap(w, False),
        lambda w: entropy_k_gap(w, 1, members=2.5),
        lambda w: convex_closure_output_entropy(identity_channel(4), w, 2.2),
    ],
    ids=[
        "formation-fraction",
        "formation-string",
        "formation-bool",
        "classical-fraction",
        "discord-string",
        "c_squashed-fraction",
        "squashed-bool",
        "squashed-zero",
        "approximation-fraction",
        "approximation-members-fraction",
        "gap-bool",
        "gap-members-fraction",
        "convex_closure-fraction",
    ],
)
def test_size_arguments_must_be_integers(call, rng):
    # a bool, a string or a fraction is refused, not truncated or coerced
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call(random_density(4, rng, rank=2, factor_dims=(2, 2)))


def test_size_arguments_take_integral_numbers(rng):
    omega = rank2_two_qubit(rng)
    values = {entanglement_of_formation(omega, m, BUDGET).value for m in (2, 2.0, np.int64(2))}
    assert len(values) == 1


def test_determinism_same_seed(rng):
    omega = rank2_two_qubit(rng)
    a = entanglement_of_formation(omega, members=2, budget=BUDGET)
    b = entanglement_of_formation(omega, members=2, budget=BUDGET)
    assert a.value == b.value and a.gap_estimate == b.gap_estimate


def test_gap_contracts_under_bounded_choi_rank_operations(rng):
    # the rank-one gap equals the entropy exactly, so the contraction of the
    # gap under single-Kraus operations is certified without an optimizer
    from entroloss import compression_operation, unitary_channel
    from entroloss.channels import apply as apply_op
    from entroloss.rand import haar_unitary

    for _ in range(10):
        rho = random_density(4, rng)
        before = entropy_k_gap(rho, 1).value
        for op in (unitary_channel(haar_unitary(4, rng)), compression_operation(4, 2)):
            out = apply_op(op, rho)
            assert entropy_k_gap(out, 1).value <= before + 1e-9
