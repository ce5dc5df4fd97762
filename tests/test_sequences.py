import math

import numpy as np
import pytest

from entroloss import (
    GRID_DIAG,
    GRID_MEDIUM,
    PureBipartiteState,
    StateSequence,
    TraceClassElement,
    builtin_families,
    estimate_jump,
    lift_by_purification,
    make_classical_correlated_sequence,
    make_mixing_sequence,
    make_product_sequence,
    make_rotated_sharp_sequence,
    make_sharp_sequence,
    mutual_information,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from entroloss import info
from entroloss.errors import DimensionMismatchError, FunctionalUndefinedError, IncompatiblePurificationError, InvalidParameterError
from entroloss.rand import random_density
from entroloss.sequences import (
    FUNCTIONALS,
    entropy_of,
    jump_gain,
    jump_loss,
    marginal_entropy_of,
    mutual_information_of,
    pure_trace_distance,
    read_jump,
    series,
)
from entroloss.suites import suite_run


def test_constant_sequence_has_zero_loss(rng):
    rho = random_density(3, rng)
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9)))
    est = estimate_jump(seq, entropy_of)
    assert float(est.loss) == 0.0
    assert float(est.gain) == 0.0
    assert est.monotone_tail and est.converging


def test_sharp_sequence_closed_form_band():
    seq = make_sharp_sequence(energy=1.0)
    est = estimate_jump(seq, entropy_of, closed_form_key="entropy")
    # the asymptotic jump is 1; the per-n closed form sits within 20 percent
    assert 0.8 <= est.loss_closed_form <= 1.2
    # the raw finite-n supremum overshoots (slow logarithmic convergence) and
    # must be reported separately from the asymptotic estimate
    assert float(est.loss) > est.loss_closed_form
    assert est.monotone_tail and est.converging


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_sharp_sequence(energy=0.0),
        lambda: make_product_sequence((1.0,)),
        lambda: make_product_sequence((1.0, 0.5, 0.2)),
        # q exceeds 1 at the smallest grid point n = 16
        lambda: make_sharp_sequence(energy=100.0),
        lambda: make_product_sequence((1.0, 100.0)),
    ],
)
def test_sharp_energies_are_checked_when_the_family_is_built(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_fixed_dimension_mixing_sequence_is_continuous(rng):
    sigma = random_density(6, rng)
    seq = make_mixing_sequence(sigma, n_grid=[2**k for k in range(4, 10)])
    est = estimate_jump(seq, entropy_of)
    # entropy is continuous in fixed finite dimension: the measured loss is a
    # finite-n remnant of order log(n)/n
    assert float(est.loss) <= 0.05
    values = np.asarray(est.values)
    assert np.all(np.diff(values[2:]) <= 1e-12)


def test_estimate_requires_long_grid(rng):
    rho = random_density(2, rng)
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=(1, 2, 3))
    with pytest.raises(ValueError):
        estimate_jump(seq, entropy_of)


def test_infinite_limit_marks_loss():
    rho = TraceClassElement(np.array([0.5, 0.5]))
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9)))
    est = estimate_jump(seq, lambda x: math.inf if x is rho else 0.0)
    assert est.loss == math.inf


@pytest.mark.parametrize("window", [0, -1])
def test_window_below_one_is_rejected(rng, window):
    rho = random_density(2, rng)
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9)))
    with pytest.raises(InvalidParameterError):
        estimate_jump(seq, entropy_of, window=window)


@pytest.mark.parametrize("window", [2.5, "2", True])
def test_a_non_integer_window_is_refused(rng, window):
    rho = random_density(2, rng)
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9)))
    with pytest.raises(InvalidParameterError):
        estimate_jump(seq, entropy_of, window=window)


@pytest.mark.parametrize("window", [0, 2.5, "2", True])
@pytest.mark.parametrize("read", [jump_loss, jump_gain])
def test_the_loss_and_gain_reads_refuse_a_non_integer_window(read, window):
    with pytest.raises(InvalidParameterError):
        read([0.0, 1.0, 2.0], 1.0, window)


def test_an_integral_float_window_reads_as_an_int():
    seq = make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM)
    est = estimate_jump(seq, entropy_of, window=2.0)
    assert est == estimate_jump(seq, entropy_of, window=2)
    assert type(est.window) is int


@pytest.mark.parametrize("dense", [False, True])
def test_mixing_family_keeps_the_factorization_of_sigma(rng, dense):
    sigma = random_density(4, rng, factor_dims=(2, 2))
    if not dense:
        sigma = TraceClassElement(sigma.diag, sigma.factor_dims)
    seq = make_mixing_sequence(sigma)
    assert seq.limit.factor_dims == (2, 2)
    assert all(seq.element(n).factor_dims == (2, 2) for n in seq.n_grid)
    assert math.isfinite(estimate_jump(seq, mutual_information_of).loss)


def test_lifted_limit_distance_matches_the_limit_padded_by_hand():
    seq = lift_by_purification(make_sharp_sequence(energy=1.0))
    assert seq.n_grid == GRID_DIAG
    for n in seq.n_grid:
        x = seq.element(n)
        padded = np.zeros(x.dims[0])
        padded[: seq.limit.dims[0]] = seq.limit._schmidt
        assert seq.limit_distance(x) == pure_trace_distance(x, PureBipartiteState(padded))


def test_each_grid_element_is_built_once():
    base = make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM)
    built = []

    def generator(n):
        built.append(n)
        return base.element(n)

    seq = StateSequence(generator=generator, limit=base.limit, n_grid=GRID_MEDIUM)
    h, s, own = series(seq, "entropy", "pinched_entropy", lambda x: 2.0 * entropy_of(x))
    assert built == list(GRID_MEDIUM)
    assert h == s and own == [2.0 * v for v in h]
    # the estimate reads the distance to the limit off the element it scores
    built.clear()
    est = estimate_jump(seq, entropy_of)
    assert built == list(GRID_MEDIUM)
    assert list(est.values) == h and est.converging


def test_functional_failure_is_reported(rng):
    rho = random_density(2, rng)
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9)))
    with pytest.raises(FunctionalUndefinedError):
        estimate_jump(seq, lambda x: float("nan"))


def test_non_converging_sequence_flagged(rng):
    a, b = random_density(2, rng), random_density(2, rng)
    seq = StateSequence(
        generator=lambda n: a if n % 2 else b,
        limit=a,
        n_grid=tuple(range(1, 13)),
    )
    est = estimate_jump(seq, entropy_of)
    assert not est.converging


def test_lift_constant_sequence(rng):
    rho = TraceClassElement(rng.dirichlet(np.ones(3)))
    seq = StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9)))
    lifted = lift_by_purification(seq)
    x = lifted.element(1)
    y = lifted.element(5)
    assert pure_trace_distance(x, y) <= 1e-10


def test_lift_marginals_exact(rng):
    seq = make_sharp_sequence(energy=1.0, n_grid=[16, 32, 64, 128, 256, 512])
    lifted = lift_by_purification(seq)
    for n in (16, 32):
        omega = lifted.element(n)
        rho = seq.element(n)
        marg = omega.marginal()
        assert trace_distance(marg, rho) <= 1e-10
        # partial-trace oracle on the materialized projector
        dense = omega.to_element()
        assert trace_distance(partial_trace(dense, [0]), rho) <= 1e-10
    # large-n marginals stay exact through the amplitude fast path
    omega = lifted.element(512)
    assert trace_distance(omega.marginal(), seq.element(512)) <= 1e-12
    assert lifted.is_converging()


def test_lift_rank_aware_mi_matches_dense(rng):
    seq = make_sharp_sequence(energy=1.0, n_grid=[8, 12, 16, 20, 24, 28])
    lifted = lift_by_purification(seq)
    for n in (8, 16, 24):
        omega = lifted.element(n)
        fast = mutual_information_of(omega)
        dense = float(mutual_information(omega.to_element()))
        assert fast == pytest.approx(dense, abs=1e-8)


def test_lift_mutual_information_doubles_marginal():
    seq = make_sharp_sequence(energy=1.0)
    lifted = lift_by_purification(seq)
    est_i = estimate_jump(lifted, mutual_information_of, closed_form_key="mutual_information")
    est_h = estimate_jump(lifted, lambda x: marginal_entropy_of(x, 0), closed_form_key="marginal_entropy")
    assert float(est_i.loss) == pytest.approx(2 * float(est_h.loss), abs=1e-10)
    assert est_i.loss_closed_form == pytest.approx(2 * est_h.loss_closed_form, abs=1e-12)


def test_lifting_a_non_diagonal_family_is_refused(rng):
    # a non-diagonal element: the rotated family's limit is the diagonal |0><0|
    lifted = lift_by_purification(make_rotated_sharp_sequence())
    with pytest.raises(IncompatiblePurificationError):
        lifted.element(16)
    # a non-diagonal limit is refused when the lift is built
    rho = random_density(3, rng)
    with pytest.raises(IncompatiblePurificationError):
        lift_by_purification(StateSequence(generator=lambda n: rho, limit=rho, n_grid=tuple(range(1, 9))))
    with pytest.raises(IncompatiblePurificationError, match="already lifted"):
        lift_by_purification(lift_by_purification(make_sharp_sequence(n_grid=GRID_MEDIUM)))


def test_pure_state_holds_its_schmidt_weights_only():
    psi = PureBipartiteState(np.array([0.6, 0.8]))
    assert psi.dims == (2, 2)
    dense = psi.to_element()
    assert dense.factor_dims == (2, 2)
    for side in (0, 1):
        assert trace_distance(partial_trace(dense, [side]), psi.marginal()) <= 1e-14
    assert psi.marginal_entropy() == pytest.approx(von_neumann_entropy(partial_trace(dense, [1])), abs=1e-14)
    for weights in (np.float64(0.6), np.diag([0.6, 0.8]), np.ones((2, 2, 1))):
        with pytest.raises(DimensionMismatchError):
            PureBipartiteState(weights)


def test_classical_correlated_family_structure():
    seq = make_classical_correlated_sequence(n_grid=GRID_MEDIUM)
    x = seq.element(32)
    assert x.factor_dims == (33, 33)
    h = entropy_of(x)
    assert marginal_entropy_of(x, 0) == pytest.approx(h, abs=1e-12)
    assert mutual_information_of(x) == pytest.approx(h, abs=1e-10)


def test_builtin_family_registry():
    reg = builtin_families()
    assert {
        "sharp",
        "sharp_lifted",
        "mix_to_pure",
        "classical_correlated",
        "product",
        "classical_triple",
        "rotated_sharp",
    } <= set(reg)
    lifted = reg["sharp_lifted"](energy=1.0, n_grid=[16, 32, 64, 128, 256, 512])
    assert isinstance(lifted.element(16), PureBipartiteState)


def test_diagonal_fast_path_speed():
    # dimension 2**16 elements must be cheap to evaluate
    import time

    seq = make_sharp_sequence(energy=1.0)
    t0 = time.time()
    estimate_jump(seq, entropy_of, closed_form_key="entropy")
    assert time.time() - t0 < 5.0


def test_embedded_limit_bipartite():
    seq = make_classical_correlated_sequence(n_grid=GRID_MEDIUM)
    x = seq.element(16)
    lim = seq.embedded_limit(x)
    assert lim.factor_dims == x.factor_dims
    assert lim.trace == pytest.approx(1.0, abs=1e-12)


def test_embedded_limit_refuses_a_dense_factorized_limit_of_another_dimension(rng):
    lim = random_density(4, rng, factor_dims=(2, 2))
    x = random_density(9, rng, factor_dims=(3, 3))
    seq = StateSequence(generator=lambda n: x, limit=lim, n_grid=tuple(range(1, 9)))
    with pytest.raises(DimensionMismatchError):
        seq.embedded_limit(x)
    assert seq.embedded_limit(lim) is lim  # its own dimension needs no padding


@pytest.mark.parametrize("suite_id", ["P1", "P4"])
def test_energy_suites_build_each_grid_element_once(suite_id, monkeypatch):
    grid = [16, 32, 64, 128, 256, 512]
    built = []
    real = StateSequence.element

    def counted(self, n):
        built.append(n)
        return real(self, n)

    monkeypatch.setattr(StateSequence, "element", counted)
    report = suite_run(suite_id, {"grid": grid})
    assert report.passed
    assert built == grid


def test_read_jump_off_one_walk_matches_estimate_jump():
    seq = make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM)
    h, s, distances = series(seq, "entropy", "pinched_entropy", seq.limit_distance)
    for name, values in (("entropy", h), ("pinched_entropy", s)):
        assert read_jump(seq, name, values, distances, closed_form_key="entropy") == estimate_jump(
            seq, name, closed_form_key="entropy"
        )


def test_schmidt_state_scores_its_marginal_spectrum_once(monkeypatch):
    lifted = lift_by_purification(make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM))
    x = lifted.element(64)
    calls = []
    real = info.spectral_entropy

    def counted(eigs):
        calls.append(np.size(eigs))
        return real(eigs)

    monkeypatch.setattr(info, "spectral_entropy", counted)
    h = FUNCTIONALS["marginal_entropy"](x)
    assert FUNCTIONALS["marginal_entropy_b"](x) == h
    assert FUNCTIONALS["mutual_information"](x) == 2.0 * h
    assert FUNCTIONALS["conditional_entropy"](x) == -h
    assert calls == [65]


def test_pinched_entropy_of_a_schmidt_state_is_its_marginal_entropy(monkeypatch):
    lifted = lift_by_purification(make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM))
    x = lifted.element(512)  # (513**2)-dim: far past the dense cap
    monkeypatch.setattr(PureBipartiteState, "to_element", None)
    assert FUNCTIONALS["pinched_entropy"](x) == FUNCTIONALS["marginal_entropy"](x)
    # a diagonal element is its own pinching
    rho = make_sharp_sequence(energy=1.0, n_grid=GRID_MEDIUM).element(64)
    assert FUNCTIONALS["pinched_entropy"](rho) == von_neumann_entropy(rho)
