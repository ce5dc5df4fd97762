import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroloss import (
    Ensemble,
    TraceClassElement,
    apply,
    conditional_entropy,
    conditional_mutual_information,
    group_factors,
    holevo_quantity,
    mutual_information,
    partial_trace,
    permute_factors,
    pinching_distribution,
    purification_amplitude,
    relative_entropy,
    relative_entropy_to_product,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from entroloss import info
from entroloss.errors import DimensionMismatchError, InconsistentEnsembleError, NotUnitaryError
from entroloss.extended import ExtendedReal
from entroloss.rand import haar_unitary, random_channel, random_density, random_pure
from helpers import random_probability

LOG2 = math.log(2.0)


def kl(p, q):
    p, q = np.asarray(p, float), np.asarray(q, float)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def entropy_oracle(p):
    p = np.asarray(p, float)
    return float(-np.sum(p[p > 0] * np.log(p[p > 0])))


# -- von Neumann entropy -----------------------------------------------------


def test_entropy_maximally_mixed_qubit():
    rho = TraceClassElement(np.array([0.5, 0.5]))
    assert von_neumann_entropy(rho) == pytest.approx(LOG2, abs=1e-12)


def test_entropy_scaled_rank_one_vanishes(rng):
    rho = random_pure(3, rng).scaled(0.3)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_two_level_mixture_oracle():
    q, n = 0.4, 4
    values = [1 - q] + [q / n] * n
    expected = entropy_oracle(values)
    # closed form quoted against the same eigenvalue-sum oracle
    assert expected == pytest.approx(-0.6 * math.log(0.6) + 0.4 * math.log(4 / 0.4), abs=1e-12)
    rho = TraceClassElement(np.array(values))
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


def test_entropy_cone_homogeneity(rng):
    rho = random_density(3, rng)
    h = von_neumann_entropy(rho)
    assert von_neumann_entropy(rho.scaled(0.5)) == pytest.approx(0.5 * h, abs=1e-12)


# -- relative entropy ---------------------------------------------------------


def test_relative_entropy_of_state_with_itself(rng):
    rho = random_density(3, rng)
    assert float(relative_entropy(rho, rho)) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_support_violation():
    a = TraceClassElement.pure([1.0, 0.0])
    b = TraceClassElement.pure([0.0, 1.0])
    assert relative_entropy(a, b).is_infinite


def test_relative_entropy_classical_oracle():
    rho = TraceClassElement(np.array([0.7, 0.3]))
    sigma = TraceClassElement(np.array([0.5, 0.5]))
    expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)
    assert expected == pytest.approx(kl([0.7, 0.3], [0.5, 0.5]), abs=1e-15)
    assert float(relative_entropy(rho, sigma)) == pytest.approx(expected, abs=1e-12)
    dense = TraceClassElement(np.diag([0.7, 0.3]).astype(complex))
    assert float(relative_entropy(dense, sigma)) == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_support_leak_threshold():
    # weight outside the support is tolerated up to 1e-10 and rejected above
    sigma = TraceClassElement(np.array([1.0, 0.0]))
    inside = TraceClassElement(np.array([1.0 - 1e-11, 1e-11]))
    outside = TraceClassElement(np.array([1.0 - 1e-6, 1e-6]))
    assert relative_entropy(inside, sigma).is_finite
    assert relative_entropy(outside, sigma).is_infinite


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_relative_entropy_homogeneity(rng, lam):
    rho, sigma = random_density(3, rng), random_density(3, rng)
    base = float(relative_entropy(rho, sigma))
    scaled = relative_entropy(rho.scaled(lam), sigma.scaled(lam))
    assert float(scaled) == pytest.approx(lam * base, abs=1e-12)


# -- relative entropy against a product ----------------------------------------


def assert_matches_kronecker(rho, a, b):
    value = float(relative_entropy_to_product(rho, a, b))
    assert value == pytest.approx(float(relative_entropy(rho, tensor(a, b))), abs=1e-12)
    return value


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (4, 8)])
def test_product_relative_entropy_matches_kronecker(rng, dims):
    da, db = dims
    for _ in range(3):
        rho = random_density(da * db, rng, factor_dims=dims)
        assert_matches_kronecker(rho, random_density(da, rng), random_density(db, rng))
        assert_matches_kronecker(rho, partial_trace(rho, [0]), partial_trace(rho, [1]))


def test_product_relative_entropy_rank_deficient_marginal(rng):
    # the BC marginal of a pure (2, 3, 3) state has rank 2 out of 9
    w = random_pure(18, rng, factor_dims=(2, 3, 3))
    a, bc = partial_trace(w, [0]), partial_trace(w, [1, 2])
    assert bc.rank() == 2
    value = assert_matches_kronecker(w, a, bc)
    assert value == pytest.approx(2 * von_neumann_entropy(a), abs=1e-10)
    b, c = partial_trace(w, [1]), partial_trace(w, [2])
    assert_matches_kronecker(partial_trace(w, [0, 1]), a, b)
    assert_matches_kronecker(partial_trace(w, [0, 2]), a, c)


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_product_relative_entropy_homogeneity(rng, lam):
    rho = random_density(6, rng)
    a, b = random_density(2, rng), random_density(3, rng)
    base = float(relative_entropy_to_product(rho, a, b))
    scaled = assert_matches_kronecker(rho.scaled(lam), a.scaled(lam), b)
    assert scaled == pytest.approx(lam * base, abs=1e-12)
    assert_matches_kronecker(rho.scaled(0.5), a.scaled(0.3), b.scaled(2.0))


def test_product_relative_entropy_diagonal_factors(rng):
    rho = random_density(6, rng)
    a = TraceClassElement(random_probability(2, rng))
    b = TraceClassElement(random_probability(3, rng))
    dense_a, dense_b = random_density(2, rng), random_density(3, rng)
    assert_matches_kronecker(rho, a, dense_b)
    assert_matches_kronecker(rho, dense_a, b)
    assert_matches_kronecker(rho, a, b)
    classical = TraceClassElement(random_probability(6, rng))
    assert_matches_kronecker(classical, a, b)
    assert_matches_kronecker(classical, dense_a, b)


def test_product_relative_entropy_support_violation(rng):
    # rho puts weight on |1>_A, outside the support of a = |0><0|
    a = TraceClassElement.pure([1.0, 0.0])
    b = random_density(3, rng)
    rho = random_density(6, rng)
    assert relative_entropy_to_product(rho, a, b) == ExtendedReal.infinity()
    assert relative_entropy(rho, tensor(a, b)).is_infinite
    classical = TraceClassElement(np.full(6, 1.0 / 6))
    a_diag = TraceClassElement(np.array([1.0, 0.0]))
    b_diag = TraceClassElement(np.full(3, 1.0 / 3))
    assert relative_entropy_to_product(classical, a_diag, b_diag) == ExtendedReal.infinity()


# -- relative entropy of a factor ----------------------------------------------


def explicit_tau(w):
    """tau = sum_k |w_k>><<w_k| built as a dense matrix, factors (dim_a, dim_b)."""
    cols = w.reshape(w.shape[0], -1)
    tau = sum(np.outer(c, c.conj()) for c in cols)
    return TraceClassElement(tau, w.shape[1:])


@pytest.mark.parametrize("kraus_rank", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_factor_relative_entropy_matches_explicit_tau(rng, d, kraus_rank):
    states = (
        random_density(d, rng),
        random_density(d, rng, rank=max(1, d // 2)),
        TraceClassElement(random_probability(d, rng)),
    )
    for dim_out in sorted({d, d + 1, -(-d // kraus_rank)}):
        op = random_channel(d, dim_out, kraus_rank, rng)
        for rho in states:
            m = purification_amplitude(rho)
            w = np.stack(op.kraus) @ m
            a, b = apply(op, rho), TraceClassElement(m.T @ m.conj())
            value = float(info.relative_entropy_of_factor(w, a, b))
            assert value == pytest.approx(float(relative_entropy(explicit_tau(w), tensor(a, b))), abs=1e-12)


def test_factor_relative_entropy_support_violation(rng):
    # the A marginal of tau has weight on |1>, outside the support of a = |0><0|
    a = TraceClassElement.pure([1.0, 0.0])
    b = random_density(3, rng)
    w = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
    assert info.relative_entropy_of_factor(w, a, b) == ExtendedReal.infinity()
    assert relative_entropy(explicit_tau(w), tensor(a, b)).is_infinite
    with pytest.raises(DimensionMismatchError):
        info.relative_entropy_of_factor(w[:, :, :2], a, b)


# -- pinching ------------------------------------------------------------------


def test_pinching_in_own_basis(rng):
    p = rng.random(4)
    p /= p.sum()
    rho = TraceClassElement(np.diag(p.astype(complex)))
    assert np.allclose(pinching_distribution(rho, np.eye(4)), p, atol=1e-12)


def test_pinching_plus_state():
    plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    p = pinching_distribution(plus, np.eye(2))
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)
    assert float(shannon_entropy(p)) == pytest.approx(LOG2, abs=1e-12)


def test_pinching_requires_unitary(rng):
    with pytest.raises(NotUnitaryError):
        pinching_distribution(random_density(2, rng), np.array([[1, 1], [0, 1]], dtype=complex))


def test_pinching_is_the_rotated_diagonal(rng):
    rho = random_density(5, rng)
    u = haar_unitary(5, rng)
    expected = np.real(np.diag(u.conj().T @ rho.to_matrix() @ u))
    assert np.allclose(pinching_distribution(rho, u), expected, atol=1e-14)


def test_pinching_dominates_entropy(rng):
    for _ in range(100):
        rho = random_density(3, rng)
        basis = haar_unitary(3, rng)
        s = float(shannon_entropy(pinching_distribution(rho, basis)))
        assert von_neumann_entropy(rho) <= s + 1e-9


# -- mutual information --------------------------------------------------------


def test_mi_product_state(rng):
    w = tensor(random_density(2, rng), random_density(3, rng))
    assert float(mutual_information(w)) == pytest.approx(0.0, abs=1e-10)


def test_mi_bell():
    bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
    assert float(mutual_information(bell)) == pytest.approx(2 * LOG2, abs=1e-10)


def test_mi_entropy_combination_oracle(rng):
    for _ in range(20):
        w = random_density(4, rng, factor_dims=(2, 2))
        oracle = (
            von_neumann_entropy(partial_trace(w, [0]))
            + von_neumann_entropy(partial_trace(w, [1]))
            - von_neumann_entropy(w)
        )
        assert float(mutual_information(w)) == pytest.approx(oracle, abs=1e-9)


def test_mi_upper_bound(rng):
    for _ in range(50):
        w = random_density(6, rng, factor_dims=(2, 3))
        bound = 2 * min(
            von_neumann_entropy(partial_trace(w, [0])),
            von_neumann_entropy(partial_trace(w, [1])),
        )
        assert float(mutual_information(w)) <= bound + 1e-9


def test_mi_cone_homogeneity(rng):
    w = random_density(4, rng, factor_dims=(2, 2))
    assert float(mutual_information(w.scaled(0.5))) == pytest.approx(
        0.5 * float(mutual_information(w)), abs=1e-10
    )


# -- conditional entropy ---------------------------------------------------------


def test_conditional_entropy_product(rng):
    a, b = random_density(2, rng), random_density(3, rng)
    assert conditional_entropy(tensor(a, b)) == pytest.approx(von_neumann_entropy(a), abs=1e-9)


def test_conditional_entropy_bell():
    bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
    assert conditional_entropy(bell) == pytest.approx(-LOG2, abs=1e-9)


def test_conditional_entropy_classical_oracle(rng):
    joint = rng.random((3, 4))
    joint /= joint.sum()
    oracle = entropy_oracle(joint.reshape(-1)) - entropy_oracle(joint.sum(axis=0))
    w = TraceClassElement(joint.reshape(-1), factor_dims=(3, 4))
    assert conditional_entropy(w) == pytest.approx(oracle, abs=1e-9)


def test_conditional_entropy_range(rng):
    for _ in range(30):
        w = random_density(4, rng, factor_dims=(2, 2))
        h_a = von_neumann_entropy(partial_trace(w, [0]))
        ce = conditional_entropy(w)
        assert -h_a - 1e-9 <= ce <= h_a + 1e-9


# -- conditional mutual information ----------------------------------------------


def test_cmi_product_triple(rng):
    w = tensor(tensor(random_density(2, rng), random_density(2, rng)), random_density(2, rng))
    assert conditional_mutual_information(w) == pytest.approx(0.0, abs=1e-9)


def test_cmi_ghz():
    # marginal-entropy oracle: H(AB) = H(BC) = H(B) = log 2, H(ABC) = 0,
    # so the conditional mutual information is log 2
    ghz = TraceClassElement.pure(
        np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2, 2)
    )
    for pair in ([0, 1], [1, 2]):
        assert von_neumann_entropy(partial_trace(ghz, pair)) == pytest.approx(LOG2, abs=1e-10)
    assert conditional_mutual_information(ghz) == pytest.approx(LOG2, abs=1e-8)


def test_cmi_nonnegative_and_forms_agree(rng):
    for _ in range(20):
        w = random_density(8, rng, factor_dims=(2, 2, 2))
        # the four-formula agreement check runs inside the call
        assert conditional_mutual_information(w) >= -1e-9


def test_checked_cmi_eigendecomposes_the_joint_state_once(rng, monkeypatch):
    m = random_pure(64, rng).to_matrix()
    unvalidated = conditional_mutual_information(TraceClassElement._unchecked(m, factor_dims=(4, 4, 4)))
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            if np.shape(a)[-1] == 64:
                calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    value = conditional_mutual_information(TraceClassElement(m, (4, 4, 4)), check=True)
    # the validating constructor's PSD check; H(ABC) and the three cuts
    # spanning all factors reuse its spectrum
    assert calls == ["eigvalsh"]
    assert value == unvalidated


def test_cmi_check_catches_an_ignored_permutation(rng, monkeypatch):
    w = random_density(27, rng, factor_dims=(3, 3, 3))
    conditional_mutual_information(w)
    monkeypatch.setattr(info, "permute_factors", lambda el, order: el)
    with pytest.raises(ArithmeticError):
        conditional_mutual_information(w)


def test_cmi_check_catches_a_bias_on_one_cut(rng, monkeypatch):
    # a bias on every cut cancels in all three recombinations; on I(A:BC)
    # alone it shifts the first one
    w = random_density(27, rng, factor_dims=(3, 3, 3))
    conditional_mutual_information(w)
    real = info.relative_entropy_to_product

    def biased(rho, a, b):
        value = real(rho, a, b)
        return value + 1e-6 if (a.dim, b.dim) == (3, 9) else value

    monkeypatch.setattr(info, "relative_entropy_to_product", biased)
    with pytest.raises(ArithmeticError):
        conditional_mutual_information(w)


def test_purity_identity(rng):
    # I(A:B) + I(A:C) = 2 H(A) for rank-one tripartite elements
    for _ in range(20):
        w = random_pure(8, rng, factor_dims=(2, 2, 2))
        i_ab = float(mutual_information(partial_trace(w, [0, 1])))
        i_ac = float(mutual_information(partial_trace(w, [0, 2])))
        h_a = von_neumann_entropy(partial_trace(w, [0]))
        assert i_ab + i_ac == pytest.approx(2 * h_a, abs=1e-8)


# -- entropy inequalities ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_subadditivity_and_triangle(seed):
    rng = np.random.default_rng(seed)
    w = random_density(6, rng, factor_dims=(2, 3))
    h_ab = von_neumann_entropy(w)
    h_a = von_neumann_entropy(partial_trace(w, [0]))
    h_b = von_neumann_entropy(partial_trace(w, [1]))
    assert h_ab <= h_a + h_b + 1e-9
    assert h_a <= h_ab + h_b + 1e-9
    assert h_b <= h_ab + h_a + 1e-9


# -- ensembles and the Holevo quantity ----------------------------------------------


def test_ensemble_validation(rng):
    with pytest.raises(InconsistentEnsembleError):
        Ensemble([0.5, -0.5], [random_density(2, rng), random_density(2, rng)])
    with pytest.raises(InconsistentEnsembleError):
        Ensemble([1.0], [])


def test_holevo_orthogonal_pure():
    e = Ensemble([0.5, 0.5], [TraceClassElement.pure([1, 0]), TraceClassElement.pure([0, 1])])
    assert float(holevo_quantity(e)) == pytest.approx(LOG2, abs=1e-10)


def test_holevo_single_member(rng):
    e = Ensemble([1.0], [random_density(3, rng)])
    assert float(holevo_quantity(e)) == pytest.approx(0.0, abs=1e-10)


def test_holevo_zero_plus_ensemble():
    plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    zero = TraceClassElement.pure([1.0, 0.0])
    e = Ensemble([0.5, 0.5], [zero, plus])
    # closed-form spectrum oracle for the average state
    lam = [math.cos(math.pi / 8) ** 2, math.sin(math.pi / 8) ** 2]
    assert np.allclose(sorted(np.linalg.eigvalsh(e.average.to_matrix()))[::-1], sorted(lam)[::-1], atol=1e-12)
    assert float(holevo_quantity(e)) == pytest.approx(entropy_oracle(lam), abs=1e-10)


def test_extended_real_arithmetic():
    inf = ExtendedReal.infinity()
    assert (inf + 1.0).is_infinite
    assert (ExtendedReal(2.0) + inf).is_infinite
    assert float(inf * 0.0) == 0.0
    assert (inf * 2.0).is_infinite
    assert ExtendedReal(1.0) < inf
    assert float(ExtendedReal(1.5)) == 1.5
    with pytest.raises(OverflowError):
        inf.value


def _eta_by_gather(x):
    """eta as a gather of the positive entries and a scatter into zeros."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log(x[pos])
    return out


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


nonnegative_arrays = st.lists(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=4.0, allow_subnormal=True)),
    min_size=0,
    max_size=40,
).map(lambda v: np.array(v, dtype=float))


@given(nonnegative_arrays)
@settings(max_examples=300, deadline=None)
def test_eta_matches_the_gather_formula_bit_for_bit(x):
    assert np.array_equal(_bits(info.eta(x)), _bits(_eta_by_gather(x)))


@pytest.mark.parametrize(
    "x",
    [
        np.array([1.0]),
        np.zeros(5),
        np.array([0.0, 1.0, 0.5, 0.0]),
        np.clip(np.array([0.7, -1e-17, 0.3, -1e-17]), 0.0, None),
    ],
    ids=["lone-one", "all-zero", "zeros-and-one", "clipped-round-off"],
)
def test_eta_matches_the_gather_formula_on_edge_arrays(x):
    assert np.array_equal(_bits(info.eta(x)), _bits(_eta_by_gather(x)))
    # the scalar form follows the same rule, the sign of a zero included
    for v in x:
        assert _bits(info.eta(float(v))) == _bits(_eta_by_gather(np.array(v)))


def test_spectral_entropy_clips_round_off_before_eta():
    w = np.array([[0.7, -1e-17, 0.3], [1.0, 0.0, -1e-17]])
    clipped = np.clip(w, 0.0, None)
    expected = _eta_by_gather(clipped).sum(axis=-1) - _eta_by_gather(clipped.sum(axis=-1))
    assert np.array_equal(_bits(info.spectral_entropy(w)), _bits(expected))


def _counting_spectral_entropy(monkeypatch):
    calls = []
    real = info.spectral_entropy

    def counted(eigs):
        calls.append(np.shape(eigs))
        return real(eigs)

    monkeypatch.setattr(info, "spectral_entropy", counted)
    return calls


@pytest.mark.parametrize("diagonal", [True, False], ids=["diag", "dense"])
def test_entropy_is_stored_on_the_element_and_shared_by_copies(rng, diagonal, monkeypatch):
    if diagonal:
        w = TraceClassElement(random_probability(6, rng), (2, 3))
        array = w.diag
    else:
        w = random_density(6, rng, factor_dims=(2, 3))
        array = w.eigenvalues()
    expected = float(info.spectral_entropy(array))
    calls = _counting_spectral_entropy(monkeypatch)
    value = von_neumann_entropy(w)
    assert _bits(value) == _bits(expected)
    assert len(calls) == 1
    shared = [w.copy(), w.with_factors((3, 2)), partial_trace(w, [0, 1]), group_factors(w, (2,)), w.embed(6)]
    for other in shared:
        assert von_neumann_entropy(other) == value
    assert len(calls) == 1
    own = [w.scaled(0.5), partial_trace(w, [0]), partial_trace(w, [1]), tensor(w, w), permute_factors(w, (1, 0))]
    for other in own:
        von_neumann_entropy(other)
    assert len(calls) == 1 + len(own)
    # a repeat on a derived element reads its own stored value
    for other in own:
        von_neumann_entropy(other)
    assert len(calls) == 1 + len(own)


def test_stored_entropy_equals_spectral_entropy_bit_for_bit(rng):
    dense = random_density(5, rng)
    diag = TraceClassElement(random_probability(7, rng))
    assert _bits(von_neumann_entropy(dense)) == _bits(float(info.spectral_entropy(dense.eigenvalues())))
    assert _bits(von_neumann_entropy(diag)) == _bits(float(info.spectral_entropy(diag.diag)))


def test_checked_cmi_eigendecomposes_each_two_factor_marginal_once(rng, monkeypatch):
    m = random_pure(64, rng).to_matrix()
    unvalidated = conditional_mutual_information(TraceClassElement._unchecked(m, factor_dims=(4, 4, 4)))
    w = TraceClassElement(m, (4, 4, 4))
    solves = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.shape(a)[-1] == 16:
            solves.append(np.asarray(a).tobytes())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    value = conditional_mutual_information(w, check=True)
    # H(AB) and I(A:B) share one AB element, H(BC) and I(B:C) one BC element
    assert len(solves) == 3
    assert len(set(solves)) == len(solves)
    assert value == unvalidated
