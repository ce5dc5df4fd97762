import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroloss import (
    Hamiltonian,
    TraceClassElement,
    entropy_gap_decomposition,
    gap_term_approximant,
    majorizes,
    rearrangement,
    separable_majorization_check,
    tensor,
    von_neumann_entropy,
)
from entroloss.errors import DimensionMismatchError, NotMajorizedError
from entroloss.rand import haar_unitary, random_density, random_pure
from helpers import random_probability

LOG2 = math.log(2.0)


def mixed_toward_uniform(p, rng, strength=0.5):
    """Average of permutations of p: majorized by p (doubly stochastic mixing)."""
    q = (1 - strength) * p + strength * np.mean([rng.permutation(p) for _ in range(4)], axis=0)
    return q / q.sum()


def test_pure_majorizes_everything(rng):
    pure = random_pure(4, rng)
    assert majorizes(pure, random_density(4, rng))


def test_everything_majorizes_maximally_mixed(rng):
    mixed = TraceClassElement(np.full(4, 0.25))
    assert majorizes(random_density(4, rng), mixed)


def test_majorization_counterexample():
    a = TraceClassElement(np.array([0.5, 0.3, 0.2]))
    b = TraceClassElement(np.array([0.6, 0.2, 0.2]))
    assert not majorizes(a, b)  # 0.5 < 0.6 at the first partial sum
    assert majorizes(b, a)


def test_majorization_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        majorizes(random_density(2, rng), random_density(3, rng))


def test_ties_count_as_majorized(rng):
    rho = random_density(4, rng)
    assert majorizes(rho, rho)


def test_gap_decomposition_equal_states(rng):
    rho = random_density(3, rng)
    d, f = entropy_gap_decomposition(rho, rho)
    assert d == pytest.approx(0.0, abs=1e-10)
    assert f == pytest.approx(0.0, abs=1e-10)


def test_gap_decomposition_pure_vs_mixed():
    pure = TraceClassElement(np.array([1.0, 0.0]))
    mixed = TraceClassElement(np.array([0.5, 0.5]))
    d, f = entropy_gap_decomposition(pure, mixed)
    # classical oracle: D((1,0) || (1/2,1/2)) = log 2, f = H(mixed) - D = 0
    assert d == pytest.approx(LOG2, abs=1e-12)
    assert f == pytest.approx(0.0, abs=1e-12)


def test_gap_decomposition_identity(rng):
    for _ in range(30):
        p = np.sort(random_probability(4, rng))[::-1]
        q = mixed_toward_uniform(p, rng)
        rho = TraceClassElement(p)
        sigma = TraceClassElement(q)
        assert majorizes(rho, sigma)
        d, f = entropy_gap_decomposition(rho, sigma)
        lhs = von_neumann_entropy(sigma)
        rhs = von_neumann_entropy(rho) + d + f
        assert lhs == pytest.approx(rhs, abs=1e-8)
        assert d >= -1e-10 and f >= -1e-10


def test_gap_decomposition_requires_majorization():
    a = TraceClassElement(np.array([0.5, 0.3, 0.2]))
    b = TraceClassElement(np.array([0.6, 0.2, 0.2]))
    with pytest.raises(NotMajorizedError):
        entropy_gap_decomposition(a, b)


def test_gap_approximant_limits(rng):
    p = np.sort(random_probability(4, rng))[::-1]
    q = mixed_toward_uniform(p, rng)
    rho, sigma = TraceClassElement(p), TraceClassElement(q)
    assert gap_term_approximant(rho, sigma, 0) == pytest.approx(0.0, abs=1e-12)
    _, f = entropy_gap_decomposition(rho, sigma)
    assert gap_term_approximant(rho, sigma, 1e6) == pytest.approx(f, abs=1e-10)


def test_gap_approximant_monotone(rng):
    for _ in range(10):
        p = np.sort(random_probability(5, rng))[::-1]
        q = mixed_toward_uniform(p, rng)
        rho, sigma = TraceClassElement(p), TraceClassElement(q)
        vals = [gap_term_approximant(rho, sigma, n) for n in range(1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_rearrangement_fixed_point():
    rho = TraceClassElement(np.array([0.5, 0.3, 0.2]))
    h = Hamiltonian.from_table([0.0, 1.0, 2.0])
    out = rearrangement(rho, h)
    assert np.allclose(out.diag, rho.diag)


def test_rearrangement_plus_state():
    plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    out = rearrangement(plus, Hamiltonian.from_table([0.0, 1.0]))
    assert np.allclose(out.diag, [1.0, 0.0], atol=1e-12)


def test_rearrangement_lowers_energy(rng):
    h = Hamiltonian.from_table([0.0, 0.7, 1.9])
    e = np.array([0.0, 0.7, 1.9])
    for _ in range(30):
        rho = random_density(3, rng)
        before = float(np.dot(e, rho.diag))
        after = float(np.dot(e, rearrangement(rho, h).diag))
        assert after <= before + 1e-9
    # entropy preserved exactly
    rho = random_density(3, rng)
    assert von_neumann_entropy(rearrangement(rho, h)) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


def test_separable_check_product(rng):
    a, b = random_density(2, rng), random_density(2, rng)
    w = tensor(a, b)
    assert separable_majorization_check(w)


def test_separable_check_classical_correlated():
    joint = np.zeros((2, 2))
    joint[0, 0] = joint[1, 1] = 0.5
    w = TraceClassElement(joint.reshape(-1), factor_dims=(2, 2))
    assert separable_majorization_check(w)


def test_separable_check_detects_entangled_control():
    bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
    assert not separable_majorization_check(bell)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_entropy_monotone_under_majorization(seed):
    rng = np.random.default_rng(seed)
    p = np.sort(random_probability(5, rng))[::-1]
    q = mixed_toward_uniform(p, rng)
    u = haar_unitary(5, rng)
    rho = TraceClassElement((u * p) @ u.conj().T)
    sigma = TraceClassElement(q)
    assert majorizes(rho, sigma)
    assert von_neumann_entropy(rho) <= von_neumann_entropy(sigma) + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_pinsker_consequence(seed):
    rng = np.random.default_rng(seed)
    p = np.sort(random_probability(4, rng))[::-1]
    q = np.sort(mixed_toward_uniform(p, rng))[::-1]
    gap = -np.sum(q[q > 0] * np.log(q[q > 0])) + np.sum(p[p > 0] * np.log(p[p > 0]))
    l1 = np.abs(p - q).sum()
    assert gap >= 0.5 * l1**2 - 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_weighted_sums_under_majorization(seed):
    # for distributions with lam majorizing mu and nondecreasing nonnegative
    # weights h: sum lam h <= sum mu h
    rng = np.random.default_rng(seed)
    lam = np.sort(random_probability(6, rng))[::-1]
    mu = np.sort(mixed_toward_uniform(lam, rng))[::-1]
    assert majorizes(TraceClassElement(lam), TraceClassElement(mu))
    h = np.sort(rng.random(6))
    assert float(np.dot(lam, h)) <= float(np.dot(mu, h)) + 1e-9
