import math

import numpy as np
import pytest

from entroloss import (
    Hamiltonian,
    TraceClassElement,
    gibbs_identity_residual,
    gibbs_state,
    gibbs_threshold,
    mean_energy,
    rearrangement,
    sharp_sequence_state,
    sharp_sequence_weight,
    trace_distance,
    von_neumann_entropy,
)
from entroloss.errors import (
    FiniteTableLawError,
    LambdaBelowGError,
    QExceedsOneError,
    SupportEscapesTruncationError,
)


def partition_partial_sum(scale, lam, dim):
    k = np.arange(dim)
    return float(np.exp(-lam * scale * np.log(k + 1)).sum())


def test_threshold_log_law_integral_test_oracle():
    # sum (k+1)^(-lam) diverges below lam = 1 and converges above it
    h = Hamiltonian.logarithmic(1.0, 0.0, 10)
    assert float(gibbs_threshold(h)) == 1.0
    below = partition_partial_sum(1.0, 0.9, 10**5) / partition_partial_sum(1.0, 0.9, 10**4)
    above = partition_partial_sum(1.0, 2.0, 10**5) / partition_partial_sum(1.0, 2.0, 10**4)
    assert below > 1.2  # still growing: divergent below the threshold
    assert above < 1.001  # settled: convergent above it


def test_threshold_linear_law():
    assert float(gibbs_threshold(Hamiltonian.linear(0.0, 1.0, 10))) == 0.0


def test_threshold_scaled_log_law():
    assert float(gibbs_threshold(Hamiltonian.logarithmic(2.0, 0.0, 10))) == 0.5


def test_threshold_degenerate_law_diverges():
    assert gibbs_threshold(Hamiltonian.linear(1.0, 0.0, 10)) == math.inf


def test_threshold_undefined_for_tables():
    with pytest.raises(FiniteTableLawError):
        gibbs_threshold(Hamiltonian.from_table([0.0, 1.0]))


def test_gibbs_two_level_closed_form():
    gs = gibbs_state(Hamiltonian.from_table([0.0, 1.0]), 1.0, 2)
    z = 1.0 + math.exp(-1.0)
    assert np.allclose(gs.state.diag, [1.0 / z, math.exp(-1.0) / z], atol=1e-15)
    assert gs.log_partition == pytest.approx(math.log(z), abs=1e-15)


def test_gibbs_concentrates_at_low_temperature():
    gs = gibbs_state(Hamiltonian.from_table([0.0, 1.0]), 50.0, 2)
    assert gs.state.diag[0] >= 1.0 - 1e-6


def test_gibbs_partition_zeta_oracle():
    h = Hamiltonian.logarithmic(1.0, 0.0, 2000)
    gs = gibbs_state(h, 2.0, 1000)
    zeta2 = math.pi**2 / 6.0
    assert abs(math.exp(gs.log_partition) - zeta2) <= gs.tail_bound
    assert gs.tail_bound <= 2e-3


def test_linear_law_tail_bound_is_the_geometric_tail():
    gs = gibbs_state(Hamiltonian.linear(0.5, 1.0, 64), 0.7, 40)
    tail = math.fsum(math.exp(-0.7 * (0.5 + k)) for k in range(40, 400))
    assert gs.tail_bound == pytest.approx(tail, rel=1e-14)


def test_gibbs_requires_lambda_above_threshold():
    with pytest.raises(LambdaBelowGError):
        gibbs_state(Hamiltonian.logarithmic(1.0, 0.0, 100), 0.9, 50)
    with pytest.raises(LambdaBelowGError):  # g = +inf refuses every lam
        gibbs_state(Hamiltonian.linear(1.0, 0.0, 10), 50.0, 8)


def test_gibbs_identity_on_gibbs_state():
    h = Hamiltonian.logarithmic(1.0, 0.0, 100)
    sigma = gibbs_state(h, 2.0, 32).state
    assert gibbs_identity_residual(sigma, h, 2.0, 32) <= 1e-10


def test_gibbs_identity_on_ground_projector():
    h = Hamiltonian.logarithmic(1.0, 0.0, 100)
    ground = TraceClassElement(np.array([1.0]))
    assert gibbs_identity_residual(ground, h, 2.0, 16) <= 1e-10


def test_gibbs_identity_random_diagonal(rng):
    h = Hamiltonian.logarithmic(1.0, 0.0, 100)
    for _ in range(20):
        p = rng.random(8)
        rho = TraceClassElement(p / p.sum())
        assert gibbs_identity_residual(rho, h, 1.5, 32) <= 1e-8


def test_gibbs_identity_truncation_guard():
    h = Hamiltonian.logarithmic(1.0, 0.0, 100)
    rho = TraceClassElement(np.full(16, 1 / 16))
    with pytest.raises(SupportEscapesTruncationError):
        gibbs_identity_residual(rho, h, 2.0, 8)


def test_sharp_sequence_energy_exact():
    h = Hamiltonian.logarithmic(1.0, 0.0, 1 << 13)
    for n in (16, 256, 4096):
        rho = sharp_sequence_state(h, 1.0, n)
        assert mean_energy(rho, h) == pytest.approx(1.0, abs=1e-10)
        assert mean_energy(rho, h) <= 1.0 + 1e-10


def test_sharp_sequence_trace_distance_to_ground():
    h = Hamiltonian.logarithmic(1.0, 0.0, 1 << 11)
    ground = TraceClassElement(np.array([1.0]))
    for n in (64, 1024):
        rho = sharp_sequence_state(h, 1.0, n)
        q = sharp_sequence_weight(h, 1.0, n)
        assert trace_distance(rho, ground.embed(rho.dim)) == pytest.approx(2 * q, abs=1e-12)


def test_sharp_sequence_entropy_closed_form():
    h = Hamiltonian.logarithmic(1.0, 0.0, 1 << 11)
    n = 512
    rho = sharp_sequence_state(h, 1.0, n)
    q = sharp_sequence_weight(h, 1.0, n)
    expected = -(1 - q) * math.log(1 - q) - q * math.log(q / n)
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)


def test_sharp_sequence_rejects_small_n():
    h = Hamiltonian.logarithmic(1.0, 0.0, 100)
    with pytest.raises(QExceedsOneError) as refused:
        sharp_sequence_state(h, 3.0, 4)
    q = sharp_sequence_weight(h, 3.0, 4)
    assert str(refused.value) == f"q={float(q)!r} exceeds 1 at n=4; increase n"


def test_mean_energy_examples():
    h = Hamiltonian.from_table([0.0, 1.0])
    ground = TraceClassElement(np.array([1.0, 0.0]))
    assert mean_energy(ground, h) == 0.0
    sigma = gibbs_state(h, 1.0, 2).state
    expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))
    assert mean_energy(sigma, h) == pytest.approx(expected, abs=1e-14)


def test_energy_rearrangement_gap_sorted_state():
    h = Hamiltonian.from_table([0.0, 1.0, 2.0])
    rho = TraceClassElement(np.array([0.6, 0.3, 0.1]))
    assert mean_energy(rho, h) - mean_energy(rearrangement(rho, h), h) == pytest.approx(0.0, abs=1e-12)


def test_energy_rearrangement_gap_plus_state():
    h = Hamiltonian.from_table([0.0, 1.0])
    plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    assert mean_energy(plus, h) - mean_energy(rearrangement(plus, h), h) == pytest.approx(0.5, abs=1e-12)


def test_divergent_threshold_entropy_grows_with_truncation():
    # degenerate level law: the partition sum diverges for every lam, and the
    # mixing family's entropy grows without bound as the truncation increases
    values = []
    for d in (16, 256, 4096):
        h = Hamiltonian.linear(1.0, 0.0, d)
        assert gibbs_threshold(h) == math.inf
        mixed = TraceClassElement(np.full(d, 1.0 / d))
        ground = np.zeros(d)
        ground[0] = 1.0
        rho = TraceClassElement(0.25 * mixed.diag + 0.75 * ground)
        assert mean_energy(rho, h) <= 1.0 + 1e-10
        values.append(von_neumann_entropy(rho))
    assert values[0] < values[1] < values[2]


def test_entropy_bounded_on_energy_shell(rng):
    # consequence of the Gibbs identity: H(rho) <= lam E + log Z for lam above threshold
    h = Hamiltonian.logarithmic(1.0, 0.0, 4096)
    for lam in (1.5, 2.0, 3.0):
        z = gibbs_state(h, lam, 4096).log_partition
        for n in (16, 128, 1024):
            rho = sharp_sequence_state(h, 1.0, n)
            assert von_neumann_entropy(rho) <= lam * mean_energy(rho, h) + z + 1e-8


def test_levels_are_computed_once_and_handed_out_read_only(monkeypatch):
    h = Hamiltonian.logarithmic(1.0, 0.0, 2**10 + 1)
    laws = []
    real = Hamiltonian._law

    def counted(self, dim):
        laws.append(dim)
        return real(self, dim)

    monkeypatch.setattr(Hamiltonian, "_law", counted)
    for n in (16, 64, 256, 1024):
        sharp_sequence_state(h, 1.0, n)
        mean_energy(sharp_sequence_state(h, 1.0, n), h)
    assert laws == [2**10 + 1]
    levels = h.energies(17)
    assert not levels.flags.writeable
    assert np.array_equal(levels, np.log(np.arange(17) + 1.0))
    with pytest.raises(ValueError):
        levels[0] = 1.0
