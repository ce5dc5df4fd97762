import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entroloss import (
    ChannelSequence,
    QuantumOperation,
    TraceClassElement,
    apply,
    channel_mutual_information,
    choi_matrix,
    choi_rank,
    coherent_information,
    complementary,
    compression_operation,
    constrained_holevo_estimate,
    dephasing_channel,
    depolarizing_channel,
    entropy_exchange,
    identity_channel,
    measure_prepare_channel,
    output_entropy,
    partial_trace,
    partial_trace_channel,
    pinching_channel,
    pseudo_diagonal_channel,
    stinespring,
    stinespring_entropy_residual,
    tensor,
    trace_distance,
    unitary_channel,
    von_neumann_entropy,
)
from entroloss._optim import OptimizerBudget, random_isometry
from entroloss.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidParameterError,
    InvalidPOVMError,
    NotAChannelError,
    TraceIncreasingError,
)
from entroloss.rand import haar_unitary, random_channel, random_density, random_pure
from entroloss.sequences import make_sharp_sequence

LOG2 = math.log(2.0)
SMALL_BUDGET = OptimizerBudget(restarts=6, iterations=600, seed=5)


def test_apply_identity(rng):
    rho = random_density(3, rng)
    assert trace_distance(apply(identity_channel(3), rho), rho) <= 1e-12


def test_apply_full_depolarizing(rng):
    op = depolarizing_channel(1.0, 2)
    for _ in range(5):
        out = apply(op, random_density(2, rng))
        assert np.max(np.abs(out.to_matrix() - np.eye(2) / 2)) <= 1e-12


def test_apply_full_dephasing_on_plus():
    plus = TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    out = apply(dephasing_channel(1.0), plus)
    assert np.max(np.abs(out.to_matrix() - np.eye(2) / 2)) <= 1e-12


def test_apply_diagonal_fast_path(rng):
    op = random_channel(4, 3, 2, rng)
    p = rng.random(4)
    p /= p.sum()
    diag = TraceClassElement(p)
    dense = TraceClassElement(np.diag(p.astype(complex)))
    assert trace_distance(apply(op, diag), apply(op, dense)) <= 1e-12


def test_trace_increasing_rejected():
    with pytest.raises(TraceIncreasingError):
        QuantumOperation([np.eye(2) * 1.1])


def test_stinespring_isometry(rng):
    op = random_channel(3, 3, 2, rng)
    v = stinespring(op)
    assert v.env_dim == len(op.kraus)
    assert np.max(np.abs(v.isometry.conj().T @ v.isometry - np.eye(3))) <= 1e-10
    rho = random_density(3, rng)
    dilated = TraceClassElement(
        v.isometry @ rho.to_matrix() @ v.isometry.conj().T, (v.out_dim, v.env_dim)
    )
    assert trace_distance(partial_trace(dilated, [0]), apply(op, rho)) <= 1e-9


def test_complementary_matches_dilation_oracle(rng):
    # environment marginal of V rho V^dag computed independently
    op = dephasing_channel(0.4)
    v = stinespring(op)
    rho = random_density(2, rng)
    dilated = TraceClassElement(
        v.isometry @ rho.to_matrix() @ v.isometry.conj().T, (v.out_dim, v.env_dim)
    )
    oracle = partial_trace(dilated, [1])
    assert trace_distance(apply(complementary(op), rho), oracle) <= 1e-10


def test_complementary_of_identity_is_trace_map(rng):
    comp = complementary(identity_channel(3))
    out = apply(comp, random_density(3, rng))
    assert out.dim == 1
    assert von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-12)


def test_complementary_of_partial_trace(rng):
    op = partial_trace_channel((2, 3), keep=0)
    w = random_density(6, rng, factor_dims=(2, 3))
    h_env = entropy_exchange(op, w)
    h_b = von_neumann_entropy(partial_trace(w, [1]))
    assert h_env == pytest.approx(h_b, abs=1e-9)


def test_choi_rank_examples(rng):
    assert choi_rank(identity_channel(3)) == 1
    assert choi_rank(dephasing_channel(0.5)) == 2
    # full depolarizing qubit: Choi spectrum oracle says maximally mixed, rank 4
    op = depolarizing_channel(1.0, 2)
    spectrum = np.linalg.eigvalsh(choi_matrix(op))
    assert np.allclose(spectrum, 0.5, atol=1e-12)
    assert choi_rank(op) == 4


def test_output_entropy_examples(rng):
    rho = random_density(2, rng)
    assert output_entropy(depolarizing_channel(1.0, 2), rho) == pytest.approx(LOG2, abs=1e-12)
    assert output_entropy(identity_channel(2), rho) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def test_output_entropy_homogeneous_extension(rng):
    # operation with sum K^dag K = I/2: the cone extension halves the entropy
    op = QuantumOperation([np.eye(2) / math.sqrt(2)])
    rho = random_density(2, rng)
    assert output_entropy(op, rho) == pytest.approx(0.5 * von_neumann_entropy(rho), abs=1e-12)


def test_ext2_residual_identity_pure(rng):
    psi = random_pure(2, rng)
    assert stinespring_entropy_residual(identity_channel(2), psi) <= 1e-12


def test_ext2_residual_dephasing(rng):
    for _ in range(10):
        assert stinespring_entropy_residual(dephasing_channel(0.3), random_density(2, rng)) <= 1e-8


def test_ext2_residual_random_channels(rng):
    for _ in range(10):
        op = random_channel(2, 2, 2, rng)
        assert stinespring_entropy_residual(op, random_density(2, rng)) <= 1e-8


def test_ext2_requires_channel():
    half = QuantumOperation([np.eye(2) / math.sqrt(2)])
    with pytest.raises(NotAChannelError):
        stinespring_entropy_residual(half, TraceClassElement(np.eye(2) / 2))


def test_constrained_holevo_identity_on_mixed():
    rho = TraceClassElement(np.array([0.5, 0.5]))
    est = constrained_holevo_estimate(identity_channel(2), rho, 2, SMALL_BUDGET)
    assert est.value == pytest.approx(LOG2, abs=1e-6)
    assert est.direction.value == "lower_bound"


def test_constrained_holevo_depolarizing_and_singleton(rng):
    rho = random_density(2, rng)
    est = constrained_holevo_estimate(depolarizing_channel(1.0, 2), rho, 3, SMALL_BUDGET)
    assert est.value <= 1e-9
    est1 = constrained_holevo_estimate(identity_channel(2), rho, 1, SMALL_BUDGET)
    assert est1.value == pytest.approx(0.0, abs=1e-12)


def test_channel_mi_identity(rng):
    rho = random_density(3, rng)
    assert channel_mutual_information(identity_channel(3), rho) == pytest.approx(
        2 * von_neumann_entropy(rho), abs=1e-8
    )


def test_channel_mi_full_depolarizing(rng):
    rho = random_density(2, rng)
    assert channel_mutual_information(depolarizing_channel(1.0, 2), rho) == pytest.approx(0.0, abs=1e-8)


def test_channel_mi_cross_check_random(rng):
    # the purification-independence and entropy-combination checks run inside
    for _ in range(10):
        op = random_channel(3, 2, 2, rng)
        channel_mutual_information(op, random_density(3, rng))


def dense_entropy(m):
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return float(-np.sum(w[w > 0] * np.log(w[w > 0])))


@pytest.mark.parametrize("d", [8, 16])
def test_channel_mi_matches_dilation_entropies(rng, d):
    # I(Phi, rho) = H(rho) + H(B) - H(E) on the output of a Stinespring isometry
    v = random_isometry(rng, 2 * d, d)
    op = QuantumOperation([v[k::2, :] for k in range(2)])
    rho = random_density(d, rng).to_matrix()
    dilated = (v @ rho @ v.conj().T).reshape(d, 2, d, 2)
    h_b = dense_entropy(np.einsum("ajbj->ab", dilated))
    h_e = dense_entropy(np.einsum("ajak->jk", dilated))
    value = channel_mutual_information(op, TraceClassElement(rho))
    assert value == pytest.approx(dense_entropy(rho) + h_b - h_e, abs=1e-10)


def test_channel_mi_eigendecomposes_nothing_of_the_joint_output_dim(rng, monkeypatch):
    d = 16
    op = random_channel(d, d, 2, rng)
    rho = random_density(d, rng)
    dims = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, **kwargs):
            dims.append(np.shape(a)[-1])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    channel_mutual_information(op, rho)
    # tau has dim_out * r = 256; every solve is on a 16-dim or Kraus-count-dim matrix
    assert dims and max(dims) < d * d


@pytest.mark.parametrize("n", [64, 128])
def test_channel_mi_identity_beyond_the_dense_cap(n):
    # tau would have dimension (n + 1)**2 > DENSE_DIM_CAP
    rho = make_sharp_sequence(n_grid=(n,)).element(n)
    assert rho.dim == n + 1
    value = channel_mutual_information(identity_channel(rho.dim), rho)
    assert value == pytest.approx(2 * von_neumann_entropy(rho), abs=1e-12)


def test_coherent_information_examples(rng):
    rho = random_density(2, rng)
    assert coherent_information(identity_channel(2), rho) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-8
    )
    assert coherent_information(depolarizing_channel(1.0, 2), rho) == pytest.approx(
        -von_neumann_entropy(rho), abs=1e-8
    )
    mixed = TraceClassElement(np.array([0.5, 0.5]))
    assert coherent_information(dephasing_channel(1.0), mixed) == pytest.approx(0.0, abs=1e-10)


def test_coherent_information_range(rng):
    for _ in range(20):
        op = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        ic = coherent_information(op, rho)
        assert abs(ic) <= von_neumann_entropy(rho) + 1e-9


def test_measure_prepare_channel(rng):
    povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    preps = [TraceClassElement.pure([1.0, 0.0]), TraceClassElement.pure([0.0, 1.0])]
    op = measure_prepare_channel(povm, preps)
    rho = random_density(2, rng)
    expected = np.diag(np.real(np.diagonal(rho.to_matrix())))
    assert np.max(np.abs(apply(op, rho).to_matrix() - expected)) <= 1e-10


def test_measure_prepare_rejects_bad_povm():
    with pytest.raises(InvalidPOVMError):
        measure_prepare_channel([np.eye(2) * 0.7], [TraceClassElement(np.eye(2) / 2)])


def test_pseudo_diagonal_channel_properties(rng):
    povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    preps = [TraceClassElement.pure([1.0, 0.0]), TraceClassElement.pure([0.0, 1.0])]
    op = pseudo_diagonal_channel(povm, preps)
    assert op.trace_preserving
    # complementary of the basis measure-and-reprepare decoheres in the basis
    for _ in range(10):
        rho = random_density(2, rng)
        out = apply(op, rho).to_matrix()
        off = out - np.diag(np.diagonal(out))
        assert np.max(np.abs(off)) <= 1e-10
        # coherent information and entropy gain stay nonnegative on this family
        assert coherent_information(op, rho) >= -1e-9
        assert output_entropy(op, rho) - von_neumann_entropy(rho) >= -1e-9


def test_pinching_channel(rng):
    rho = random_density(3, rng)
    out = apply(pinching_channel(3), rho)
    assert np.allclose(out.to_matrix(), np.diag(np.diagonal(rho.to_matrix())), atol=1e-12)


def test_operation_tensor(rng):
    a, b = random_density(2, rng), random_density(2, rng)
    op = dephasing_channel(0.7).tensor(identity_channel(2))
    joint = tensor(a, b)
    expected = tensor(apply(dephasing_channel(0.7), a), b)
    assert trace_distance(apply(op, joint), expected) <= 1e-10


def test_compression_operation(rng):
    op = compression_operation(4, 2)
    assert choi_rank(op) == 1
    assert not op.trace_preserving
    rho = random_density(4, rng)
    out = apply(op, rho)
    assert out.dim == 2
    assert out.trace <= rho.trace + 1e-12


@pytest.mark.parametrize("dim_out", [0, -1])
def test_compression_refuses_an_empty_output(dim_out):
    with pytest.raises(InvalidParameterError):
        compression_operation(4, dim_out)


def _scaled_partial_permutations(rng, dim_out, dim_in, n_kraus, trace_preserving):
    """Entries of ``n_kraus`` random scaled partial permutations; a trace-preserving
    draw covers every column and rescales each column's weight to 1, any other
    draw leaves every column's weight in (0, 1]."""
    index, row, col = [], [], []
    cover = rng.permutation(dim_in) if trace_preserving else np.zeros(0, dtype=int)
    for k in range(n_kraus):
        cols = cover[k::n_kraus]
        low = 0 if trace_preserving else 1
        extra = rng.integers(low, min(dim_out, dim_in) - cols.size + 1)
        cols = np.concatenate([cols, rng.choice(np.setdiff1d(np.arange(dim_in), cols), extra, replace=False)])
        index += [k] * cols.size
        row += list(rng.choice(dim_out, cols.size, replace=False))
        col += list(cols)
    amp = rng.standard_normal(len(col)) + 1j * rng.standard_normal(len(col))
    weight = np.bincount(col, np.abs(amp) ** 2, minlength=dim_in)
    if not trace_preserving:
        weight *= rng.uniform(1.0, 2.0, dim_in)
    return index, row, col, amp / np.sqrt(weight[col])


ENTRIES_CASES = [
    (dim_out, dim_in, n_kraus, tp)
    for dim_out, dim_in, n_kraus in itertools.product(range(2, 7), range(2, 7), (1, 2, 3))
    for tp in (False, True)
    if not tp or -(-dim_in // n_kraus) <= dim_out  # a cover needs ceil(dim_in / n_kraus) rows
]


@pytest.mark.parametrize("dim_out, dim_in, n_kraus, tp", ENTRIES_CASES)
def test_entries_form_matches_its_dense_kraus(dim_out, dim_in, n_kraus, tp):
    rng = np.random.default_rng((dim_out, dim_in, n_kraus, tp))
    op = QuantumOperation.from_entries(dim_out, dim_in, *_scaled_partial_permutations(rng, dim_out, dim_in, n_kraus, tp))
    diag = TraceClassElement(rng.dirichlet(np.ones(dim_in)))
    dense = random_density(dim_in, rng)
    assert apply(op, diag).diagonal
    ref = QuantumOperation(op.kraus)
    assert op.trace_preserving == ref.trace_preserving == tp
    for rho in (diag, dense):
        assert np.max(np.abs(apply(op, rho).to_matrix() - apply(ref, rho).to_matrix())) <= 1e-12
    if tp:
        assert choi_rank(op) == choi_rank(ref)
        for rho in (diag, dense):
            assert abs(entropy_exchange(op, rho) - entropy_exchange(ref, rho)) <= 1e-12
            assert abs(channel_mutual_information(op, rho) - channel_mutual_information(ref, rho)) <= 1e-12


@pytest.mark.parametrize(
    "entries, error",
    [
        (([0, 0], [0, 0], [0, 1], [0.5, 0.5]), DimensionMismatchError),  # two entries in one row
        (([0, 0], [0, 1], [1, 1], [0.5, 0.5]), DimensionMismatchError),  # two entries in one column
        (([0], [2], [0], [1.0]), DimensionMismatchError),  # an entry outside the 2x2 operator
        (([], [], [], []), DimensionMismatchError),
        (([0, 1], [0, 0], [1, 1], [0.8, 0.8j]), TraceIncreasingError),  # column weight 1.28
    ],
)
def test_entries_form_refuses_bad_entries(entries, error):
    with pytest.raises(error):
        QuantumOperation.from_entries(2, 2, *entries)


def test_compression_beyond_the_dense_cap_builds_no_kraus_matrix():
    rho = make_sharp_sequence(energy=1.2).element(2**16)
    output_entropy(compression_operation(4, 2), TraceClassElement(np.full(4, 0.25)))  # imports done
    tracemalloc.start()
    try:
        op = compression_operation(rho.dim, 8)
        value = output_entropy(op, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # one dense 8 x (2**16 + 1) Kraus matrix is 8.4 MB
    assert value == von_neumann_entropy(TraceClassElement(rho.diag[:8]))
    with pytest.raises(DimensionOverflowError):
        op.kraus


def test_channel_sequence_validation():
    probes = [
        TraceClassElement(np.array([1.0, 0.0])),
        TraceClassElement.pure(np.array([1.0, 1.0]) / math.sqrt(2)),
        TraceClassElement.pure(np.array([1.0, 1.0j]) / math.sqrt(2)),
        TraceClassElement(np.array([0.25, 0.75])),
    ]
    ramp = ChannelSequence(
        generator=lambda n: dephasing_channel(0.5 + 0.3 / n),
        limit=dephasing_channel(0.5),
        probe_states=probes,
    )
    assert ramp.validate([2, 4, 8, 16, 32])
    wobble = ChannelSequence(
        generator=lambda n: dephasing_channel(0.5 + 0.3 / n * (-1) ** n),
        limit=dephasing_channel(0.5),
        probe_states=probes,
    )
    profile = wobble.convergence_profile([2, 3, 4, 5])
    assert profile.max() > 0


def test_apply_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        apply(identity_channel(2), random_density(3, rng))


def test_unitary_output_entropy_preserved(rng):
    u = haar_unitary(3, rng)
    rho = random_density(3, rng)
    assert output_entropy(unitary_channel(u), rho) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


def test_double_complementary_entropy_on_probes(rng):
    # the complementary of the complementary agrees with the channel only up
    # to an isometry, so the comparison goes through output entropies
    for op in (dephasing_channel(0.4), depolarizing_channel(0.6, 2), random_channel(2, 2, 2, rng)):
        double = complementary(complementary(op))
        for _ in range(5):
            rho = random_density(2, rng)
            assert von_neumann_entropy(apply(double, rho)) == pytest.approx(
                output_entropy(op, rho), abs=1e-9
            )
