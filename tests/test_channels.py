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
    pseudo_diagonal_channel,
    stinespring,
    stinespring_entropy_residual,
    trace_distance,
    unitary_channel,
    von_neumann_entropy,
)
from entroloss import channels
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
    w = random_density(6, rng, factor_dims=(2, 3))
    for keep in (0, 1):
        op = partial_trace_channel((2, 3), keep=keep)
        assert trace_distance(apply(op, w), partial_trace(w, [keep])) <= 1e-12
        # the environment holds the traced-out factor
        h_env = entropy_exchange(op, w)
        assert h_env == pytest.approx(von_neumann_entropy(partial_trace(w, [1 - keep])), abs=1e-9)


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


def _counting(monkeypatch, name):
    """Record the first argument of each call to ``channels.<name>``."""
    calls = []
    real = getattr(channels, name)

    def counted(first, *args):
        calls.append(first)
        return real(first, *args)

    monkeypatch.setattr(channels, name, counted)
    return calls


def test_coherent_information_applies_the_operation_and_its_complementary_once(rng, monkeypatch):
    op = random_channel(3, 3, 2, rng)
    rho = random_density(3, rng)
    expected = channel_mutual_information(op, rho) - von_neumann_entropy(rho)
    applied = _counting(monkeypatch, "apply")
    built = _counting(monkeypatch, "complementary")
    value = coherent_information(op, rho)
    assert [o is op for o in applied].count(True) == 1
    assert built == [op]
    assert len(applied) == 2  # the operation and its complementary
    assert value == expected


def test_channel_identities_decompose_the_input_once_and_build_one_complementary(rng, monkeypatch):
    op = random_channel(3, 3, 2, rng)
    rho = random_density(3, rng)
    solves, built = [], []
    real_eigh, real_init = np.linalg.eigh, QuantumOperation.__init__
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: solves.append(a) or real_eigh(a, *args, **kw))
    monkeypatch.setattr(QuantumOperation, "__init__", lambda self, kraus: built.append(self) or real_init(self, kraus))
    channel_mutual_information(op, rho)
    coherent_information(op, rho)
    stinespring_entropy_residual(op, rho)
    assert sum(np.array_equal(a, rho.to_matrix()) for a in solves) == 1
    assert len(built) == 1
    assert complementary(op) is built[0]


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


def test_convergence_profile_applies_the_limit_once_per_probe(monkeypatch):
    probes = [
        TraceClassElement(np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)),
        TraceClassElement(np.array([1.0, 0.0])),
        TraceClassElement(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)),
        TraceClassElement(np.array([0.25, 0.75])),
    ]
    ramp = ChannelSequence(lambda n: dephasing_channel(0.5 + 0.4 / n), dephasing_channel(0.5), probes, n_min=2)
    grid = [2**k for k in range(2, 9)]
    expected = [
        max(trace_distance(apply(ramp.generator(n), rho), apply(ramp.limit, rho)) for rho in probes) for n in grid
    ]
    applied = _counting(monkeypatch, "apply")
    profile = ramp.convergence_profile(grid)
    assert [op is ramp.limit for op in applied].count(True) == len(probes)
    assert len(applied) == len(probes) * (1 + len(grid))
    assert np.array_equal(profile, np.array(expected))


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


# ---------------------------------------------------------------------------
# One Kraus stack per operation.  The references below are the per-operator
# loops that the reshapes of the stack replaced; the dilation, the
# complementary and every named builder must match their bytes.
# ---------------------------------------------------------------------------


def _ref_stinespring(kraus):
    """The dilation interleaved one operator at a time: row b * env + k is row b of K_k."""
    env = len(kraus)
    v = np.zeros((kraus[0].shape[0] * env, kraus[0].shape[1]), dtype=complex)
    for idx, k in enumerate(kraus):
        v[idx::env, :] = k
    return v


def _ref_complementary(kraus):
    stacked = np.stack(kraus)
    return [stacked[:, b, :].copy() for b in range(stacked.shape[1])]


def _ref_choi(kraus):
    d = kraus[0].size
    j = np.zeros((d, d), dtype=complex)
    for k in kraus:
        v = k.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def _ref_partial_trace_kraus(da, db, keep):
    kraus = []
    if keep == 0:
        for j in range(db):
            k = np.zeros((da, da * db), dtype=complex)
            for a in range(da):
                k[a, a * db + j] = 1.0
            kraus.append(k)
    else:
        for j in range(da):
            k = np.zeros((db, da * db), dtype=complex)
            for b in range(db):
                k[b, j * db + b] = 1.0
            kraus.append(k)
    return kraus


def _ref_measure_prepare_kraus(povm, preps):
    kraus = []
    for m, tau in zip(povm, preps):
        wm, vm = np.linalg.eigh(np.asarray(m, dtype=complex))
        wt, vt = np.linalg.eigh(tau.to_matrix())
        for r in range(wm.size):
            if wm[r] <= channels.KRAUS_TOL:
                continue
            bra = np.sqrt(wm[r]) * vm[:, r].conj()
            for s in range(wt.size):
                if wt[s] <= channels.KRAUS_TOL:
                    continue
                ket = np.sqrt(wt[s]) * vt[:, s]
                kraus.append(np.outer(ket, bra))
    return kraus


def _ref_random_channel_kraus(dim_in, dim_out, choi_rank, rng):
    v = random_isometry(rng, dim_out * choi_rank, dim_in)
    return [v[k::choi_rank, :] for k in range(choi_rank)]


def _bytes(kraus):
    return np.stack([np.asarray(k, dtype=complex) for k in kraus]).tobytes()


def _random_povm(rng, dim, outcomes):
    """Outcome blocks of a random isometry dim -> dim * outcomes."""
    v = random_isometry(rng, dim * outcomes, dim)
    return [v[i * dim : (i + 1) * dim].conj().T @ v[i * dim : (i + 1) * dim] for i in range(outcomes)]


def _entries_form(rng):
    entries = _scaled_partial_permutations(rng, 3, 4, 2, True)
    index, row, col, amp = (np.asarray(a) for a in entries)
    ref = np.zeros((2, 3, 4), dtype=complex)
    ref[index, row, col] = amp
    return QuantumOperation.from_entries(3, 4, *entries), list(ref)


def _strided_stinespring(rng, dim_in=3, dim_out=2, rank=3):
    """An isometry whose row b * rank + k is row b of K_k, and its Kraus list."""
    v = random_isometry(rng, dim_out * rank, dim_in)
    return v, [v[k::rank, :].copy() for k in range(rank)]


# construction -> (operation, its Kraus operators as a list of fresh matrices)
def _list_input(rng):
    _, kraus = _strided_stinespring(rng)
    return QuantumOperation([k.copy() for k in kraus]), kraus


def _array_input(rng):
    _, kraus = _strided_stinespring(rng)
    return QuantumOperation(np.stack(kraus)), kraus


def _strided_view_input(rng):  # the views ``v[k::r, :]`` that bench/workloads.py passes
    v, kraus = _strided_stinespring(rng)
    return QuantumOperation([v[k::3, :] for k in range(3)]), kraus


def _swapped_view_input(rng):  # a 3-D view whose strides are not C order
    v, kraus = _strided_stinespring(rng)
    return QuantumOperation(v.reshape(2, 3, 3).swapaxes(0, 1)), kraus


CONSTRUCTIONS = {
    "list": _list_input,
    "array": _array_input,
    "strided-views": _strided_view_input,
    "swapped-view": _swapped_view_input,
    "entries": _entries_form,
}


def _is_one_stack(a):
    return isinstance(a, np.ndarray) and a.ndim == 3 and a.dtype == complex and a.flags.c_contiguous and not a.flags.writeable


@pytest.mark.parametrize("build", list(CONSTRUCTIONS.values()), ids=list(CONSTRUCTIONS))
def test_kraus_is_one_read_only_c_contiguous_stack(build):
    op, ref = build(np.random.default_rng(31))
    assert _is_one_stack(op.kraus) and op.kraus.shape == (len(ref), op.dim_out, op.dim_in)
    assert _is_one_stack(complementary(op).kraus)
    assert op.kraus is op.kraus  # built once, kept
    with pytest.raises(ValueError):
        op.kraus[0, 0, 0] = 1.0


@pytest.mark.parametrize("build", list(CONSTRUCTIONS.values()), ids=list(CONSTRUCTIONS))
def test_dilation_complementary_and_choi_match_the_per_operator_loops(build):
    op, ref = build(np.random.default_rng(37))
    assert op.kraus.tobytes() == _bytes(ref)
    v = stinespring(op)
    assert v.isometry.tobytes() == _ref_stinespring(ref).tobytes()
    assert (v.out_dim, v.env_dim) == (op.dim_out, len(ref))
    assert complementary(op).kraus.tobytes() == _bytes(_ref_complementary(ref))
    # one matrix product sums the operators in its own order, so the Choi
    # matrix matches the loop to rounding, and its rank exactly
    j, j_ref = choi_matrix(op), _ref_choi(ref)
    assert np.max(np.abs(j - j_ref)) <= 1e-15
    w = np.linalg.eigvalsh(j_ref)
    assert choi_rank(op) == np.count_nonzero(w > 1e-12 * w[-1])


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 4), (4, 1), (3, 3)])
@pytest.mark.parametrize("keep", [0, 1])
def test_partial_trace_channel_kraus_match_the_loops(dims, keep):
    op = partial_trace_channel(dims, keep)
    assert op.kraus.tobytes() == _bytes(_ref_partial_trace_kraus(*dims, keep))
    assert op.trace_preserving


def test_measure_prepare_and_pseudo_diagonal_kraus_match_the_loops(rng):
    cases = [
        ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [random_pure(2, rng), random_density(2, rng)]),
        (_random_povm(rng, 2, 3), [random_density(3, rng, rank=r) for r in (1, 2, 3)]),
        (_random_povm(rng, 3, 2), [random_density(2, rng), random_pure(2, rng)]),
        (np.stack(_random_povm(rng, 3, 4)), [random_density(4, rng, rank=2) for _ in range(4)]),
    ]
    for povm, preps in cases:
        ref = _ref_measure_prepare_kraus(povm, preps)
        assert measure_prepare_channel(povm, preps).kraus.tobytes() == _bytes(ref)
        assert pseudo_diagonal_channel(povm, preps).kraus.tobytes() == _bytes(_ref_complementary(ref))


@pytest.mark.parametrize("dim_in, dim_out, rank", [(2, 2, 1), (2, 2, 3), (3, 2, 2), (4, 4, 2), (8, 8, 3)])
def test_random_channel_kraus_match_the_sliced_isometry(dim_in, dim_out, rank):
    op = random_channel(dim_in, dim_out, rank, np.random.default_rng(dim_in * 100 + rank))
    ref = _ref_random_channel_kraus(dim_in, dim_out, rank, np.random.default_rng(dim_in * 100 + rank))
    assert op.kraus.tobytes() == _bytes(ref)
    assert stinespring(op).isometry.tobytes() == _ref_stinespring(ref).tobytes()


@pytest.mark.parametrize(
    "kraus",
    [np.eye(2), [np.ones(2)], [], np.zeros((0, 2, 2)), [np.eye(2), np.eye(3)], [np.zeros((2, 0))]],
    ids=["one-matrix", "vectors", "empty-list", "empty-stack", "ragged", "zero-width"],
)
def test_a_malformed_kraus_set_is_a_dimension_mismatch(kraus):
    with pytest.raises(DimensionMismatchError):
        QuantumOperation(kraus)


def test_an_empty_povm_is_invalid():
    with pytest.raises(InvalidPOVMError):
        measure_prepare_channel([], [TraceClassElement(np.array([0.5, 0.5]))])


def test_preparations_of_different_dims_are_a_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        measure_prepare_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [random_density(2, rng), random_density(3, rng)])


def test_a_random_channel_too_narrow_for_its_input_is_an_invalid_parameter(rng):
    with pytest.raises(InvalidParameterError):
        random_channel(4, 1, 2, rng)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_kraus_entry_is_an_invalid_parameter(bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        QuantumOperation([np.array([[bad, 0.0], [0.0, 1.0]])])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_entry_amplitude_is_an_invalid_parameter(bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        QuantumOperation.from_entries(2, 2, [0, 0], [0, 1], [0, 1], [1.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_povm_outcome_is_an_invalid_parameter(bad):
    # the eigenvalue filter would drop a NaN outcome's Kraus operators silently
    state = TraceClassElement(np.array([0.5, 0.5]))
    with pytest.raises(InvalidParameterError, match="finite"):
        measure_prepare_channel([np.diag([bad, 0.0]), np.diag([0.0, 1.0])], [state, state])


@pytest.mark.parametrize("dim_out, rank", [(3, 2), (2, 3), (2, 2)])
def test_ext2_residual_never_decomposes_the_dilated_joint(rng, monkeypatch, dim_out, rank):
    # I(B:E) comes from the columns of V M: no dim_out * K matrix is decomposed
    op, rho = random_channel(3, dim_out, rank, rng), random_density(3, rng)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, real=real, **kw):
            shapes.append(np.shape(a))
            return real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert stinespring_entropy_residual(op, rho) <= 1e-12
    assert shapes and all(dim_out * rank not in shape for shape in shapes)
