import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroloss import (
    Ensemble,
    Hamiltonian,
    TraceClassElement,
    apply,
    channel_mutual_information,
    choi_matrix,
    depolarizing_channel,
    group_factors,
    identity_channel,
    make_classical_correlated_sequence,
    make_classical_triple_sequence,
    make_product_sequence,
    operators,
    partial_trace,
    partial_trace_channel,
    permute_factors,
    relative_entropy_to_product,
    sharp_sequence_state,
    stinespring_entropy_residual,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from entroloss.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    BadFactorizationError,
    InvalidParameterError,
    NonHermitianError,
    NotPositiveError,
)
from entroloss.rand import random_channel, random_density, random_pure
from helpers import random_psd, reconstruct


def test_eig_diagonal_sorted_descending():
    dec = TraceClassElement(np.diag([0.3, 0.7])).spectrum()
    assert np.allclose(dec.eigenvalues, [0.7, 0.3])


def test_eig_maximally_mixed_qubit():
    dec = TraceClassElement(np.eye(2) / 2).spectrum()
    assert np.allclose(dec.eigenvalues, [0.5, 0.5])


def test_eig_reconstruction_random_4x4(rng):
    a = random_psd(4, rng)
    dec = TraceClassElement(a).spectrum()
    err = np.abs(np.linalg.eigvalsh(a - reconstruct(dec))).sum()
    assert err <= 1e-10 * max(1.0, np.abs(np.linalg.eigvalsh(a)).sum())


def test_eig_bulk_reconstruction_and_unitarity(rng):
    # spec-level volume: 1e4 random Hermitian matrices, dims up to 64
    dims = rng.integers(2, 65, size=10_000)
    for d in dims:
        a = random_psd(int(d), rng)
        dec = TraceClassElement(a).spectrum()
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(int(d)))) <= 1e-10
        err = np.abs(np.linalg.eigvalsh(a - reconstruct(dec))).sum()
        assert err <= 1e-10 * max(1.0, np.abs(np.linalg.eigvalsh(a)).sum())


def test_eig_deterministic(rng):
    a = TraceClassElement(random_psd(6, rng))
    d1, d2 = a.spectrum(), a.spectrum()
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        TraceClassElement([[0.0, 1.0], [0.0, 0.0]])


def test_every_construction_path_stores_an_exactly_hermitian_matrix(rng, monkeypatch):
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gram = g @ g.conj().T  # Hermitian only up to round-off
    rho = TraceClassElement(gram / np.real(np.trace(gram)), factor_dims=(2, 3))
    elements = {
        "validating constructor": rho,
        "channel output": apply(random_channel(6, 6, 2, rng), rho),
        "pure": random_pure(6, rng, factor_dims=(2, 3)),
        "scaled": rho.scaled(0.3),
        "tensor": tensor(rho, random_density(2, rng)),
        "partial trace": partial_trace(rho, [1]),
        "keep-all partial trace": partial_trace(rho, [0, 1]),
        "permuted": permute_factors(rho, (1, 0)),
        "embedded": rho.embed(8),
        "ensemble average": Ensemble([0.4, 0.6], [rho, random_density(6, rng)]).average,
    }
    calls = []
    check = operators._check_hermitian
    monkeypatch.setattr(operators, "_check_hermitian", lambda m: calls.append(m) or check(m))
    for name, element in elements.items():
        m = element.to_matrix()
        assert np.array_equal(m, m.conj().T), name
        dec = element.spectrum()
        w, v = np.linalg.eigh(m)
        assert np.array_equal(dec.eigenvalues, w[::-1]), name
        assert np.array_equal(dec.eigenvectors, v[:, ::-1]), name
    assert calls == []


def test_psd_validation():
    with pytest.raises(NotPositiveError):
        TraceClassElement(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveError):
        TraceClassElement(np.array([[0.5, 1.0], [1.0, 0.5]]))  # eigenvalues 1.5 and -0.5
    with pytest.raises(NotPositiveError):
        TraceClassElement(np.array([1.0, -0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(InvalidParameterError):
        TraceClassElement(np.array([bad, 1.0]))
    with pytest.raises(InvalidParameterError):
        TraceClassElement(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        TraceClassElement(np.array([[0.5, bad], [bad, 0.5]]))
    with pytest.raises(InvalidParameterError):
        TraceClassElement(np.array([[complex(0.5, bad), 0.0], [0.0, 0.5]]))
    with pytest.raises(InvalidParameterError):
        TraceClassElement.pure([bad, 1.0])
    with pytest.raises(InvalidParameterError):
        TraceClassElement.pure([complex(1.0, bad), 1.0])


def test_storage_form_follows_the_rank_of_the_entries():
    p = np.array([0.25, 0.75])
    diag, dense = TraceClassElement(p), TraceClassElement(np.diag(p))
    assert diag.diagonal and not dense.diagonal
    assert diag.dim == dense.dim == 2
    assert np.array_equal(diag.diag, dense.diag)
    assert TraceClassElement([[0.5, 0.0], [0.0, 0.5]]).diagonal is False
    for entries in (np.float64(1.0), np.ones((2, 2, 2)) / 8):
        with pytest.raises(DimensionMismatchError):
            TraceClassElement(entries)


def test_tensor_with_trivial_factor(rng):
    rho = random_density(3, rng)
    one = TraceClassElement(np.array([1.0]))
    out = tensor(rho, one)
    assert out.factor_dims == (3, 1)
    assert np.allclose(out.to_matrix(), rho.to_matrix())


def test_tensor_of_basis_projectors():
    p0 = TraceClassElement.pure([1.0, 0.0])
    p1 = TraceClassElement.pure([0.0, 1.0])
    out = tensor(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01>
    assert np.allclose(out.to_matrix(), expected)


def test_tensor_traces_multiply(rng):
    a = random_density(2, rng).scaled(0.5)
    b = random_density(3, rng).scaled(0.25)
    assert tensor(a, b).trace == pytest.approx(0.125, abs=1e-12)


def test_tensor_dimension_cap():
    big = TraceClassElement(np.eye(70) / 70)
    with pytest.raises(DimensionOverflowError):
        tensor(big, big)


def _guarded_sites():
    small = TraceClassElement(np.eye(3) / 3, factor_dims=(3,))
    joint = tensor(small, small)
    qubit = TraceClassElement(np.eye(2) / 2)
    wide = identity_channel(5)
    return {
        "__init__": lambda: TraceClassElement(np.eye(5) / 5),
        "pure": lambda: TraceClassElement.pure(np.ones(5)),
        "tensor": lambda: tensor(small, small),
        "spectrum": lambda: TraceClassElement(np.full(5, 0.2)).spectrum(),
        "relative_entropy_to_product": lambda: relative_entropy_to_product(joint, small, small),
        "apply": lambda: apply(wide, TraceClassElement(np.full(5, 0.2))),
        "choi_matrix": lambda: choi_matrix(identity_channel(3)),
        "stinespring_entropy_residual": lambda: stinespring_entropy_residual(depolarizing_channel(0.5), qubit),
        "identity_channel": lambda: identity_channel(5),
        "depolarizing_channel": lambda: depolarizing_channel(0.5, dim=3),
        "partial_trace_channel": lambda: partial_trace_channel((2, 3), keep=0),
    }


@pytest.mark.parametrize("site", list(_guarded_sites()))
def test_dense_guard_runs_before_each_allocation(site, monkeypatch):
    call = _guarded_sites()[site]
    monkeypatch.setattr(operators, "DENSE_DIM_CAP", 4)
    with pytest.raises(DimensionOverflowError) as excinfo:
        call()
    # raised by the guard of this very site, not by a later constructor
    assert excinfo.traceback[-1].name == "_require_dense_dim"
    assert excinfo.traceback[-2].name == site


def _diag_guarded_sites():
    """Each derived-diagonal site, built from inputs within a cap of 4 (the
    sharp states at n = 2 have 3 entries) and producing more than 4 entries."""
    flat = TraceClassElement(np.full(5, 0.2))
    pair = TraceClassElement(np.full(10, 0.1), (5, 2))
    third = TraceClassElement(np.full(3, 1 / 3))
    h = Hamiltonian.logarithmic(1.0, 0.0, 8)
    # a derived family's element is its element map of the sharp element(s)
    families = {
        "classical_correlated": (make_classical_correlated_sequence, "_correlated"),
        "product": (make_product_sequence, "tensor"),
        "classical_triple": (make_classical_triple_sequence, "_triple"),
    }
    sites = {
        "scaled": ("scaled", lambda: flat.scaled(0.5)),
        "partial_trace": ("partial_trace", lambda: partial_trace(pair, [0])),
        "permute_factors": ("permute_factors", lambda: permute_factors(pair, (1, 0))),
        "tensor": ("tensor", lambda: tensor(third, third)),
        "sharp_sequence_state": ("sharp_sequence_state", lambda: sharp_sequence_state(h, 0.3, 4)),
    }
    for name, (make, frame) in families.items():
        seq = make(energies=(0.3, 0.2), n_grid=(2,)) if name == "product" else make(energy=0.3, n_grid=(2,))
        sites[name] = (frame, lambda seq=seq: seq.element(2))
    return sites


@pytest.mark.parametrize("site", list(_diag_guarded_sites()))
def test_diag_guard_runs_before_each_derived_diagonal(site, monkeypatch):
    frame, call = _diag_guarded_sites()[site]
    monkeypatch.setattr(operators, "DIAG_DIM_CAP", 4)
    with pytest.raises(DimensionOverflowError) as excinfo:
        call()
    # raised by the guard of this very site, not by a later constructor
    assert excinfo.traceback[-1].name == "_require_diag_dim"
    assert excinfo.traceback[-2].name == frame


def test_channel_mutual_information_allocates_no_joint_output(monkeypatch):
    # tau would be 9 x 9; the Kraus set, Phi(rho) and rho_R are 3 x 3
    monkeypatch.setattr(operators, "DENSE_DIM_CAP", 4)
    rho = TraceClassElement(np.diag([0.5, 0.3, 0.2]))
    value = channel_mutual_information(identity_channel(3), rho)
    assert value == pytest.approx(2 * von_neumann_entropy(rho), abs=1e-12)


def test_partial_trace_product_state(rng):
    a = random_density(2, rng)
    b = random_density(3, rng)
    out = partial_trace(tensor(a, b), [0])
    assert trace_distance(out, a) <= 1e-12


def test_partial_trace_bell():
    bell = TraceClassElement.pure(np.array([1, 0, 0, 1]) / math.sqrt(2), factor_dims=(2, 2))
    out = partial_trace(bell, [0])
    assert np.allclose(out.to_matrix(), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_index_loop_oracle(rng):
    w = random_density(6, rng, factor_dims=(2, 3))
    m = w.to_matrix().reshape(2, 3, 2, 3)
    oracle = np.zeros((3, 3), dtype=complex)
    for b in range(3):
        for d in range(3):
            for a in range(2):
                oracle[b, d] += m[a, b, a, d]
    out = partial_trace(w, [1])
    assert np.max(np.abs(out.to_matrix() - oracle)) <= 1e-12


def test_partial_trace_preserves_trace_and_positivity(rng):
    for _ in range(50):
        w = random_density(12, rng, factor_dims=(3, 4))
        out = partial_trace(w, [1])
        assert out.trace == pytest.approx(w.trace, abs=1e-10)
        assert np.linalg.eigvalsh(out.to_matrix())[0] >= -1e-10


def test_partial_trace_requires_factors(rng):
    w = random_density(4, rng)
    with pytest.raises(BadFactorizationError):
        partial_trace(w, [0])


@pytest.mark.parametrize("diagonal", [True, False])
def test_embed_checks_factor_dims_for_both_storage_kinds(diagonal):
    w = TraceClassElement(np.full(4, 0.25))
    w = w if diagonal else TraceClassElement(w.to_matrix())
    assert w.embed(8, factor_dims=(2, 4)).factor_dims == (2, 4)
    for dim in (4, 8):
        with pytest.raises(BadFactorizationError):
            w.embed(dim, factor_dims=(2, 3))


def test_permute_factors_roundtrip(rng):
    w = random_density(12, rng, factor_dims=(2, 3, 2))
    back = permute_factors(permute_factors(w, (2, 0, 1)), (1, 2, 0))
    assert trace_distance(back, w) <= 1e-12


def test_stored_spectrum_is_read_only_and_shared_by_the_same_operator(rng):
    w = TraceClassElement(random_density(12, rng).to_matrix(), factor_dims=(2, 3, 2))
    eigs = w.eigenvalues()
    with pytest.raises(ValueError):
        eigs[0] = 1.0
    for same in (w.copy(), w.with_factors((6, 2)), group_factors(w, (1, 2)), partial_trace(w, [0, 1, 2]), w.embed(12)):
        assert same.eigenvalues() is eigs
    assert w.scaled(1.0).eigenvalues() is not eigs
    assert partial_trace(w, [0, 2]).eigenvalues() is not eigs


def test_permuted_element_inherits_its_spectrum(rng):
    w = random_density(12, rng, factor_dims=(2, 3, 2))
    eigs = w.eigenvalues()
    for order in itertools.permutations(range(3)):
        p = permute_factors(w, order)
        assert p.eigenvalues() is eigs
        assert np.max(np.abs(p.eigenvalues() - np.linalg.eigvalsh(p.to_matrix()))) <= 1e-12


def test_kept_eigendecomposition_is_read_only_and_shared_by_the_same_matrix(rng, monkeypatch):
    w = random_density(12, rng, factor_dims=(2, 3, 2))
    solves = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: solves.append(a) or real(a, *args, **kw))
    dec = w.spectrum()
    assert w.spectrum() is dec and len(solves) == 1
    for array in (dec.eigenvalues, dec.eigenvectors):
        with pytest.raises(ValueError):
            array[0] = 0.0
    for same in (w.copy(), w.with_factors((6, 2)), group_factors(w, (1, 2)), partial_trace(w, [0, 1, 2]), w.embed(12)):
        assert same.spectrum() is dec
    assert len(solves) == 1
    # a factor permutation keeps the eigenvalues but not the eigenvectors
    own = (w.scaled(0.5), partial_trace(w, [0, 2]), permute_factors(w, (1, 0, 2)))
    for other in own:
        assert other.spectrum() is not dec
        assert other.spectrum() is other.spectrum()
    assert len(solves) == 1 + len(own)
    permuted = own[-1].spectrum()
    assert np.max(np.abs(reconstruct(permuted) - own[-1].to_matrix())) <= 1e-12


def test_trace_distance_identical(rng):
    a = random_density(4, rng)
    assert trace_distance(a, a) == 0.0


def test_trace_distance_orthogonal_pure():
    a = TraceClassElement.pure([1.0, 0.0])
    b = TraceClassElement.pure([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(2.0, abs=1e-12)


def test_trace_distance_matches_singular_value_oracle(rng):
    a, b = random_density(5, rng), random_density(5, rng)
    oracle = np.linalg.svd(a.to_matrix() - b.to_matrix(), compute_uv=False).sum()
    assert trace_distance(a, b) == pytest.approx(oracle, abs=1e-10)


def test_trace_distance_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        trace_distance(random_density(2, rng), random_density(3, rng))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_trace_distance_metric_properties(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_density(4, rng) for _ in range(3))
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_mirsky_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b = random_density(5, rng), random_density(5, rng)
    lhs = np.abs(a.eigenvalues_descending() - b.eigenvalues_descending()).sum()
    assert lhs <= trace_distance(a, b) + 1e-9


def test_diagonal_fast_path_consistency(rng):
    p = rng.random(6)
    p /= p.sum()
    diag = TraceClassElement(p, factor_dims=(2, 3))
    dense = TraceClassElement(np.diag(p.astype(complex)), factor_dims=(2, 3))
    assert trace_distance(diag, dense) <= 1e-12
    assert trace_distance(partial_trace(diag, [0]), partial_trace(dense, [0])) <= 1e-12
    assert np.allclose(diag.eigenvalues_descending(), dense.eigenvalues_descending(), atol=1e-12)
