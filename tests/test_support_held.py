"""Support-held classical joints agree with the same joints held as full diagonals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroloss import operators
from entroloss.errors import DimensionOverflowError
from entroloss.info import conditional_entropy, conditional_mutual_information, mutual_information, von_neumann_entropy
from entroloss.majorization import rearrangement, separable_majorization_check
from entroloss.operators import TraceClassElement, group_factors, partial_trace, permute_factors, tensor, trace_distance
from entroloss.sequences import GRID_MEDIUM, make_classical_correlated_sequence, make_classical_triple_sequence

TOL = 1e-14
FAMILIES = {"correlated": make_classical_correlated_sequence, "triple": make_classical_triple_sequence}


def _assert_same_element(held, plain):
    assert held.factor_dims == plain.factor_dims and held.dim == plain.dim
    assert np.max(np.abs(held.diag - plain.diag)) <= TOL
    assert abs(von_neumann_entropy(held) - von_neumann_entropy(plain)) <= TOL


def _bipartitions(x):
    """The element itself if bipartite, else its two groupings into two factors."""
    if len(x.factor_dims) == 2:
        return [x]
    return [group_factors(x, sizes) for sizes in ((1, 2), (2, 1))]


@pytest.mark.parametrize("energy", [0.5, 1.2, 2.0])
@pytest.mark.parametrize("family", FAMILIES)
def test_support_held_joint_agrees_with_its_full_diagonal(family, energy):
    seq = FAMILIES[family](energy=energy, n_grid=GRID_MEDIUM)
    small = TraceClassElement(np.array([0.25, 0.75]))
    for n in GRID_MEDIUM:
        held = seq.element(n)
        plain = TraceClassElement(held.diag, held.factor_dims)
        assert held.held_eigenvalues().size == n + 1 and plain.held_eigenvalues().size == held.dim
        _assert_same_element(held, plain)
        assert np.array_equal(held.eigenvalues(), plain.eigenvalues()) and held.eigenvalues().size == held.dim
        k = len(held.factor_dims)
        for size in range(1, k + 1):
            for keep in itertools.combinations(range(k), size):
                marginal = partial_trace(held, keep)
                assert marginal.held_eigenvalues().size == min(n + 1, marginal.dim)
                _assert_same_element(marginal, partial_trace(plain, keep))
        for order in itertools.permutations(range(k)):
            _assert_same_element(permute_factors(held, order), permute_factors(plain, order))
        for h, p in zip(_bipartitions(held), _bipartitions(plain)):
            assert abs(float(mutual_information(h)) - float(mutual_information(p))) <= TOL
            assert abs(conditional_entropy(h) - conditional_entropy(p)) <= TOL
            assert separable_majorization_check(h) == separable_majorization_check(p)
        if k == 3:
            for check in (True, False):
                cmi = conditional_mutual_information(held, check=check)
                assert abs(cmi - conditional_mutual_information(plain, check=check)) <= TOL
        assert abs(seq.limit_distance(held) - seq.limit_distance(plain)) <= TOL
        assert trace_distance(held, plain) <= TOL
        assert np.array_equal(rearrangement(held).diag, rearrangement(plain).diag)
        if held.dim * small.dim <= 1 << 20:
            _assert_same_element(tensor(held, small), tensor(plain, small))
        else:
            for x in (held, plain):
                with pytest.raises(DimensionOverflowError):
                    tensor(x, small)


def _regrouped_by_bincount(w, axes, new_dims):
    """The regrouping as a sort into distinct flat indices and a sum per index."""
    index = np.unravel_index(w._support, w.factor_dims)
    flat = np.ravel_multi_index(tuple(index[a] for a in axes), new_dims)
    support, slot = np.unique(flat, return_inverse=True)
    return support, np.bincount(slot, weights=w._diag, minlength=support.size)


@st.composite
def _held_and_axes(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    dim = math.prod(dims)
    support = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
    values = draw(
        st.lists(
            st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 2.0, allow_subnormal=True)),
            min_size=len(support),
            max_size=len(support),
        )
    )
    k = len(dims)
    if draw(st.booleans()):
        axes = tuple(draw(st.permutations(range(k))))
    else:
        axes = tuple(sorted(draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))))
    held = TraceClassElement._unchecked(
        diag=np.array(values, dtype=float), factor_dims=dims, support=np.array(support, dtype=np.intp), dim=dim
    )
    return held, axes, tuple(dims[a] for a in axes)


@given(_held_and_axes())
@settings(max_examples=300, deadline=None)
def test_support_regrouped_matches_the_bincount_form_bit_for_bit(case):
    held, axes, new_dims = case
    out = operators._support_regrouped(held, axes, new_dims)
    support, values = _regrouped_by_bincount(held, axes, new_dims)
    assert out.factor_dims == new_dims and out.dim == math.prod(new_dims)
    assert np.array_equal(out._support, support)
    # an empty bincount is int64; the held values of an empty support stay float
    assert out._diag.dtype == np.float64
    assert np.array_equal(values.astype(float).view(np.int64), out._diag.view(np.int64))


def test_support_regrouped_sums_a_repeated_flat_index():
    # (0, 1) and (1, 1) share the B index 1; (0, 0) and (1, 0) are off the support
    held = TraceClassElement._unchecked(diag=np.array([0.25, 0.75]), factor_dims=(2, 2), support=np.array([1, 3]), dim=4)
    b = operators._support_regrouped(held, (1,), (2,))
    assert b._support.tolist() == [1] and b._diag.tolist() == [1.0]
    a = operators._support_regrouped(held, (0,), (2,))
    assert a._support.tolist() == [0, 1] and a._diag.tolist() == [0.25, 0.75]
