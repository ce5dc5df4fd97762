"""Support-held classical joints agree with the same joints held as full diagonals."""

import itertools

import numpy as np
import pytest

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
