"""One rule for every integer argument and one check for every factorization.

Each caller-supplied size, index, seed and count goes through
``operators.integer_parameter``: a fraction, a bool, a numpy bool, a numeric
string or a value below the entry's bound raises ``InvalidParameterError``
instead of being truncated or failing with an untyped error.  Each list of
them goes through ``operators.integer_parameters``, which refuses a
non-iterable the same way.  Each functional
of a declared bipartition or tripartition checks it through
``operators._require_factors`` and raises ``BadFactorizationError``.
"""

import numpy as np
import pytest

from entroloss import (
    Hamiltonian,
    QuantumOperation,
    TraceClassElement,
    conditional_entropy,
    conditional_mutual_information,
    depolarizing_channel,
    entanglement_of_formation,
    group_factors,
    identity_channel,
    mutual_information,
    partial_trace,
    partial_trace_channel,
    permute_factors,
    separable_majorization_check,
    sharp_sequence_state,
)
from entroloss.channels import ChannelSequence, compression_operation
from entroloss.energy import gibbs_state
from entroloss.errors import BadFactorizationError, InvalidParameterError
from entroloss.operators import integer_parameter, integer_parameters
from entroloss.rand import random_channel, random_density
from entroloss.roofs import classical_correlations, formation_two_member_grid, koashi_winter_residual
from entroloss.sequences import check_grid, make_sharp_sequence
from entroloss.suites import suite_run

MIXED4 = TraceClassElement(np.eye(4) / 4, factor_dims=(2, 2))
MIXED8 = TraceClassElement(np.eye(8) / 8, factor_dims=(2, 2, 2))
LOG_H = Hamiltonian.logarithmic(1.0, 0.0, 64)
RANK_TWO = TraceClassElement(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), factor_dims=(2, 2))

# entry -> (call with the argument under test, its least valid value)
ENTRIES = {
    "TraceClassElement-factor_dims": (lambda v: TraceClassElement(np.eye(4) / 4, factor_dims=(v, 2)), 1),
    "with_factors": (lambda v: MIXED4.with_factors((2, v)), 1),
    "partial_trace-keep": (lambda v: partial_trace(MIXED8, [v]), 0),
    "permute_factors-order": (lambda v: permute_factors(MIXED4, (v, 0)), 0),
    "group_factors-sizes": (lambda v: group_factors(MIXED8, (v, 1)), 1),
    "embed-dim": (lambda v: MIXED4.embed(v), 0),
    "check_grid": (lambda v: check_grid([v, 32]), 1),
    "StateSequence.element": (lambda v: make_sharp_sequence().element(v), 1),
    "ChannelSequence-n_min": (lambda v: ChannelSequence(identity_channel, identity_channel(2), [], n_min=v), 0),
    "Hamiltonian-truncation": (lambda v: Hamiltonian.logarithmic(1.0, 0.0, v), 1),
    "gibbs_state-dim": (lambda v: gibbs_state(LOG_H, 2.0, v), 1),
    "sharp_sequence_state-n": (lambda v: sharp_sequence_state(LOG_H, 1.0, v), 1),
    "identity_channel-dim": (lambda v: identity_channel(v), 1),
    "depolarizing_channel-dim": (lambda v: depolarizing_channel(0.1, v), 1),
    "partial_trace_channel-dims": (lambda v: partial_trace_channel((v, 2), 0), 1),
    "partial_trace_channel-keep": (lambda v: partial_trace_channel((2, 2), v), 0),
    "compression_operation-dim_out": (lambda v: compression_operation(4, v), 1),
    "compression_operation-dim_in": (lambda v: compression_operation(v, 1), 1),
    "from_entries-dims": (lambda v: QuantumOperation.from_entries(v, 2, [0], [0], [0], [1.0]), 1),
    "suite_run-seed": (lambda v: suite_run("T2", {"seed": v}), 0),
    # zero trials would make T2's range row a max over nothing
    "suite_run-range_trials": (lambda v: suite_run("T2", {"range_trials": v}), 1),
    "random_density-rank": (lambda v: random_density(4, np.random.default_rng(0), rank=v), 1),
    "formation_two_member_grid-grid_points": (lambda v: formation_two_member_grid(RANK_TWO, grid_points=v), 1),
}
BAD = {
    "fraction": lambda least: least + 1.5,
    "bool": lambda least: True,
    "numpy-bool": lambda least: np.True_,
    "numeric-string": lambda least: str(least + 1),
    "below-bound": lambda least: least - 1,
}


@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("call, least", list(ENTRIES.values()), ids=list(ENTRIES))
def test_every_integer_argument_refuses_what_it_would_truncate(call, least, bad):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call(bad(least))


def test_a_numpy_integer_comes_back_as_a_python_int():
    two = np.int64(2)
    assert type(integer_parameter(two, "n", 1)) is int and integer_parameter(two, "n", 1) == 2
    w = TraceClassElement(np.eye(4) / 4, factor_dims=(two, two))
    assert w.factor_dims == (2, 2) and all(type(d) is int for d in w.factor_dims)
    assert all(type(n) is int for n in check_grid([np.int64(16), np.int32(32)]))
    assert Hamiltonian.logarithmic(1.0, 0.0, np.int64(8)).truncation_dim == 8
    assert partial_trace(MIXED8, [np.int64(2)]).factor_dims == (2,)


# functional -> the number of factors it requires
FACTORED = {
    "mutual_information": (mutual_information, 2),
    "conditional_entropy": (conditional_entropy, 2),
    "conditional_mutual_information": (conditional_mutual_information, 3),
    "separable_majorization_check": (separable_majorization_check, 2),
    "entanglement_of_formation": (entanglement_of_formation, 2),
    "classical_correlations": (classical_correlations, 2),
    "koashi_winter_residual": (koashi_winter_residual, 3),
}


@pytest.mark.parametrize("functional, count", list(FACTORED.values()), ids=list(FACTORED))
def test_a_wrong_factor_count_is_a_bad_factorization(functional, count):
    wrong = MIXED8 if count == 2 else MIXED4
    for omega in (wrong, TraceClassElement(np.eye(8) / 8)):
        with pytest.raises(BadFactorizationError):
            functional(omega)


@pytest.mark.parametrize("dims", [(2,), (2, 2, 7)])
def test_a_partial_trace_channel_takes_exactly_two_factor_dims(dims):
    # a third dim was ignored, so the channel traced a different split than declared
    with pytest.raises(BadFactorizationError):
        partial_trace_channel(dims, 0)


# entry -> call with a list argument replaced by the value under test
LISTS = {
    "TraceClassElement-factor_dims": lambda v: TraceClassElement(np.eye(4) / 4, factor_dims=v),
    "with_factors": lambda v: MIXED4.with_factors(v),
    "partial_trace-keep": lambda v: partial_trace(MIXED8, v),
    "permute_factors-order": lambda v: permute_factors(MIXED4, v),
    "group_factors-sizes": lambda v: group_factors(MIXED8, v),
    "check_grid": lambda v: check_grid(v),
    "partial_trace_channel-dims": lambda v: partial_trace_channel(v, 0),
}


@pytest.mark.parametrize("value", [4, 2.0, object()], ids=["int", "float", "object"])  # None means no factors
@pytest.mark.parametrize("call", list(LISTS.values()), ids=list(LISTS))
def test_every_list_argument_refuses_a_non_iterable(call, value):
    with pytest.raises(InvalidParameterError, match="must be iterable"):
        call(value)


def test_the_list_rule_returns_a_tuple_of_python_ints():
    assert integer_parameters(np.array([2, 3]), "factor dim", 1) == (2, 3)
    assert all(type(d) is int for d in integer_parameters(np.array([2, 3]), "factor dim", 1))
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        integer_parameters("22", "factor dim", 1)  # a string iterates as characters, each refused


@pytest.mark.parametrize(
    "call",
    [
        lambda: sharp_sequence_state(LOG_H, 0.0, 16),  # at the ground energy
        lambda: formation_two_member_grid(MIXED4),  # rank 4, not 2
        lambda: random_channel(4, 1, 2, np.random.default_rng(0)),  # 1 * 2 rows for a 4-dim input
    ],
    ids=["sharp_sequence_state-energy", "formation_two_member_grid-rank", "random_channel-width"],
)
def test_an_out_of_range_argument_is_an_invalid_parameter(call):
    with pytest.raises(InvalidParameterError):
        call()
