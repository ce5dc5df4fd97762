"""entroloss: a finite-dimensional laboratory for discontinuity jumps of
entropic quantities of quantum states and channels."""

from ._optim import OptimizerBudget
from .operators import (
    SpectralDecomposition,
    TraceClassElement,
    group_factors,
    partial_trace,
    permute_factors,
    purification_amplitude,
    tensor,
    trace_distance,
)
from .info import (
    Ensemble,
    conditional_entropy,
    conditional_mutual_information,
    holevo_quantity,
    mutual_information,
    pinching_distribution,
    relative_entropy,
    relative_entropy_to_product,
    shannon_entropy,
    von_neumann_entropy,
)
from .majorization import (
    entropy_gap_decomposition,
    gap_term_approximant,
    majorizes,
    rearrangement,
    separable_majorization_check,
)
from .energy import (
    GibbsState,
    Hamiltonian,
    gibbs_identity_residual,
    gibbs_state,
    gibbs_threshold,
    mean_energy,
    sharp_sequence_state,
    sharp_sequence_weight,
)
from .channels import (
    ChannelSequence,
    QuantumOperation,
    StinespringDilation,
    apply,
    channel_mutual_information,
    choi_matrix,
    choi_rank,
    coherent_information,
    complementary,
    compression_operation,
    dephasing_channel,
    depolarizing_channel,
    entropy_exchange,
    identity_channel,
    measure_prepare_channel,
    output_entropy,
    partial_trace_channel,
    pseudo_diagonal_channel,
    stinespring,
    stinespring_entropy_residual,
    unitary_channel,
)
from .roofs import (
    BoundedValue,
    Direction,
    KoashiWinterResult,
    c_squashed_entanglement_k,
    classical_correlations,
    constrained_holevo_estimate,
    convex_closure_output_entropy,
    entanglement_of_formation,
    entropy_k_approximation,
    entropy_k_gap,
    formation_two_member_grid,
    formation_two_qubit_closed_form,
    koashi_winter_residual,
    quantum_discord,
    squashed_entanglement_k,
)
from .sequences import (
    GRID_DENSE,
    GRID_DIAG,
    GRID_MEDIUM,
    JumpEstimate,
    PureBipartiteState,
    StateSequence,
    builtin_families,
    estimate_jump,
    lift_by_purification,
    make_classical_correlated_sequence,
    make_classical_triple_sequence,
    make_mixing_sequence,
    make_product_sequence,
    make_rotated_sharp_sequence,
    make_sharp_sequence,
)
from .suites import SUITES, SuiteCheck, SuiteReport, suite_ids, suite_run, walk

__version__ = "0.1.0"
