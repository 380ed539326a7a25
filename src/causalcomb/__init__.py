"""Causal-order discovery for quantum combs with hidden tooth permutations.

A comb is a multi-round quantum process: ``n`` unitary teeth acting on a
wire and a private memory, with the wiring of inputs and outputs to teeth
hidden by two permutations.  This package builds such processes, exposes
them through a query-counting black-box oracle, and recovers compatible
tooth orderings from oracle access alone — in full generality via
last-tooth elimination, and faster under promises (visible pairwise
correlations, or no memory at all).
"""

from .checks import CheckResult, lemma_suite
from .combs import (
    CausalOrder,
    CombCheck,
    CombSpec,
    RejectionBudgetError,
    build_choi,
    check_comb_condition,
    compatible_orders,
    enumerate_orders,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_totalorder_comb,
    gen_unitary_comb,
    pairwise_correlation_floor,
    trace_out_tooth,
)
from .discovery import (
    DiscoveryReport,
    FindLastResult,
    IndMatrix,
    correlation_error_bound,
    correlation_sample_size,
    discover_general,
    discover_memoryless,
    discover_totalorder,
    find_last,
    independence_matrix,
    xi_constant,
)
from .oracle import (
    OracleConfig,
    OracleSession,
    PrepRecipe,
    swap_test_estimate,
    swap_test_sample_size,
)
from .povm import (
    FrameOperator,
    IcPovm,
    born_probs,
    frame_of,
    ic_povm_for_dim,
    pair_probs,
    povm_preset,
    reconstruct,
    reconstruct_pair,
    sic_qubit,
    state_set_of,
    tensor_povm,
)
from .runner import (
    ConfigError,
    ExperimentConfig,
    RunSummary,
    TrialResult,
    generate_comb,
    run_experiment,
    run_trial,
)
from .serialize import load_comb, load_json, save_comb, save_json
from .tensors import (
    Op,
    WireSpace,
    correlation_norm,
    haar_unitary,
    max_entangled_ket,
    partial_trace,
    random_density,
    random_pure_state,
    trace_norm,
)

__version__ = "0.1.0"

__all__ = [
    "CausalOrder",
    "CheckResult",
    "CombCheck",
    "CombSpec",
    "ConfigError",
    "DiscoveryReport",
    "ExperimentConfig",
    "FindLastResult",
    "FrameOperator",
    "IcPovm",
    "IndMatrix",
    "Op",
    "OracleConfig",
    "OracleSession",
    "PrepRecipe",
    "RejectionBudgetError",
    "RunSummary",
    "TrialResult",
    "WireSpace",
    "born_probs",
    "build_choi",
    "check_comb_condition",
    "compatible_orders",
    "correlation_error_bound",
    "correlation_norm",
    "correlation_sample_size",
    "discover_general",
    "discover_memoryless",
    "discover_totalorder",
    "enumerate_orders",
    "find_last",
    "frame_of",
    "gen_fig3_comb",
    "gen_memoryless_comb",
    "gen_signaling_comb",
    "gen_totalorder_comb",
    "gen_unitary_comb",
    "generate_comb",
    "haar_unitary",
    "ic_povm_for_dim",
    "independence_matrix",
    "lemma_suite",
    "load_comb",
    "load_json",
    "max_entangled_ket",
    "pair_probs",
    "pairwise_correlation_floor",
    "partial_trace",
    "povm_preset",
    "random_density",
    "random_pure_state",
    "reconstruct",
    "reconstruct_pair",
    "run_experiment",
    "run_trial",
    "save_comb",
    "save_json",
    "sic_qubit",
    "state_set_of",
    "swap_test_estimate",
    "swap_test_sample_size",
    "tensor_povm",
    "trace_norm",
    "trace_out_tooth",
    "xi_constant",
]
