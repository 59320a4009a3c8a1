"""Exact laboratory for discrete Colonel Blotto games with flexible tie-breaking."""

from .core import (
    Allocation,
    BattlefieldOutcome,
    BlottoError,
    EnumerationTooLargeError,
    GameSpec,
    InvalidAllocationError,
    InvalidComparisonError,
    NotCoverableError,
    Partition,
    PreconditionError,
    SolverFailureError,
    WrongRegimeError,
    as_partition,
    battle_outcome,
    battlefield_value,
    exact_fraction,
    payoff,
    payoff_sum_identity,
)
from .space import (
    count_ordered,
    count_partitions,
    count_unordered,
    enumerate_allocations,
    enumerate_partitions,
    lotto_payoff,
)
from .mixed import (
    ExplicitMixed,
    IndependentPairsUniform,
    MarginalProfile,
    MixedStrategy,
    PairCoupledUniform,
    SwappedPairsWitness,
    expected_payoff_marginal,
    expected_payoff_pure_vs_mixed,
    read_strategy,
    write_strategy,
)
from .constructors import (
    canonical_pair_equilibrium,
    good_strategy_witness,
    independent_pairs_strategy,
    pairwise_fixed_sum_equilibrium,
    parity_strategy,
    uniform_marginal_solver,
)
from .analysis import (
    BestResponseResult,
    DominanceReport,
    EquilibriumReport,
    GoodnessVerdict,
    PsneReport,
    Verdict,
    alpha_robustness_scan,
    best_response,
    classify,
    classify_constant_sum,
    concentration_bounds,
    concentration_threshold,
    no_dominance_regime,
    psne_check,
    verify_equilibrium,
    weakly_dominates,
)
from .learning import (
    FPState,
    RankReport,
    RankRow,
    TraceRow,
    balanced_partition,
    fp_run,
    load_checkpoint,
    rank_report,
    save_checkpoint,
)

__version__ = "0.1.0"
