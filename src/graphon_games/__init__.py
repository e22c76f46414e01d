"""Nash equilibria of graphon games: resolvent construction, best-response
iteration, epsilon-Nash certification, and network-game convergence experiments."""

from .core import (
    ConstantGraphon,
    ContractionError,
    Graphon,
    GridCompatibilityError,
    GridSpec,
    ProductGraphon,
    ResolventKernel,
    SeparableGraphon,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
    graphon_l1_distance,
    iterated_kernel,
    local_aggregate,
    resolvent,
    step_approximation,
)
from .games import (
    GraphonGame,
    NetworkGame,
    PlateauUtility,
    QuadraticUtility,
    RegretReport,
    UtilitySpec,
    embed_network,
    embed_strategy,
    epsilon_star,
    regret_profile,
)
from .lab import (
    CertificationError,
    CharacterizationReport,
    ConvergenceRow,
    ExperimentPlan,
    approximate_profile,
    build_network_sequence,
    regrid_game,
    run_characterization_suite,
    run_coarsened_equilibrium_experiment,
    run_limit_equilibrium_experiment,
)
from .lq import (
    CertificationReport,
    LQParams,
    SourceFunction,
    equilibrium_from_source,
    injection_check,
    lq_game,
    verify_equilibrium,
)
from .solver import (
    SolveTrace,
    SolverConfig,
    best_response_map,
    profile_distance,
    solve,
)

__version__ = "0.1.0"
