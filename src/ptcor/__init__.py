"""Prescribed-time cooperative output regulation toolbox.

Gain synthesis and verification, closed-loop simulation through the
prescribed-time gain blow-up, and post-run convergence certification for
linear heterogeneous leader-follower multi-agent systems.
"""

from .analysis import (
    CertifyTolerances,
    ConvergenceReport,
    EnvelopeParams,
    certify,
    compare_runs,
)
from .graph import (
    LaplacianParts,
    Network,
    ObserverRate,
    full_laplacian,
    has_leader_spanning_tree,
    network_from_edges,
    observer_rate,
    partition_laplacian,
)
from .plant import (
    AgentModel,
    Exosystem,
    RegulatorError,
    RegulatorSolution,
    check_full_rank_io,
    check_regulation_rank,
    solve_regulator,
)
from .scenario import Scenario, ScenarioError, load_scenario, write_scenario
from .sim import (
    BaselineConstants,
    ClosedLoopModel,
    MuSchedule,
    SimConfig,
    Trajectory,
    compile_model,
    integrate,
    kappa,
    mu,
    sig,
)
from .synthesis import (
    CascadeRates,
    ConditionReport,
    GainSet,
    GainSpec,
    SynthesisError,
    build_gain_set,
    certify_rate,
    check_cascade_criterion,
    check_ptor_output,
    check_ptor_state,
    synthesize_K,
    synthesize_Ltil,
    verify_gains,
)

__version__ = "0.1.0"
