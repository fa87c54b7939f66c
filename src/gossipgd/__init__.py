"""Desk-scale simulator and diagnostics for decentralized gradient descent.

The package decomposes into communication graphs (:mod:`gossipgd.topology`),
synthetic regression problems with an exact risk oracle
(:mod:`gossipgd.problem`), the lockstep simulation engine
(:mod:`gossipgd.engine`), closed-form tuning rules (:mod:`gossipgd.tuning`),
error decompositions (:mod:`gossipgd.diagnostics`), and a config-driven
experiment runner (:mod:`gossipgd.experiment`).
"""

from .diagnostics import (
    Records,
    bruteforce_network_error,
    decompose,
    fit_loglog_slope,
)
from .engine import (
    AgentStats,
    DivergenceError,
    RunResult,
    StepSchedule,
    TrainState,
    run,
)
from .experiment import (
    ExperimentConfig,
    SummaryTable,
    derive_seed,
    load_config,
    run_experiment,
    summarize,
)
from .problem import (
    AgentData,
    CoordinateData,
    MomentCertificate,
    SpectralProblem,
    effective_dimension,
    excess_risk,
    make_problem,
    moment_certificate,
    sample_agent_data,
)
from .topology import (
    GossipMatrix,
    Graph,
    Topology,
    build_gossip_matrix,
    build_topology,
    chebyshev_accelerate,
    gossip_matrix_to_csv,
    spectral_gap,
)
from .tuning import (
    RateTerms,
    RuntimeModel,
    TuningPlan,
    mixing_cutoff,
    rate_terms,
    speedup,
    tune_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AgentData",
    "AgentStats",
    "CoordinateData",
    "DivergenceError",
    "ExperimentConfig",
    "GossipMatrix",
    "Graph",
    "MomentCertificate",
    "RateTerms",
    "Records",
    "RunResult",
    "RuntimeModel",
    "SpectralProblem",
    "StepSchedule",
    "SummaryTable",
    "Topology",
    "TrainState",
    "TuningPlan",
    "build_gossip_matrix",
    "build_topology",
    "bruteforce_network_error",
    "chebyshev_accelerate",
    "decompose",
    "derive_seed",
    "effective_dimension",
    "excess_risk",
    "fit_loglog_slope",
    "gossip_matrix_to_csv",
    "load_config",
    "make_problem",
    "mixing_cutoff",
    "moment_certificate",
    "rate_terms",
    "run",
    "run_experiment",
    "sample_agent_data",
    "spectral_gap",
    "speedup",
    "summarize",
    "tune_plan",
]
