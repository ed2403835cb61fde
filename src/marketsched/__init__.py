"""Market-based multi-agent compute-core scheduling with learned trading."""

__version__ = "0.1.0"

from .config import ConfigError, EnvConfig, JobType, PricingMode
from .env import (
    AUCTIONEER,
    ChainLineageError,
    JointActions,
    SchedulingEnv,
    StepResult,
    settle_chain,
)
from .neural import NonFiniteLossError, PPOHyper
from .agents import (
    ARCHITECTURES,
    Home,
    InfeasibleArchitectureError,
    Trainer,
    build_homes,
    feasibility_guard,
    route_rewards,
)
from .harness import (
    AggregateRecord,
    RunRecord,
    Scenario,
    aggregate,
    builtin_scenarios,
    run_scenario,
    run_sweep,
)

__all__ = [
    "AUCTIONEER",
    "ARCHITECTURES",
    "AggregateRecord",
    "ChainLineageError",
    "ConfigError",
    "EnvConfig",
    "Home",
    "InfeasibleArchitectureError",
    "JobType",
    "JointActions",
    "NonFiniteLossError",
    "PPOHyper",
    "PricingMode",
    "RunRecord",
    "Scenario",
    "SchedulingEnv",
    "StepResult",
    "Trainer",
    "aggregate",
    "build_homes",
    "builtin_scenarios",
    "feasibility_guard",
    "route_rewards",
    "run_scenario",
    "run_sweep",
    "settle_chain",
]
