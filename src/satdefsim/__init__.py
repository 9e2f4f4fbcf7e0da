"""Discrete-time simulator for resource-aware satellite intrusion-detection
scheduling with credibility-constrained deceptive telemetry signaling."""

__version__ = "0.1.0"

from .attacker import (
    AttackerParams,
    AttackPlan,
    belief_update,
    best_response,
    dp_decision,
    intensity_update,
    threshold_decision,
)
from .channel import (
    ChannelParams,
    PassGeometry,
    predict_mean_snr,
    sample_envelope,
    shadowed_rician_pdf,
)
from .config import ScenarioConfig, default_scenario, from_dict, load_config
from .engine import (
    EpisodeMetrics,
    run_benchmark_suite,
    run_episode,
    sweep,
)
from .persuasion import (
    BudgetCurve,
    PersuasionGame,
    PosteriorSplit,
    allocate_on_grid,
    attacker_value,
    build_scan_game,
    choose_artificial_delay,
    credibility_cost,
    lyapunov_drift,
    quantize_state,
    solve_persuasion,
)
from .scheduler import (
    GreedyPlanner,
    HorizonPlan,
    SchedulerConfig,
    UtilityParams,
    detection_performance,
    plan_horizon,
    slot_utility,
)
from .workload import (
    Arrival,
    TaskInstance,
    TaskSpec,
    admit,
    generate_arrivals,
)
