"""Exact toolkit for simultaneous and sequential transportation games.

Players positioned on a complete graph each pick one of m buses; every bus
visits its subscribers in a fixed pickup order (with shortcuts) and ends at a
shared destination. The package computes routes and exact rational costs,
enumerates Nash equilibria of the simultaneous game and all subgame-perfect
outcomes of the sequential game, and evaluates the associated inefficiency
ratios (price of anarchy / stability and their sequential counterparts).
"""

from .core import (
    DESTINATION,
    CostVector,
    Instance,
    MetricCheck,
    Outcome,
    OutcomeSet,
    SOCIAL_TAGS,
    SocialTag,
    bus_distance_total,
    bus_route,
    check_metric,
    cost_vector,
    dumps_instance,
    evaluate_outcomes,
    instance_digest,
    load_instance,
    loads_instance,
    player_cost,
    player_cost_total,
    save_instance,
    social_cost,
    validate_instance,
    worst_player_cost,
)
from .engine import DEFAULT_OUTCOME_BUDGET, outcome_space_size
from .errors import (
    BudgetExceededError,
    BusOutOfRangeError,
    DegenerateOptimumError,
    DisconnectedGraphError,
    MalformedInstanceError,
    NoEquilibriumError,
    NonPositiveParameterError,
    ParameterDomainError,
    PlayerOutOfRangeError,
    SetOverflowError,
    TransportGameError,
    Violation,
)
from .families import (
    FAMILIES,
    build_family,
    gen_five_chain,
    gen_four_line,
    gen_group_levels,
    gen_nonmetric_spike,
    gen_random_metric,
    gen_uniform_star,
    gen_zero_cluster_far,
    gen_zero_cluster_single,
    group_level_layout,
    shortest_path_closure,
)
from .sequential import (
    DEFAULT_NODE_SET_CAP,
    spe_outcomes,
    spoa,
    spos,
    zermelo_outcome,
)
from .simultaneous import (
    Deviation,
    RatioReport,
    enumerate_nash,
    enumerate_outcomes,
    find_improving_deviation,
    is_nash_equilibrium,
    optimal_social,
    poa,
    pos,
)
from .analysis import (
    AnalysisReport,
    FunctionReport,
    SweepResult,
    SweepSpec,
    analyze,
    eval_bound_expr,
    load_sweep,
    render_sweep,
    run_verify_bounds,
    serialize_report,
)

__version__ = "0.1.0"
