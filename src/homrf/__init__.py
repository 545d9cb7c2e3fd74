"""Dual solvers for MAP inference in higher-order discrete graphical models."""

from .baselines import (
    MsdState,
    SubgradState,
    msd_init,
    msd_pass,
    psi_bound,
    select_step_size,
    solve_msd,
    solve_subgradient,
    subgrad_init,
    subgradient_pass,
)
from .cli import run_solver_cli
from .decomposition import (
    Decomposition,
    build_monotonic_chains,
    extend_order_to_separators,
    local_separator_window,
    sep_bounds,
    validate_decomposition,
)
from .errors import HomrfError
from .fileio import parse_model_file, serialize_model
from .generators import gen_potts_2x2, gen_stereo_second_order
from .model import (
    Factor,
    JStructure,
    Model,
    build_model,
    close_j,
    energy,
    message_edges,
    reparameterized_costs,
)
from .oracle import (
    Relation,
    average_factor,
    brute_force_map,
    brute_force_min_marginals,
    check_ewta,
    check_j_consistency_enhanced,
    extract_primal,
    map_jconsistent_to_wta,
    map_wta_to_jconsistent,
    send_message,
    tree_min_marginal,
    trws_explicit_pass,
    trws_general_pass,
)
from .trws import (
    ChainSolverState,
    TraceRow,
    TreeParams,
    bound,
    chain_state_init,
    chain_state_tree_params,
    init_tree_params,
    solve_trws,
    tree_argmin,
    trws_chain_pass,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
