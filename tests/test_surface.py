"""The package's public names are pinned: adding or removing one is a
deliberate change to this list."""

import homrf

PUBLIC = [
    "ChainSolverState", "Decomposition", "Factor", "HomrfError", "JStructure", "Model",
    "MsdState", "Relation", "SubgradState", "TraceRow", "TreeParams", "average_factor",
    "baselines", "bound", "brute_force_map", "brute_force_min_marginals", "build_model",
    "build_monotonic_chains", "chain_state_init", "chain_state_tree_params", "check_ewta",
    "check_j_consistency_enhanced", "cli", "close_j", "decomposition", "energy", "errors",
    "extend_order_to_separators", "extract_primal", "fileio", "gen_potts_2x2",
    "gen_stereo_second_order", "generators", "init_tree_params", "local_separator_window",
    "map_jconsistent_to_wta", "map_wta_to_jconsistent", "message_edges", "model", "msd_init",
    "msd_pass", "oracle", "parse_model_file", "psi_bound", "reparameterized_costs",
    "reuse_after", "reuse_before", "run_solver_cli", "select_step_size", "send_message",
    "sep_bounds", "serialize_model", "solve_msd", "solve_subgradient", "solve_trws",
    "subgrad_init", "subgradient_pass", "tree_argmin", "tree_min_marginal", "trws",
    "trws_chain_pass", "trws_explicit_pass", "trws_general_pass", "validate_decomposition",
]


def test_public_names_are_pinned():
    assert sorted(homrf.__all__) == sorted(PUBLIC)


# explicit-table reference sweeps: they live in `homrf.oracle`, apart from the
# production sweep in `homrf.trws`
MOVED_PUBLIC = [
    "average_factor", "send_message", "tree_min_marginal", "trws_explicit_pass",
    "trws_general_pass",
]
MOVED = MOVED_PUBLIC + [
    "ExplicitChainState", "collect_local_sums", "cumulative_tables", "explicit_chain_init",
    "nu_table",
]


def test_reference_sweeps_live_in_oracle():
    for name in MOVED_PUBLIC:
        assert getattr(homrf, name).__module__ == "homrf.oracle", name
    for name in MOVED:
        assert getattr(homrf.oracle, name).__module__ == "homrf.oracle", name
    assert [name for name in MOVED if hasattr(homrf.trws, name)] == []
    from_oracle = [
        name for name, obj in vars(homrf.trws).items()
        if getattr(obj, "__module__", None) == "homrf.oracle"
    ]
    assert from_oracle == []
