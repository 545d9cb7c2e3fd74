"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np

from homrf.baselines import (
    msd_init,
    msd_pass,
    msd_sweep_order,
    psi_bound,
    solve_msd,
    subgrad_init,
    subgradient_pass,
)
from homrf.decomposition import build_monotonic_chains
from homrf.fileio import parse_model_file, serialize_model
from homrf.generators import gen_potts_2x2, gen_stereo_second_order, second_order_table
from homrf.oracle import (
    brute_force_map,
    brute_force_min_marginals,
    check_ewta,
    check_j_consistency_enhanced,
    explicit_chain_init,
    map_jconsistent_to_wta,
    map_wta_to_jconsistent,
    trws_explicit_pass,
    trws_general_pass,
)
from homrf.trws import (
    bound,
    chain_state_init,
    chain_state_tree_params,
    solve_trws,
    trws_chain_pass,
)

from conftest import figure_chain_instance, path_instance, random_decomposed, submodular_grid


def report(num, ok, detail=""):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def desk_instances(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(4, 13))
        out.append(random_decomposed(rng, n_nodes=n, max_labels=4, **kwargs))
    return out


def test_criterion_1_monotone_bound():
    t0 = time.perf_counter()
    worst = np.inf
    rng = np.random.default_rng(101)
    for i in range(100):
        n = int(rng.integers(4, 13))
        d = random_decomposed(rng, n_nodes=n, max_labels=4, nested=(i % 3 == 0))
        st = chain_state_init(d)
        prev = None
        for _ in range(20):
            phi = trws_chain_pass(d, st, reuse="after")
            if prev is not None:
                worst = min(worst, phi - prev)
            prev = phi
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst >= -1e-9 and elapsed < 30.0,
        f"min per-pass increment {worst:.3e}, {elapsed:.1f}s for 100 models",
    )


def test_criterion_2_exact_on_trees():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(50):
        arity = 2 if i % 2 == 0 else 3
        n = int(rng.integers(4, 9))
        model, js = path_instance(rng, n_nodes=n, arity=arity)
        d = build_monotonic_chains(model, js)
        assert len(d.chains) == 1
        st = chain_state_init(d)
        phi = None
        for _ in range(3):
            phi = trws_chain_pass(d, st, reuse="after")
        _, value = brute_force_map(d.model)
        worst = max(worst, abs(phi - value))
    report(2, worst <= 1e-9, f"max |bound - optimum| {worst:.3e} on 50 tree instances")


def test_criterion_3_tight_on_submodular():
    rng = np.random.default_rng(303)
    sizes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]
    worst = 0.0
    for i in range(30):
        model, js = submodular_grid(rng, *sizes[i % len(sizes)])
        d = build_monotonic_chains(model, js)
        result = solve_trws(d, passes=800, eps=0.0)
        _, value = brute_force_map(d.model)
        worst = max(worst, abs(result.bound - value))
    report(3, worst <= 1e-6, f"max gap to optimum {worst:.3e} on 30 submodular grids")


def test_criterion_4_min_marginals_after_first_pass():
    worst = [0.0]
    for d in desk_instances(404, 30, nested=False):
        st = explicit_chain_init(d)

        def on_average(pass_index, direction, b, sums):
            if pass_index == 0:
                return
            for t, nu in sums.items():
                want = brute_force_min_marginals(d, st.params, t, b)
                worst[0] = max(worst[0], float(np.max(np.abs(nu - want))))

        for _ in range(4):
            trws_explicit_pass(d, st, on_average=on_average)
    report(4, worst[0] <= 1e-9, f"max min-marginal error {worst[0]:.3e} on 30 instances")


def test_criterion_5_algorithm_equivalence():
    passes = 6
    worst = 0.0
    for d in desk_instances(505, 30, nested=True):
        st3 = chain_state_init(d)
        t3 = [trws_chain_pass(d, st3, reuse="none") for _ in range(passes)]
        st2 = explicit_chain_init(d)
        t2 = [trws_explicit_pass(d, st2) for _ in range(passes)]
        warm = explicit_chain_init(d)
        t1 = [trws_explicit_pass(d, warm)]
        for k in range(1, passes):
            order = (
                d.separator_order if k % 2 == 0 else tuple(reversed(d.separator_order))
            )
            t1.append(trws_general_pass(d, warm.params, order))
        worst = max(
            worst,
            float(np.max(np.abs(np.array(t1) - np.array(t2)))),
            float(np.max(np.abs(np.array(t2) - np.array(t3)))),
        )
    report(5, worst <= 1e-9, f"max per-pass trace difference {worst:.3e} on 30 instances")


def test_criterion_6_reuse_equivalence():
    rng = np.random.default_rng(606)
    passes = 6
    worst = 0.0
    instances = []
    for i in range(15):
        model, js = figure_chain_instance(np.random.default_rng(6060 + i))
        instances.append(build_monotonic_chains(model, js))
    while len(instances) < 50:
        d = random_decomposed(rng, n_nodes=int(rng.integers(4, 10)), nested=True)
        nested = any(
            len(d.jstructure.scope(b)) >= 2 for b in d.jstructure.separators
        )
        if nested:
            instances.append(d)
    for d in instances:
        states = {mode: chain_state_init(d) for mode in ("none", "after", "before-after")}
        for _ in range(passes):
            phis = {
                mode: trws_chain_pass(d, st, reuse=mode) for mode, st in states.items()
            }
            worst = max(
                worst,
                abs(phis["after"] - phis["none"]),
                abs(phis["before-after"] - phis["none"]),
            )
        base = states["none"].messages
        for mode in ("after", "before-after"):
            for key, m in states[mode].messages.items():
                worst = max(worst, float(np.max(np.abs(m - base[key]))))
    report(6, worst <= 1e-12, f"max message/bound deviation {worst:.3e} on 50 instances")


def test_criterion_7_fixpoint_correspondence():
    rng = np.random.default_rng(707)
    collapse_err, spread_err = 0.0, 0.0
    collapsed = 0
    attempts = 0
    while collapsed < 20 and attempts < 60:
        attempts += 1
        d = random_decomposed(rng, n_nodes=int(rng.integers(4, 7)), max_labels=3, nested=True)
        result = solve_trws(d, passes=500, eps=0.0, reuse="none")
        params = chain_state_tree_params(d, result.state)
        if not check_ewta(d, params).holds:
            continue
        tables = map_wta_to_jconsistent(d, params)
        collapse_err = max(collapse_err, abs(psi_bound(tables) - result.bound))
        collapsed += 1

    spread = 0
    attempts = 0
    while spread < 20 and attempts < 60:
        attempts += 1
        d = random_decomposed(rng, n_nodes=int(rng.integers(4, 7)), max_labels=3, nested=True)
        _, st = solve_msd(d, passes=4000, eps=0.0)
        if not check_j_consistency_enhanced(st.tables, d.jstructure).holds:
            continue
        psi = psi_bound(st.tables)
        back = map_jconsistent_to_wta(d, st.tables)
        spread_err = max(spread_err, abs(bound(d, back) - psi))
        spread += 1

    ok = collapsed >= 20 and spread >= 20 and collapse_err <= 1e-9 and spread_err <= 1e-9
    report(
        7,
        ok,
        f"{collapsed} collapse fixpoints (err {collapse_err:.3e}), "
        f"{spread} spread fixpoints (err {spread_err:.3e})",
    )


def test_criterion_8_effort_bound():
    ok = True
    detail = []
    for d in desk_instances(808, 20, nested=True):
        st = chain_state_init(d)
        for _ in range(4):
            trws_chain_pass(d, st, reuse="after")
            if st.msg_ops_last_pass > len(d.message_edges):
                ok = False
        detail.append((st.msg_ops_last_pass, len(d.message_edges)))
    worst = max(ops / max(1, edges) for ops, edges in detail)
    report(8, ok, f"max ops/edges ratio {worst:.2f} over 20 instances, 4 passes each")


def test_criterion_9_baseline_sanity():
    rng = np.random.default_rng(101)
    msd_monotone = True
    below_map = True
    for i in range(100):
        n = int(rng.integers(4, 13))
        d = random_decomposed(rng, n_nodes=n, max_labels=4, nested=(i % 3 == 0))
        _, value = brute_force_map(d.model)
        st = msd_init(d.model)
        order = msd_sweep_order(d.jstructure, d.node_order)
        prev = -np.inf
        for _ in range(30):
            psi = msd_pass(d.model, d.jstructure, st, order)
            if psi < prev - 1e-9:
                msd_monotone = False
            prev = psi
        if psi > value + 1e-9:
            below_map = False
        sg = subgrad_init(d, 1.0)
        for _ in range(60):
            subgradient_pass(d, sg)
        if sg.best > value + 1e-9:
            below_map = False

    rng = np.random.default_rng(303)
    sizes = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]
    agree = 0.0
    for i in range(30):
        model, js = submodular_grid(rng, *sizes[i % len(sizes)])
        d = build_monotonic_chains(model, js)
        _, value = brute_force_map(d.model)
        trws_result = solve_trws(d, passes=800, eps=0.0)
        msd_bounds, _ = solve_msd(d, passes=4000, eps=1e-13)
        best_sg = -np.inf
        for lam in (0.1, 0.3, 1.0, 3.0):
            sg = subgrad_init(d, lam)
            for _ in range(2000):
                subgradient_pass(d, sg)
                if abs(sg.best - value) <= 1e-6:
                    break
            best_sg = max(best_sg, sg.best)
            if abs(best_sg - value) <= 1e-6:
                break
        agree = max(
            agree,
            abs(trws_result.bound - msd_bounds[-1]),
            abs(trws_result.bound - best_sg),
        )
    ok = msd_monotone and below_map and agree <= 1e-4
    report(
        9,
        ok,
        f"diffusion monotone: {msd_monotone}, bounded by optimum: {below_map}, "
        f"max three-way disagreement {agree:.3e}",
    )


def test_criterion_10_generator_fidelity():
    table = second_order_table(8, 15.0)
    values_ok = table[3, 3, 3] == 0.0 and table[2, 3, 3] == 15.0 and table[0, 2, 4] == 45.0

    round_trip_ok = True
    cases = [
        gen_stereo_second_order(4, 3, labels=3, seed=1),
        gen_stereo_second_order(3, 3, labels=4, seed=2, separators="pair"),
        gen_potts_2x2(3, 3, labels=3, seed=3),
        gen_potts_2x2(2, 3, labels=2, seed=4, separators="pair"),
        gen_potts_2x2(3, 2, labels=2, seed=5, variant="pairwise"),
    ]
    for model, js in cases:
        text = serialize_model(model, js)
        model2, js2, _ = parse_model_file(text)
        if serialize_model(model2, js2) != text:
            round_trip_ok = False
        for f1, f2 in zip(model.factors, model2.factors):
            if not np.array_equal(f1.table, f2.table):
                round_trip_ok = False
    report(
        10,
        values_ok and round_trip_ok,
        f"curvature table values: {values_ok}, serialization round trip: {round_trip_ok}",
    )
