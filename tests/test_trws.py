import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from homrf.decomposition import build_monotonic_chains
from homrf.errors import (
    ExcessMessageOps,
    FactorNotInTree,
    HomrfError,
    InvalidEdge,
    NotASeparator,
    StateNotInitialized,
    UnconsumedPreemptiveMessage,
)
from homrf.decomposition import validate_decomposition
from homrf._tables import drop_axes, embed_shape
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import build_model, close_j, energy
from homrf.oracle import (
    average_factor,
    brute_force_map,
    brute_force_min_marginals,
    explicit_chain_init,
    extract_primal,
    nu_table,
    send_message,
    tree_min_marginal,
    tree_total_table,
    trws_explicit_pass,
    trws_general_pass,
)
from homrf._plan import compile_sweeps
from homrf.trws import (
    ChainSolverState,
    bound,
    chain_state_factor_tables,
    chain_state_init,
    chain_state_tree_params,
    init_tree_params,
    solve_trws,
    tree_argmin,
    trws_chain_pass,
)

from conftest import (
    figure_chain_instance,
    path_instance,
    random_decomposed,
    random_instance,
)
from test_acceptance import desk_instances


def phi_exhaustive(d, params):
    total = 0.0
    for t in range(len(d.chains)):
        total += d.rho[t] * float(tree_total_table(d, params, t).min())
    return total


def zero_instance():
    model = build_model(
        [2, 2, 2],
        [
            ((0,), np.zeros(2)),
            ((1,), np.zeros(2)),
            ((2,), np.zeros(2)),
            ((0, 1), np.zeros(4)),
            ((1, 2), np.zeros(4)),
        ],
    )
    edges = set()
    for fid, scope in enumerate(model.scopes):
        if len(scope) == 2:
            for v in scope:
                edges.add((fid, model.factor_id((v,))))
    return build_monotonic_chains(model, close_j(model.scopes, edges))


class TestTreeMinMarginal:
    def test_single_factor_tree_is_local_table(self, rng):
        model, js = path_instance(rng, n_nodes=2)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        (chain,) = d.chains
        a = chain[0]
        got = tree_min_marginal(d, params, 0, a)
        assert np.allclose(got, nu_table(d, params, 0, a))

    def test_middle_node_matches_enumeration(self, rng):
        model, js = path_instance(rng, n_nodes=3)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        b = d.model.factor_id((1,))
        got = tree_min_marginal(d, params, 0, b)
        want = brute_force_min_marginals(d, params, 0, b)
        assert np.allclose(got, want, atol=1e-9)

    def test_matches_enumeration_everywhere(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            params = init_tree_params(d)
            for t in range(len(d.chains)):
                for b in sorted(d.tree_factors[t]):
                    fresh = params.copy()
                    got = tree_min_marginal(d, fresh, t, b)
                    want = brute_force_min_marginals(d, params, t, b)
                    assert np.allclose(got, want, atol=1e-9)

    def test_zero_costs_stay_zero(self):
        d = zero_instance()
        params = init_tree_params(d)
        b = d.model.factor_id((1,))
        t = d.trees_of[b][0]
        assert np.allclose(tree_min_marginal(d, params, t, b), 0.0)

    def test_foreign_factor_rejected(self, rng):
        model, js = figure_chain_instance(rng)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        with pytest.raises(FactorNotInTree):
            tree_min_marginal(d, params, 0, len(d.model.factors))


class TestSendMessage:
    def _two_node(self, table, unary_b=(0.0, 0.0)):
        model = build_model(
            [2, 2],
            [((0,), np.zeros(2)), ((1,), list(unary_b)), ((0, 1), table)],
        )
        js = close_j(model.scopes, {(2, 0), (2, 1)})
        return build_monotonic_chains(model, js)

    def test_hand_computed_delta(self):
        d = self._two_node([0.0, 5.0, 2.0, 1.0])
        params = init_tree_params(d)
        ab = d.model.factor_id((0, 1))
        b = d.model.factor_id((1,))
        delta = send_message(d, params, 0, ab, b)
        assert np.allclose(delta, [0.0, 1.0])

    def test_valid_edge_is_fixpoint(self):
        d = self._two_node([0.0, 5.0, 2.0, 1.0])
        params = init_tree_params(d)
        ab = d.model.factor_id((0, 1))
        b = d.model.factor_id((1,))
        send_message(d, params, 0, ab, b)
        before = {f: tbl.copy() for f, tbl in params.tables[0].items()}
        delta = send_message(d, params, 0, ab, b)
        assert np.allclose(delta, 0.0, atol=1e-12)
        for f, tbl in params.tables[0].items():
            assert np.allclose(tbl, before[f], atol=1e-12)

    def test_objective_invariance(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            params = init_tree_params(d)
            t = int(rng.integers(0, len(d.chains)))
            a = d.chains[t][0]
            candidates = [
                b for b in d.jstructure.locals[a] if b != a
            ]
            if not candidates:
                continue
            b = candidates[int(rng.integers(0, len(candidates)))]
            before = float(tree_total_table(d, params, t).min())
            send_message(d, params, t, a, b)
            after = float(tree_total_table(d, params, t).min())
            assert after == pytest.approx(before, abs=1e-9)

    def test_bad_edge_rejected(self, rng):
        d = self._two_node([0.0, 5.0, 2.0, 1.0])
        params = init_tree_params(d)
        a = d.model.factor_id((0,))
        b = d.model.factor_id((1,))
        with pytest.raises(InvalidEdge):
            send_message(d, params, 0, a, b)

    def test_edge_leaving_its_subproblem_rejected(self):
        pairs = [((0, 1), [0.0, 5.0, 2.0, 1.0]), ((2, 3), [1.0, 0.0, 0.0, 1.0])]
        model = build_model([2] * 4, [((v,), np.zeros(2)) for v in range(4)] + pairs)
        d = build_monotonic_chains(model, close_j(model.scopes, set()))
        cd, c = d.model.factor_id((2, 3)), d.model.factor_id((2,))
        (t,) = d.trees_of[c]
        with pytest.raises(FactorNotInTree, match=f"leaves subproblem {1 - t}"):
            send_message(d, init_tree_params(d), 1 - t, cd, c)


class TestAverageFactor:
    def test_single_tree_no_change(self, rng):
        model, js = path_instance(rng, n_nodes=3)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        b = d.model.factor_id((1,))
        before = params.tables[0][b].copy()
        average_factor(d, params, b)
        assert np.allclose(params.tables[0][b], before)

    def test_two_tree_arithmetic_mean(self, rng):
        # two chains share node 0; force opposite local sums there
        model, js = random_instance(rng, n_nodes=3, n_extra=0)
        factors = [
            ((0,), [0.0, 0.0]),
            ((1,), [0.0, 0.0]),
            ((2,), [0.0, 0.0]),
            ((0, 1), [0.0, 2.0, 2.0, 0.0]),
            ((0, 2), [2.0, 0.0, 0.0, 2.0]),
        ]
        model = build_model([2, 2, 2], factors)
        edges = set()
        for fid, scope in enumerate(model.scopes):
            if len(scope) == 2:
                for v in scope:
                    edges.add((fid, model.factor_id((v,))))
        d = build_monotonic_chains(model, close_j(model.scopes, edges))
        assert len(d.chains) == 2
        params = init_tree_params(d)
        b = d.model.factor_id((0,))
        t1, t2 = d.trees_of[b]
        params.tables[t1][b] = np.array([0.0, 2.0])
        params.tables[t2][b] = np.array([2.0, 0.0])
        avg = average_factor(d, params, b)
        assert np.allclose(avg, [1.0, 1.0])
        assert np.allclose(nu_table(d, params, t1, b), [1.0, 1.0])
        assert np.allclose(nu_table(d, params, t2, b), [1.0, 1.0])

    def test_averaging_after_min_marginals_never_drops_bound(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            params = init_tree_params(d)
            for b in d.separator_order:
                for t in d.trees_of.get(b, ()):
                    tree_min_marginal(d, params, t, b)
                before = phi_exhaustive(d, params)
                average_factor(d, params, b)
                after = phi_exhaustive(d, params)
                assert after >= before - 1e-9

    def test_not_a_separator(self, rng):
        model, js = path_instance(rng, n_nodes=3)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        with pytest.raises(NotASeparator):
            average_factor(d, params, d.chains[0][0])


class TestGeneralPass:
    def test_single_chain_is_exact(self, rng):
        for _ in range(5):
            model, js = path_instance(rng, n_nodes=6)
            d = build_monotonic_chains(model, js)
            assert len(d.chains) == 1
            params = init_tree_params(d)
            phi = trws_general_pass(d, params)
            _, value = brute_force_map(d.model)
            assert phi == pytest.approx(value, abs=1e-9)

    def test_zero_model_stays_zero(self):
        d = zero_instance()
        params = init_tree_params(d)
        for _ in range(3):
            assert trws_general_pass(d, params) == pytest.approx(0.0, abs=1e-12)

    def test_bound_monotone_over_passes(self, rng):
        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            params = init_tree_params(d)
            prev = -np.inf
            for k in range(20):
                order = (
                    d.separator_order if k % 2 == 0 else tuple(reversed(d.separator_order))
                )
                phi = trws_general_pass(d, params, order)
                assert phi >= prev - 1e-9
                prev = phi

    def test_per_averaging_monotonicity(self, rng):
        d = random_decomposed(rng, nested=True)
        params = init_tree_params(d)
        seen = []

        def monitor(b, before, after):
            seen.append(b)
            assert after >= before - 1e-9

        trws_general_pass(d, params, monitor=monitor)
        assert seen == list(d.separator_order)

    def test_bound_below_map(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            params = init_tree_params(d)
            _, value = brute_force_map(d.model)
            for k in range(6):
                phi = trws_general_pass(d, params)
                assert phi <= value + 1e-9


class TestChainPassEquivalences:
    def _traces(self, d, passes, reuse="none"):
        st3 = chain_state_init(d)
        t3 = [trws_chain_pass(d, st3, reuse=reuse) for _ in range(passes)]
        st2 = explicit_chain_init(d)
        t2 = [trws_explicit_pass(d, st2) for _ in range(passes)]
        return t2, t3, st2, st3

    def test_message_form_tracks_explicit_form(self, rng):
        for _ in range(8):
            d = random_decomposed(rng, nested=True)
            t2, t3, _, _ = self._traces(d, 6)
            assert np.allclose(t2, t3, atol=1e-9)

    def test_general_matches_chain_passes_after_warm_start(self, rng):
        for _ in range(8):
            d = random_decomposed(rng, nested=True)
            passes = 6
            t2, t3, _, _ = self._traces(d, passes)
            warm = explicit_chain_init(d)
            t1 = [trws_explicit_pass(d, warm)]
            params = warm.params
            for k in range(1, passes):
                order = (
                    d.separator_order
                    if k % 2 == 0
                    else tuple(reversed(d.separator_order))
                )
                t1.append(trws_general_pass(d, params, order))
            assert np.allclose(t1, t2, atol=1e-9)
            assert np.allclose(t1, t3, atol=1e-9)

    def test_min_marginals_correct_after_first_forward_pass(self, rng):
        for _ in range(6):
            d = random_decomposed(rng, nested=False)
            st = explicit_chain_init(d)
            checked = [0]

            def on_average(pass_index, direction, b, sums):
                if pass_index == 0:
                    return
                for t, nu in sums.items():
                    want = brute_force_min_marginals(d, st.params, t, b)
                    assert np.allclose(nu, want, atol=1e-9)
                    checked[0] += 1

            for _ in range(4):
                trws_explicit_pass(d, st, on_average=on_average)
            assert checked[0] > 0

    def test_child_edges_stay_valid_from_second_pass(self, rng):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            st = explicit_chain_init(d)

            def on_average(pass_index, direction, b, sums):
                if pass_index == 0:
                    return
                js = d.jstructure
                for t, chain in enumerate(d.chains):
                    for a in chain:
                        child = st.child[a]
                        if child is None:
                            continue
                        nu_a = nu_table(d, st.params, t, a)
                        nu_c = nu_table(d, st.params, t, child)
                        gap = (
                            np.minimum.reduce(
                                nu_a,
                                axis=tuple(
                                    i
                                    for i, v in enumerate(js.scope(a))
                                    if v not in js.scope(child)
                                ),
                            )
                            - nu_c
                        )
                        assert np.allclose(gap, 0.0, atol=1e-9)

            for _ in range(4):
                trws_explicit_pass(d, st, on_average=on_average)

    def test_structural_invariants_hold_during_sweeps(self, rng):
        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            st = explicit_chain_init(d)
            averaged = []

            def on_average(pass_index, direction, b, sums):
                # each chain holding b sits at a member k whose window holds
                # b and which last sent to b; the members before k have sent
                # to their right bound, the members after k to their left one
                for t in d.trees_of.get(b, ()):
                    chain = d.chains[t]
                    assert any(
                        b in d.local_separators[a]
                        and st.child[a] == b
                        and all(
                            st.child[o] == (d.sep_plus[o] if j < k else d.sep_minus[o])
                            for j, o in enumerate(chain)
                            if j != k and d.sep_minus[o] is not None
                        )
                        for k, a in enumerate(chain)
                    ), (b, t)
                averaged.append(b)

            for _ in range(4):
                trws_explicit_pass(d, st, on_average=on_average)
            assert averaged

    def test_shared_tables_agree_across_trees(self, rng):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            st = explicit_chain_init(d)

            def on_average(pass_index, direction, b, sums):
                for fid, ts in d.trees_of.items():
                    if len(ts) < 2 or fid == b:
                        continue
                    first = st.params.tables[ts[0]][fid]
                    for t in ts[1:]:
                        assert np.allclose(st.params.tables[t][fid], first, atol=1e-12)

            for _ in range(4):
                trws_explicit_pass(d, st, on_average=on_average)


class TestChainPassMessageForm:
    def test_requires_initialized_state(self, rng):
        d = zero_instance()
        for state in (object(), ChainSolverState(), ChainSolverState(layout=d._layout)):
            with pytest.raises(StateNotInitialized):
                trws_chain_pass(d, state)

    def test_zero_model_keeps_zero_messages(self):
        d = zero_instance()
        st = chain_state_init(d)
        for _ in range(4):
            phi = trws_chain_pass(d, st)
            assert phi == pytest.approx(0.0, abs=1e-12)
        for m in st.messages.values():
            assert np.allclose(m, 0.0)

    def test_message_ops_bounded_by_edges(self, rng):
        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            st = chain_state_init(d)
            for _ in range(3):
                trws_chain_pass(d, st)
                assert st.msg_ops_last_pass <= len(d.message_edges)

    def test_effort_per_pass_bounded_by_source_tables(self, rng):
        for reuse in ("none", "after", "before-after"):
            d = random_decomposed(rng, nested=True)
            budget = sum(d.model.table(a).size for a, _ in d.message_edges)
            st = chain_state_init(d)
            prev = 0
            for _ in range(4):
                trws_chain_pass(d, st, reuse=reuse)
                assert st.meff - prev <= budget
                assert st.meff > prev
                prev = st.meff

    def test_state_remains_reparameterization(self, rng):
        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            st = chain_state_init(d)
            for _ in range(3):
                trws_chain_pass(d, st)
            tables = chain_state_factor_tables(d, st)
            for _ in range(20):
                lab = [int(rng.integers(0, c)) for c in d.model.label_counts]
                want = energy(d.model, lab)
                got = sum(
                    tables[fid][tuple(lab[v] for v in d.model.scope(fid))]
                    for fid in range(len(d.model.factors))
                )
                assert got == pytest.approx(want, abs=1e-9)

    def test_separator_caches_match_messages(self, rng):
        d = random_decomposed(rng, nested=True)
        st = chain_state_init(d)
        for _ in range(3):
            trws_chain_pass(d, st)
        want = {b: d.model.table(b).copy() for b in d.jstructure.separators}
        for a, b in d.message_edges:
            want[b] = want[b] + st.messages[(a, b)]
        for b, table in want.items():
            assert np.allclose(st.theta_sep[b], table, atol=1e-12)

    @pytest.mark.parametrize("reuse", ["none", "after", "before-after"])
    def test_unnormalized_messages_stay_bounded(self, rng, reuse):
        # messages are stored, not accumulated, so without normalization they
        # must neither drift nor break the reparameterization over long runs
        decomps = [random_decomposed(rng, nested=True) for _ in range(5)]
        decomps.append(
            build_monotonic_chains(*gen_potts_2x2(4, 4, labels=3, seed=1, separators="pair"))
        )
        passes = 300
        for d in decomps:
            st = chain_state_init(d)
            for k in range(passes):
                trws_chain_pass(d, st, reuse=reuse)
                if k + 1 == passes // 10:
                    early = max(float(np.abs(m).max()) for m in st.messages.values())
            late = max(float(np.abs(m).max()) for m in st.messages.values())
            assert late <= 2 * early
            tables = chain_state_factor_tables(d, st)
            for _ in range(20):
                lab = [int(rng.integers(0, c)) for c in d.model.label_counts]
                got = sum(
                    tables[fid][tuple(lab[v] for v in d.model.scope(fid))]
                    for fid in range(len(d.model.factors))
                )
                assert got == pytest.approx(energy(d.model, lab), abs=1e-9)

    def test_unconsumed_preemptive_message_raises(self):
        make = lambda: build_monotonic_chains(*figure_chain_instance(np.random.default_rng(3)))
        probe = make()
        # a forward sweep skips its trailing bounds and the no-ops that
        # consume a preemptive refresh; `queued` is the first such no-op
        updated = set(sequential_updates(probe, "before-after", True, False))
        queued = min(
            (k for k in probe.message_edges if k not in updated and k[1] != probe.sep_minus[k[0]]),
            key=lambda k: probe.sep_rank[k[1]],
        )
        # the sweep order loses the step that consumes the preemptive refresh
        # of `queued`; the program compiled from it must not run
        d = make()
        st = chain_state_init(d)
        d.separator_order = tuple(b for b in d.separator_order if b != queued[1])
        with pytest.raises(UnconsumedPreemptiveMessage, match=re.escape(str([queued]))):
            trws_chain_pass(d, st, reuse="before-after")

    def test_excess_message_ops_raises(self):
        d = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=2, seed=1))
        st = chain_state_init(d)
        trws_chain_pass(d, st)
        # the state's program still sweeps every edge, now more than d
        # claims; the pass must raise before it changes the state
        d.message_edges = d.message_edges[:1]
        before = state_signature(st)
        with pytest.raises(ExcessMessageOps, match="32 message operations for 1 edges"):
            trws_chain_pass(d, st)
        assert state_signature(st) == before

    def test_unknown_reuse_rejected(self):
        d = build_monotonic_chains(*figure_chain_instance(np.random.default_rng(3)))
        with pytest.raises(ValueError, match="before-after"):
            trws_chain_pass(d, chain_state_init(d), reuse="before_after")
        with pytest.raises(ValueError, match="reuse"):
            solve_trws(d, passes=8, eps=0, reuse="After")


# meff, diag_cells and msg_ops_last_pass after 6 passes of the stereo instance
# below: pinned, so that reorganizing the sweep cannot change the work it does.
# diag_cells counts the bound's reads: 14 chains' 8-label end tables per pass.
STEREO_8X8_COUNTERS = {
    "none": (589824, 672, 192),
    "after": (410624, 672, 192),
    "before-after": (338944, 672, 176),
}

# numpy calls and groups of each compiled variant (first forward pass,
# forward with lead edges current, backward) of the two grids of
# `schedule_instances`: pinned, so that reorganizing the compile must show
# what it changes in what the sweep runs.
GRID_CALLS_AND_GROUPS = {
    "potts": {
        "none": ((1854, 174), (1854, 174), (1869, 178)),
        "after": ((1788, 174), (1788, 174), (1159, 151)),
        "before-after": ((1310, 130), (1310, 130), (1159, 151)),
    },
    "stereo": {
        "none": ((448, 70), (448, 70), (453, 70)),
        "after": ((448, 70), (363, 66), (369, 66)),
        "before-after": ((413, 55), (353, 59), (358, 59)),
    },
}


class TestProductionBound:
    @pytest.mark.parametrize("reuse", ["none", "after", "before-after"])
    def test_pass_bound_equals_reference_bound(self, rng, reuse):
        decomps = [random_decomposed(rng, nested=True) for _ in range(10)]
        stereo = build_monotonic_chains(*gen_stereo_second_order(8, 8, labels=8, seed=3))
        for d in decomps + [stereo]:
            st = chain_state_init(d)
            for _ in range(6):
                phi = trws_chain_pass(d, st, reuse=reuse)
                ref = bound(d, chain_state_tree_params(d, st))
                assert abs(phi - ref) <= 1e-12 * max(1.0, abs(ref))
        assert (st.meff, st.diag_cells, st.msg_ops_last_pass) == STEREO_8X8_COUNTERS[reuse]


REUSE_MODES = ("none", "after", "before-after")


def assert_pass_bounds_match_dp(d, reuse, passes=4):
    # every bound read off the sweep against the chain DP on the state's tables
    st = chain_state_init(d)
    for k in range(passes):
        phi = trws_chain_pass(d, st, reuse=reuse)
        ref = bound(d, chain_state_tree_params(d, st))
        assert abs(phi - ref) <= 1e-12 * max(1.0, abs(ref)), (reuse, k)


def criterion_instances(criterion):
    """The random instance set of acceptance criterion 1, 5 or 6, same seeds."""
    if criterion == 5:
        return desk_instances(505, 30, nested=True)
    if criterion == 1:
        rng = np.random.default_rng(101)
        return [
            random_decomposed(rng, n_nodes=int(rng.integers(4, 13)), max_labels=4, nested=(i % 3 == 0))
            for i in range(100)
        ]
    out = [build_monotonic_chains(*figure_chain_instance(np.random.default_rng(6060 + i))) for i in range(15)]
    rng = np.random.default_rng(606)
    while len(out) < 50:
        d = random_decomposed(rng, n_nodes=int(rng.integers(4, 10)), nested=True)
        if any(len(d.jstructure.scope(b)) >= 2 for b in d.jstructure.separators):
            out.append(d)
    return out


def separator_chained_instance():
    """(0,1,2), (1,2,3) and (1,2) with singleton edges only: the chain builder
    chains (1,2) on its own, and it then becomes the other chain's joint
    separator, so one chain holds a factor that is not outer."""
    rng = np.random.default_rng(5)
    labels = [2, 3, 2, 3]
    scopes = [(0,), (1,), (2,), (3,), (0, 1, 2), (1, 2, 3), (1, 2)]
    model = build_model(
        labels, [(s, rng.uniform(-2, 2, size=int(np.prod([labels[v] for v in s])))) for s in scopes]
    )
    edges = {(model.factor_id(s), model.factor_id((v,))) for s in scopes if len(s) > 1 for v in s}
    return build_monotonic_chains(model, close_j(model.scopes, edges))


class TestPassBoundReadOff:
    """The bound a pass returns is read off its chains' end separator tables;
    it must equal the chain DP's bound on the state's tables."""

    @pytest.mark.parametrize("criterion", [1, 5, 6])
    def test_criterion_instance_sets(self, criterion):
        # each instance takes the next reuse mode
        for i, d in enumerate(criterion_instances(criterion)):
            assert_pass_bounds_match_dp(d, REUSE_MODES[i % len(REUSE_MODES)])

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_figure_instance(self, reuse):
        d = build_monotonic_chains(*figure_chain_instance(np.random.default_rng(3)))
        assert_pass_bounds_match_dp(d, reuse)

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_stereo_second_order(8, 8, labels=4, seed=1, separators="pair"),
            lambda: gen_potts_2x2(8, 8, labels=3, seed=1, separators="pair"),
        ],
        ids=["stereo", "potts"],
    )
    def test_pair_separator_grids(self, make, reuse):
        assert_pass_bounds_match_dp(build_monotonic_chains(*make()), reuse, passes=8)

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_chain_with_a_separator_member_falls_back_to_dp(self, reuse):
        d = separator_chained_instance()
        scopes = [[d.jstructure.scope(a) for a in chain] for chain in d.chains]
        assert scopes == [[(0, 1, 2), (1, 2, 3)], [(1, 2)]]
        assert validate_decomposition(d.model, d.jstructure, d).codes() == ["outer-cover"]
        st = chain_state_init(d)
        assert compile_sweeps(d, reuse, st.message_stacks, st.separator_stacks).fallback == (1,)
        assert_pass_bounds_match_dp(d, reuse)

    def test_diag_cells_count_end_tables_and_fallback_dp(self):
        d = separator_chained_instance()
        st = chain_state_init(d)
        trws_chain_pass(d, st)
        # chain 0 reads its 3-label end table (node 3); chain 1 re-runs the DP
        # over its one member, the 3x2 table of (1, 2)
        assert st.diag_cells == 3 + 6


def schedule_instances():
    """Factories of the decompositions the level-schedule tests sweep: a Potts
    grid with pair separators, a stereo grid and random nested models."""
    makes = [
        lambda: gen_potts_2x2(6, 6, labels=3, seed=1, separators="pair"),
        lambda: gen_stereo_second_order(6, 5, labels=4, seed=2),
    ]
    makes += [
        lambda seed=seed: random_instance(np.random.default_rng(seed), nested=True)
        for seed in range(700, 712)
    ]
    return [lambda make=make: build_monotonic_chains(*make()) for make in makes]


def sequential_pass(d, messages, theta, reuse, forward, lead_current):
    """Reference sweep, one separator and one edge at a time, over dicts of
    messages and separator caches, with the elementwise operations in the
    order the production sweep keeps.  Returns the edges it updated: all but
    the trailing bounds and the no-ops that consume a preemptive refresh."""
    js, model = d.jstructure, d.model
    scope, table, rho = model.scope, model.table, d.rho_factor
    order = d.separator_order if forward else d.separator_order[::-1]
    trailing = d.sep_minus if forward else d.sep_plus
    sources = {}
    for a, b in d.message_edges:
        sources.setdefault(b, []).append(a)

    def shape_in(c, a):
        return embed_shape(scope(c), scope(a), model.label_counts)

    def nested(p, b):
        return p is not None and set(scope(b)) < set(scope(p))

    def fresh(a, b):
        out = table(a).copy()
        for c in d.local_separators[a]:
            if c != b:
                out -= messages[(a, c)].reshape(shape_in(c, a))
        for c in sorted(js.locals[a] - js.locals[b]):
            if c in js.separators:
                out += rho[a] / rho[c] * theta[c].reshape(shape_in(c, a))
        return np.minimum.reduce(out, axis=drop_axes(scope(a), scope(b)))

    def fold(a, p, b, total):
        for c in sorted(js.locals[p]):
            if c not in js.locals[b]:
                total += rho[a] / rho[c] * theta[c].reshape(shape_in(c, p))
        return np.minimum.reduce(total, axis=drop_axes(scope(p), scope(b)))

    pending, updated = set(), []
    for b in order:
        cache = table(b).copy()
        for a in sources.get(b, ()):
            key = (a, b)
            if b != trailing[a] and key in pending:
                pending.discard(key)
            elif b != trailing[a]:
                window = d.local_separators[a]
                k = window.index(b)
                pred = window[k - 1] if k else None
                succ = window[k + 1] if k + 1 < len(window) else None
                if not forward:
                    pred, succ = succ, pred
                if reuse != "none" and nested(pred, b) and (lead_current or pred != trailing[a]):
                    messages[key] = messages[key] + fold(a, pred, b, np.zeros(table(pred).shape))
                elif reuse == "before-after" and nested(succ, b):
                    m_new = fresh(a, succ)
                    delta = fold(a, succ, b, m_new - messages[(a, succ)])
                    messages[key] = messages[key] + delta
                    messages[(a, succ)] = m_new - delta.reshape(shape_in(b, succ))
                    pending.add((a, succ))
                else:
                    messages[key] = fresh(a, b)
                updated.append(key)
            cache += messages[key]
        theta[b] = cache
    return updated


def sequential_updates(d, reuse, forward, lead_current):
    # the edges `sequential_pass` updates, from zero messages
    messages = {key: np.zeros(d.model.table(key[1]).shape) for key in d.message_edges}
    theta = {b: d.model.table(b).copy() for b in d.separator_order}
    return sequential_pass(d, messages, theta, reuse, forward, lead_current)


# every (forward, lead) variant of a sweep program: alternation from a forward
# first pass never runs backward with lead edges fresh
VARIANTS = [(True, False), (True, True), (False, True)]


def reversed_phases(program):
    # the program with the groups of each phase of each variant in reverse order
    return program._replace(
        variants={
            key: sweep._replace(phases=tuple(phase[::-1] for phase in sweep.phases))
            for key, sweep in program.variants.items()
        }
    )


def compiled_calls(program):
    # the calls of every group of every variant, each group once
    seen = set()
    for sweep in program.variants.values():
        for group in (group for phase in sweep.phases for group in phase):
            if id(group) not in seen:
                seen.add(id(group))
                yield from group


def store_stacks(d, st, program):
    # the stacks of the program's table store that its compiled calls reach,
    # each with how: arrays of two or more axes that are neither the state's
    # stacks nor the model's tables, read as views ("view") or with "take"
    own = [*st.message_stacks, *st.separator_stacks, *(f.table for f in d.model.factors)]
    reached = {}
    for f, args in compiled_calls(program):
        if f.__name__ == "take":
            reached.setdefault(id(f.__self__), (f.__self__, set()))[1].add("take")
        for x in args:
            if isinstance(x, np.ndarray) and x.base is not None and x.base.ndim >= 2:
                reached.setdefault(id(x.base), (x.base, set()))[1].add("view")
    return [(stack, how) for stack, how in reached.values() if not any(stack is o for o in own)]


def stacks_bytes(state):
    return [x.tobytes() for x in state.message_stacks + state.separator_stacks]


def assert_sweeps_match_sequential(d, reuse, start=0, passes=6):
    # compiled sweeps from zero messages, the first in the direction of a
    # state that has run `start` passes, against `sequential_pass` byte for byte
    st = chain_state_init(d)
    st.passes = start
    messages = {key: np.zeros(d.model.table(key[1]).shape) for key in d.message_edges}
    theta = {b: d.model.table(b).copy() for b in d.separator_order}
    for k in range(start, start + passes):
        trws_chain_pass(d, st, reuse=reuse)
        sequential_pass(d, messages, theta, reuse, k % 2 == 0, k > 0)
        for key, m in messages.items():
            assert st.messages[key].tobytes() == m.tobytes(), (k, key)
        for b, t in theta.items():
            assert st.theta_sep[b].tobytes() == t.tobytes(), (k, b)


class TestLevelSchedule:
    """The sweep runs level by level, one group per recipe class; the groups
    of a level must commute and every update must run exactly once."""

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_byte_identical_to_a_sequential_sweep(self, reuse):
        for make in schedule_instances():
            assert_sweeps_match_sequential(make(), reuse)

    @given(
        seed=strategies.integers(0, 2**32 - 1),
        n_nodes=strategies.integers(4, 9),
        max_labels=strategies.integers(2, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_nested_models_match_a_sequential_sweep(self, seed, n_nodes, max_labels):
        # the nested family, where most groups hold one row, in every mode
        # from either direction
        rng = np.random.default_rng(seed)
        d = build_monotonic_chains(
            *random_instance(rng, n_nodes=n_nodes, max_labels=max_labels, nested=True)
        )
        for reuse in REUSE_MODES:
            for start in (0, 1):
                assert_sweeps_match_sequential(d, reuse, start)

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_groups_of_a_level_run_in_any_order(self, reuse):
        multi = 0
        for make in schedule_instances():
            d, e = make(), make()
            st_d, st_e = chain_state_init(d), chain_state_init(e)
            program = compile_sweeps(e, reuse, st_e.message_stacks, st_e.separator_stacks)
            program = st_e._bound[reuse] = reversed_phases(program)
            for key in VARIANTS:
                multi += sum(len(phase) > 1 for phase in program.variants[key].phases)
            for _ in range(6):
                phi = trws_chain_pass(d, st_d, reuse=reuse)
                assert trws_chain_pass(e, st_e, reuse=reuse) == phi
                assert stacks_bytes(st_d) == stacks_bytes(st_e)
                assert (st_d.meff, st_d.msg_ops_last_pass) == (st_e.meff, st_e.msg_ops_last_pass)
        assert multi > 0  # some level holds more than one group to reorder

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_every_update_runs_in_exactly_one_group(self, reuse):
        # which updates run, and that each runs once, is checked by the
        # byte identity with `sequential_pass`; here their number per sweep
        for make in schedule_instances():
            d = make()
            st = chain_state_init(d)
            program = compile_sweeps(d, reuse, st.message_stacks, st.separator_stacks)
            for forward, lead_current in VARIANTS:
                want = sequential_updates(d, reuse, forward, lead_current)
                assert program.variants[forward, lead_current].ops == len(want)
            # the first pass runs the variant where lead edges may not take `after`
            for k in range(3):
                trws_chain_pass(d, st, reuse=reuse)
                want = sequential_updates(d, reuse, k % 2 == 0, k > 0)
                assert st.msg_ops_last_pass == len(want)

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_calls_and_groups_per_variant_are_pinned(self, reuse):
        for name, make in zip(GRID_CALLS_AND_GROUPS, schedule_instances()):
            d = make()
            st = chain_state_init(d)
            program = compile_sweeps(d, reuse, st.message_stacks, st.separator_stacks)
            got = []
            for key in VARIANTS:
                groups = [group for phase in program.variants[key].phases for group in phase]
                got.append((sum(map(len, groups)), len(groups)))
            assert tuple(got) == GRID_CALLS_AND_GROUPS[name][reuse], name

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_variants_compile_on_first_use(self, reuse):
        # a state compiles a mode's three variants together on its first pass
        # in that mode and runs every later pass on that one program.  The
        # two forward variants are one where no edge is a lead edge (b at
        # slot 1 of a's window, nested in the trailing bound at slot 0): of
        # these instances, only the stereo grid has lead edges.
        for k, make in enumerate(schedule_instances()):
            d = make()
            st = chain_state_init(d)
            assert st._bound.get(reuse) is None
            trws_chain_pass(d, st, reuse=reuse)
            program = st._bound[reuse]
            assert set(program.variants) == set(VARIANTS)
            scope = d.model.scope
            windows = [d.local_separators[a] for a in dict.fromkeys(a for a, _ in d.message_edges)]
            lead = reuse != "none" and any(
                len(w) > 1 and set(scope(w[1])) < set(scope(w[0])) for w in windows
            )
            assert lead == (k == 1 and reuse != "none")
            assert (program.variants[True, False] is program.variants[True, True]) == (not lead)
            for _ in range(3):
                trws_chain_pass(d, st, reuse=reuse)
            assert st._bound[reuse] is program

    def test_no_multiply_by_exactly_one(self):
        # a weighted term whose coefficients are all exactly 1.0 adds the
        # caches themselves (x * 1.0 is x bit for bit), one whose
        # coefficients are all equal multiplies by one 0-d array, and a group
        # that mixes 1.0 with other coefficients keeps its multiply
        mixed = 0
        for reuse in REUSE_MODES:
            for make in schedule_instances():
                d = make()
                st = chain_state_init(d)
                program = compile_sweeps(d, reuse, st.message_stacks, st.separator_stacks)
                for f, args in compiled_calls(program):
                    if f is np.multiply:
                        coef = np.asarray(args[0])
                        assert not np.all(coef == 1.0)
                        assert coef.ndim == 0 or len(np.unique(coef)) > 1
                        mixed += bool(np.any(coef == 1.0))
        assert mixed > 0

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_state_views_are_read_only(self, reuse):
        d = build_monotonic_chains(*figure_chain_instance(np.random.default_rng(3)))
        st = chain_state_init(d)
        key, b = d.message_edges[0], d.separator_order[0]
        for k in range(3):
            with pytest.raises(ValueError):
                st.messages[key][...] = 1.0
            with pytest.raises(ValueError):
                st.theta_sep[b] += 1.0
            with pytest.raises(TypeError):
                st.messages[key] = np.zeros_like(st.messages[key])
            # the direction is the parity of the pass count, not a field
            assert st.direction == ("forward" if k % 2 == 0 else "backward")
            with pytest.raises(AttributeError):
                st.direction = "backward"
            trws_chain_pass(d, st, reuse=reuse)
        # the views follow the stacks the sweep writes
        stack, row = d._layout.edge_row[key]
        assert np.shares_memory(st.messages[key], st.message_stacks[stack])
        assert np.array_equal(st.messages[key], st.message_stacks[stack][row])

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_instances_reach_views_and_index_arrays(self, reuse):
        # a compiled group reads and writes a row set given by a slice, one
        # row included, through views of the stacks, and one given by an
        # index array through scratch; the instances above must exercise
        # both.  Every group is a batch, so no reduction minimizes out its
        # leading axis (`np.minimum.reduce` is a new bound method at each
        # access, so it is told by its name).  The model's tables are rows of
        # the table store, read like any other rows: as views, or with
        # `take`, and never concatenated.
        found = set()
        for make in schedule_instances():
            d = make()
            st = chain_state_init(d)
            stacks = st.message_stacks + st.separator_stacks
            program = compile_sweeps(d, reuse, st.message_stacks, st.separator_stacks)
            for _, how in store_stacks(d, st, program):
                found |= {f"store {h}" for h in how}
            for f, args in compiled_calls(program):
                assert f is not np.concatenate
                if f.__name__ == "reduce":
                    assert 0 not in args[1]
                    found.add("reduce")
                for x in args:
                    if isinstance(x, np.ndarray) and x.dtype == np.intp:
                        found.add("index array")
                    elif isinstance(x, np.ndarray) and any(x.base is s for s in stacks):
                        found.add("view")
        assert found == {"view", "index array", "reduce", "store view", "store take"}

    def test_table_store_holds_each_distinct_table_once(self):
        # per table shape, one read-only row per distinct table object of the
        # separators in sigma order, then of the message edges' sources
        for k, make in enumerate(schedule_instances()):
            d = make()
            st = chain_state_init(d)
            program = compile_sweeps(d, "none", st.message_stacks, st.separator_stacks)
            tables = [f.table for f in d.model.factors]
            want = {}
            for f in (*d.separator_order, *(a for a, _ in d.message_edges)):
                want.setdefault(tables[f].shape, {}).setdefault(id(tables[f]), tables[f])
            reached = store_stacks(d, st, program)
            assert reached
            for stack, _ in reached:
                assert not stack.flags.writeable
                with pytest.raises(ValueError):
                    stack[0] = 0.0
                held = list(want[stack.shape[1:]].values())
                assert stack.shape[0] == len(held)
                assert stack.tobytes() == np.stack(held).tobytes()
            if k == 1:  # the stereo grid: its ternary factors share one table
                assert [stack.shape for stack, _ in reached if stack.ndim == 4] == [(1, 4, 4, 4)]


def state_signature(st):
    return (
        stacks_bytes(st),
        st.meff,
        st.diag_cells,
        st.msg_ops_last_pass,
        st.passes,
    )


class TestBoundSweeps:
    """A state compiles each reuse mode's sweeps onto its stacks on its first
    pass in that mode.  Whatever happens to the state between passes, the
    passes must run byte-identical to a fresh state on the same inputs, and
    never write another state's arrays."""

    PASSES = 6

    def reference(self, make, reuse):
        d = make()
        st = chain_state_init(d)
        phis = [trws_chain_pass(d, st, reuse=reuse) for _ in range(self.PASSES)]
        return phis, state_signature(st)

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_deep_copy_binds_its_own_stacks(self, reuse):
        for make in schedule_instances():
            want_phis, want = self.reference(make, reuse)
            d = make()
            st = chain_state_init(d)
            head = [trws_chain_pass(d, st, reuse=reuse) for _ in range(3)]
            twin = copy.deepcopy(st)  # resumes backward
            before = state_signature(st)
            tail = [trws_chain_pass(d, twin, reuse=reuse) for _ in range(self.PASSES - 3)]
            assert state_signature(st) == before
            assert head + tail == want_phis and state_signature(twin) == want
            tail = [trws_chain_pass(d, st, reuse=reuse) for _ in range(self.PASSES - 3)]
            assert head + tail == want_phis and state_signature(st) == want

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_replaced_state_and_new_stacks_rebind(self, reuse):
        for make in schedule_instances():
            want_phis, want = self.reference(make, reuse)
            d = make()
            st = chain_state_init(d)
            phis = [trws_chain_pass(d, st, reuse=reuse) for _ in range(2)]
            st = dataclasses.replace(st)
            phis += [trws_chain_pass(d, st, reuse=reuse) for _ in range(2)]
            old = st.message_stacks + st.separator_stacks
            frozen = [x.tobytes() for x in old]
            st.message_stacks = [x.copy() for x in st.message_stacks]
            st.separator_stacks = [x.copy() for x in st.separator_stacks]
            phis += [trws_chain_pass(d, st, reuse=reuse) for _ in range(self.PASSES - 4)]
            assert [x.tobytes() for x in old] == frozen
            assert phis == want_phis and state_signature(st) == want

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_views_and_tables_read_the_stacks_held(self, reuse):
        # stacks reassigned on the state or handed to `replace` are what the
        # views and the factor tables read from then on
        for make in schedule_instances():
            d = make()
            layout = d._layout
            ref, st = chain_state_init(d), chain_state_init(d)
            for k in range(self.PASSES):
                if k == 2:
                    st.message_stacks = [x.copy() for x in st.message_stacks]
                    st.separator_stacks = [x.copy() for x in st.separator_stacks]
                elif k == 4:
                    st = dataclasses.replace(
                        st,
                        message_stacks=[x.copy() for x in st.message_stacks],
                        separator_stacks=[x.copy() for x in st.separator_stacks],
                    )
                trws_chain_pass(d, ref, reuse=reuse)
                trws_chain_pass(d, st, reuse=reuse)
                for views, stacks, rows in (
                    (st.messages, st.message_stacks, layout.edge_row),
                    (st.theta_sep, st.separator_stacks, layout.sep_row),
                ):
                    assert len(views) == len(rows)
                    for key, (s, row) in rows.items():
                        assert np.shares_memory(views[key], stacks[s])
                        assert views[key].tobytes() == stacks[s][row].tobytes()
                got = chain_state_factor_tables(d, st)
                want = chain_state_factor_tables(d, ref)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want], k

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_two_states_on_one_decomposition(self, reuse):
        for make in schedule_instances():
            want_phis, want = self.reference(make, reuse)
            d = make()
            first = chain_state_init(d)
            phis = [[trws_chain_pass(d, first, reuse=reuse) for _ in range(2)], []]
            second = chain_state_init(d)
            for _ in range(self.PASSES - 2):
                phis[0].append(trws_chain_pass(d, first, reuse=reuse))
                phis[1].append(trws_chain_pass(d, second, reuse=reuse))
            phis[1] += [trws_chain_pass(d, second, reuse=reuse) for _ in range(2)]
            assert phis == [want_phis, want_phis]
            assert state_signature(first) == want and state_signature(second) == want

    def test_state_carried_to_another_decomposition_recompiles(self):
        # a state whose rows the decomposition shares runs that
        # decomposition's sweep and read-off, as its deep copy does
        d = build_monotonic_chains(*gen_stereo_second_order(5, 4, labels=3))
        st = chain_state_init(d)
        trws_chain_pass(d, st, reuse="after")
        w = np.linspace(1, 2, len(d.chains))
        twin = copy.deepcopy(st)
        for e in (dataclasses.replace(d, rho=tuple(w / w.sum())), dataclasses.replace(d, rho=d.rho),
                  copy.deepcopy(d)):
            assert trws_chain_pass(e, st, reuse="after") == trws_chain_pass(e, twin, reuse="after")
            assert state_signature(st) == state_signature(twin)
            assert st._bound["after"].decomp is e

    def test_state_of_another_layout_raises(self):
        stereo = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=3))
        potts = build_monotonic_chains(*gen_potts_2x2(4, 4, labels=3))
        ran = chain_state_init(stereo)
        trws_chain_pass(stereo, ran)
        for st in (chain_state_init(stereo), ran):
            for read in (trws_chain_pass, chain_state_tree_params, extract_primal):
                with pytest.raises(StateNotInitialized):
                    read(potts, st)

    def test_outer_factor_in_no_chain_raises(self):
        d = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=2))
        e = dataclasses.replace(d, chains=d.chains[1:], rho=(0.2,) * 5)
        assert "outer-cover" in validate_decomposition(e.model, e.jstructure, e).codes()
        with pytest.raises(HomrfError, match="^outer factor 16 is in no chain$"):
            chain_state_init(e)
        with pytest.raises(HomrfError, match="^outer factor 16 is in no chain$"):
            extract_primal(e, chain_state_init(d))

    def test_passes_build_no_chain_dp_stages(self):
        # only the bound's fallback chains, none here, run the chain DP
        d = build_monotonic_chains(*gen_stereo_second_order(6, 5, labels=3))
        for reuse in REUSE_MODES:
            solve_trws(d, passes=4, reuse=reuse)
        assert "_stages" not in vars(d)
        bound(d, init_tree_params(d))
        assert "_stages" in vars(d)

    def test_bindings_stay_out_of_repr_and_comparisons(self):
        d = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=2, seed=1))
        st = chain_state_init(d)
        trws_chain_pass(d, st, reuse="after")
        assert "_bound" not in repr(st)
        assert not any(f.init for f in dataclasses.fields(st) if f.name == "_bound")
        # states compare by identity: comparing their stacks of arrays raised
        assert (st == st) is True
        assert (chain_state_init(d) == chain_state_init(d)) is False


class TestReuse:
    def test_after_mode_equals_direct(self, rng):
        for _ in range(25):
            d = random_decomposed(rng, nested=True)
            st0 = chain_state_init(d)
            st1 = chain_state_init(d)
            for _ in range(6):
                p0 = trws_chain_pass(d, st0, reuse="none")
                p1 = trws_chain_pass(d, st1, reuse="after")
                assert p1 == pytest.approx(p0, abs=1e-12)
            for key in st0.messages:
                assert np.allclose(st0.messages[key], st1.messages[key], atol=1e-12)

    def test_before_after_mode_equals_direct(self, rng):
        for _ in range(25):
            d = random_decomposed(rng, nested=True)
            st0 = chain_state_init(d)
            st1 = chain_state_init(d)
            for _ in range(6):
                p0 = trws_chain_pass(d, st0, reuse="none")
                p1 = trws_chain_pass(d, st1, reuse="before-after")
                assert p1 == pytest.approx(p0, abs=1e-12)
            for key in st0.messages:
                assert np.allclose(st0.messages[key], st1.messages[key], atol=1e-12)

    def test_figure_style_instance_uses_both_schemes(self, rng):
        model, js = figure_chain_instance(rng)
        d = build_monotonic_chains(model, js)
        st0 = chain_state_init(d)
        st1 = chain_state_init(d)
        st2 = chain_state_init(d)
        for _ in range(8):
            p0 = trws_chain_pass(d, st0, reuse="none")
            p1 = trws_chain_pass(d, st1, reuse="after")
            p2 = trws_chain_pass(d, st2, reuse="before-after")
            assert p1 == pytest.approx(p0, abs=1e-12)
            assert p2 == pytest.approx(p0, abs=1e-12)
        # nested pair under abc and bcd means the shortcut actually fired
        assert st1.meff < st0.meff

    def test_reuse_effort_is_cheaper(self, rng):
        model, js = figure_chain_instance(rng)
        d = build_monotonic_chains(model, js)
        st_direct = chain_state_init(d)
        st_reuse = chain_state_init(d)
        for _ in range(4):
            trws_chain_pass(d, st_direct, reuse="none")
            trws_chain_pass(d, st_reuse, reuse="after")
        assert st_reuse.meff < st_direct.meff


class TestBoundComputation:
    def test_chain_dp_matches_enumeration(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            params = init_tree_params(d)
            assert bound(d, params) == pytest.approx(phi_exhaustive(d, params), abs=1e-12)

    def test_tree_argmin_value_matches_map_on_paths(self, rng):
        for _ in range(5):
            model, js = path_instance(rng, n_nodes=6)
            d = build_monotonic_chains(model, js)
            params = init_tree_params(d)
            value, labeling = tree_argmin(d, params, 0)
            lab_map, want = brute_force_map(d.model)
            assert value == pytest.approx(want, abs=1e-12)
            full = [labeling[v] for v in sorted(labeling)]
            assert energy(d.model, full) == pytest.approx(want, abs=1e-12)

    def test_chain_bound_below_map(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            st = chain_state_init(d)
            _, value = brute_force_map(d.model)
            for _ in range(5):
                phi = trws_chain_pass(d, st)
                assert phi <= value + 1e-9


class TestSolveTrws:
    def test_stop_reason(self, rng):
        tree = build_monotonic_chains(*path_instance(rng, n_nodes=6))
        converged = solve_trws(tree, passes=50)
        assert converged.stop == "eps" and len(converged.rows) < 50
        grid = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=4, seed=5))
        budget = solve_trws(grid, passes=3, eps=0.0)
        assert budget.stop == "passes" and len(budget.rows) == 3

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_stereo_second_order(6, 5), lambda: gen_potts_2x2(6, 6, separators="pair")],
        ids=["stereo", "potts"],
    )
    def test_bare_passes_run_the_solve(self, make):
        # a loop of passes in `trws_chain_pass`'s default reuse mode is the
        # solve in its default mode, byte for byte
        d = build_monotonic_chains(*make())
        result = solve_trws(d, passes=6, eps=None)
        st = chain_state_init(d)
        rows = []
        for _ in range(6):
            phi = trws_chain_pass(d, st)
            rows.append((np.float64(phi).tobytes(), st.meff))
        assert rows == [(np.float64(r.bound).tobytes(), r.meff) for r in result.rows]
        assert stacks_bytes(st) == stacks_bytes(result.state)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-3])
    def test_bad_eps_raises(self, eps):
        # it would never stop the loop early, so it must not run the budget
        d = build_monotonic_chains(*gen_potts_2x2(2, 2))
        with pytest.raises(ValueError, match="eps must be a finite non-negative number"):
            solve_trws(d, passes=3, eps=eps)

    @pytest.mark.parametrize("passes", [-1, 0, 2.5])
    def test_bad_passes_raises(self, passes):
        # no pass would leave no bound to report
        d = build_monotonic_chains(*gen_potts_2x2(2, 2))
        with pytest.raises(ValueError, match="passes"):
            solve_trws(d, passes=passes)
