import numpy as np
import pytest

from homrf.decomposition import build_monotonic_chains
from homrf.errors import (
    ExcessMessageOps,
    FactorNotInTree,
    InvalidEdge,
    NotASeparator,
    StateNotInitialized,
    UnconsumedPreemptiveMessage,
)
from homrf.decomposition import validate_decomposition
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import build_model, close_j, energy
from homrf.oracle import (
    average_factor,
    brute_force_map,
    brute_force_min_marginals,
    explicit_chain_init,
    nu_table,
    send_message,
    tree_min_marginal,
    tree_total_table,
    trws_explicit_pass,
    trws_general_pass,
)
from homrf.trws import (
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
        with pytest.raises(StateNotInitialized):
            trws_chain_pass(d, object())

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

    def test_explicit_direction_matches_default_alternation(self, rng):
        d = random_decomposed(rng, nested=True)
        st_default = chain_state_init(d)
        st_explicit = chain_state_init(d)
        dirs = ["forward", "backward", "forward", "backward"]
        for k in range(4):
            a = trws_chain_pass(d, st_default, reuse="before-after")
            b = trws_chain_pass(d, st_explicit, direction=dirs[k], reuse="before-after")
            assert b == pytest.approx(a, abs=1e-12)
        for key in st_default.messages:
            assert np.allclose(st_default.messages[key], st_explicit.messages[key], atol=1e-12)

    def test_repeated_forward_passes_keep_reparameterization(self, rng):
        d = random_decomposed(rng, nested=True)
        st = chain_state_init(d)
        for _ in range(3):
            trws_chain_pass(d, st, direction="forward")
        tables = chain_state_factor_tables(d, st)
        for _ in range(10):
            lab = [int(rng.integers(0, c)) for c in d.model.label_counts]
            got = sum(
                tables[fid][tuple(lab[v] for v in d.model.scope(fid))]
                for fid in range(len(d.model.factors))
            )
            assert got == pytest.approx(energy(d.model, lab), abs=1e-9)

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

    def test_unconsumed_preemptive_message_raises(self, rng):
        d = random_decomposed(rng, nested=True)
        st = chain_state_init(d)
        st.pending_noop.add((-1, -1))
        with pytest.raises(UnconsumedPreemptiveMessage):
            trws_chain_pass(d, st)

    def test_excess_message_ops_raises(self):
        d = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=2, seed=1))
        st = chain_state_init(d)
        trws_chain_pass(d, st)
        # the cached plan still sweeps every edge, now more than d claims
        d.message_edges = d.message_edges[:1]
        with pytest.raises(ExcessMessageOps, match="32 message operations for 1 edges"):
            trws_chain_pass(d, st)

    def test_unknown_reuse_or_direction_rejected(self):
        d = build_monotonic_chains(*figure_chain_instance(np.random.default_rng(3)))
        with pytest.raises(ValueError, match="before-after"):
            trws_chain_pass(d, chain_state_init(d), reuse="before_after")
        with pytest.raises(ValueError, match="reuse"):
            solve_trws(d, passes=8, eps=0, reuse="After")
        with pytest.raises(ValueError, match="backward"):
            trws_chain_pass(d, chain_state_init(d), direction="Forward")
        with pytest.raises(ValueError, match="backward"):
            trws_explicit_pass(d, explicit_chain_init(d), direction="Forward")


# meff, diag_cells and msg_ops_last_pass after 6 passes of the stereo instance
# below: pinned, so that reorganizing the sweep cannot change the work it does.
# diag_cells counts the bound's reads: 14 chains' 8-label end tables per pass.
STEREO_8X8_COUNTERS = {
    "none": (589824, 672, 192),
    "after": (410624, 672, 192),
    "before-after": (338944, 672, 176),
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
DIRECTION_RUNS = ((None,) * 4, ("forward",) * 4, ("backward",) * 4)  # alternating, one-way
READ_OFF_CONFIGS = [(reuse, directions) for reuse in REUSE_MODES for directions in DIRECTION_RUNS]


def assert_pass_bounds_match_dp(d, reuse, directions):
    # every bound read off the sweep against the chain DP on the state's tables
    st = chain_state_init(d)
    for direction in directions:
        phi = trws_chain_pass(d, st, direction=direction, reuse=reuse)
        ref = bound(d, chain_state_tree_params(d, st))
        assert abs(phi - ref) <= 1e-12 * max(1.0, abs(ref)), (reuse, direction)


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
        # each instance takes the next reuse/direction configuration
        for i, d in enumerate(criterion_instances(criterion)):
            assert_pass_bounds_match_dp(d, *READ_OFF_CONFIGS[i % len(READ_OFF_CONFIGS)])

    @pytest.mark.parametrize("reuse, directions", READ_OFF_CONFIGS)
    def test_figure_instance(self, reuse, directions):
        d = build_monotonic_chains(*figure_chain_instance(np.random.default_rng(3)))
        assert_pass_bounds_match_dp(d, reuse, directions)

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
        d = build_monotonic_chains(*make())
        assert_pass_bounds_match_dp(d, reuse, DIRECTION_RUNS[0])
        assert_pass_bounds_match_dp(d, reuse, DIRECTION_RUNS[1] + DIRECTION_RUNS[2])

    @pytest.mark.parametrize("reuse", REUSE_MODES)
    def test_chain_with_a_separator_member_falls_back_to_dp(self, reuse):
        d = separator_chained_instance()
        scopes = [[d.jstructure.scope(a) for a in chain] for chain in d.chains]
        assert scopes == [[(0, 1, 2), (1, 2, 3)], [(1, 2)]]
        assert validate_decomposition(d.model, d.jstructure, d).codes() == ["outer-cover"]
        assert d._sweep_plan.fallback == (1,)
        for directions in DIRECTION_RUNS:
            assert_pass_bounds_match_dp(d, reuse, directions)

    def test_diag_cells_count_end_tables_and_fallback_dp(self):
        d = separator_chained_instance()
        st = chain_state_init(d)
        trws_chain_pass(d, st)
        # chain 0 reads its 3-label end table (node 3); chain 1 re-runs the DP
        # over its one member, the 3x2 table of (1, 2)
        assert st.diag_cells == 3 + 6


class TestReuse:
    @pytest.mark.parametrize("direction", [None, "forward", "backward"])
    def test_after_mode_equals_direct(self, rng, direction):
        for _ in range(25):
            d = random_decomposed(rng, nested=True)
            st0 = chain_state_init(d)
            st1 = chain_state_init(d)
            for _ in range(6):
                p0 = trws_chain_pass(d, st0, direction, reuse="none")
                p1 = trws_chain_pass(d, st1, direction, reuse="after")
                assert p1 == pytest.approx(p0, abs=1e-12)
            for key in st0.messages:
                assert np.allclose(st0.messages[key], st1.messages[key], atol=1e-12)

    @pytest.mark.parametrize("direction", [None, "forward", "backward"])
    def test_before_after_mode_equals_direct(self, rng, direction):
        for _ in range(25):
            d = random_decomposed(rng, nested=True)
            st0 = chain_state_init(d)
            st1 = chain_state_init(d)
            for _ in range(6):
                p0 = trws_chain_pass(d, st0, direction, reuse="none")
                p1 = trws_chain_pass(d, st1, direction, reuse="before-after")
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
