import dataclasses

import numpy as np
import pytest

from homrf.baselines import psi_bound, solve_msd
from homrf.decomposition import build_monotonic_chains
from homrf.errors import NotAtFixpoint, TooLarge
from homrf.model import build_model, close_j, energy
from homrf.oracle import (
    Relation,
    argmin_relation,
    average_factor,
    brute_force_map,
    brute_force_min_marginals,
    check_ewta,
    check_j_consistency_enhanced,
    check_j_consistency_relational,
    extract_primal,
    map_jconsistent_to_wta,
    map_wta_to_jconsistent,
    tree_argmin_relation,
    tree_min_marginal,
    witness_j_relations,
)
from homrf.trws import (
    bound,
    chain_state_init,
    chain_state_tree_params,
    init_tree_params,
    solve_trws,
    trws_chain_pass,
)

from conftest import path_instance, random_decomposed


def converge_trws(d, passes=400):
    result = solve_trws(d, passes=passes, eps=0.0, reuse="none")
    return result.state, result.bound


class TestBruteForce:
    def test_zero_model(self):
        model = build_model([2, 3], [((0,), np.zeros(2)), ((0, 1), np.zeros(6))])
        labeling, value = brute_force_map(model)
        assert labeling == (0, 0)
        assert value == 0.0

    def test_ising_with_unaries(self):
        model = build_model(
            [2, 2],
            [
                ((0,), [0.0, 0.5]),
                ((1,), [0.0, 0.5]),
                ((0, 1), [0.0, 1.0, 1.0, 0.0]),
            ],
        )
        labeling, value = brute_force_map(model)
        assert labeling == (0, 0)
        assert value == 0.0

    def test_guard(self):
        model = build_model([2] * 25, [((v,), np.zeros(2)) for v in range(25)])
        with pytest.raises(TooLarge):
            brute_force_map(model)

    def test_min_marginal_zero_case(self, rng):
        model, js = path_instance(rng, n_nodes=3)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        for fid in params.tables[0]:
            params.tables[0][fid] = np.zeros_like(params.tables[0][fid])
        b = d.model.factor_id((1,))
        assert np.allclose(brute_force_min_marginals(d, params, 0, b), 0.0)

    def test_min_marginal_hand_instance(self):
        model = build_model(
            [2, 2, 2],
            [
                ((0,), [0.0, 1.0]),
                ((1,), [0.0, 0.0]),
                ((2,), [2.0, 0.0]),
                ((0, 1), [0.0, 3.0, 3.0, 0.0]),
                ((1, 2), [0.0, 3.0, 3.0, 0.0]),
            ],
        )
        edges = set()
        for fid, scope in enumerate(model.scopes):
            if len(scope) == 2:
                for v in scope:
                    edges.add((fid, model.factor_id((v,))))
        d = build_monotonic_chains(model, close_j(model.scopes, edges))
        params = init_tree_params(d)
        b = d.model.factor_id((1,))
        got = brute_force_min_marginals(d, params, 0, b)
        # x1 = 0: x0 = 0 costs 0, x2 side min(0 + 2, 3 + 0) = 2 -> 2
        # x1 = 1: x0 side min(0 + 3, 1 + 0) = 1, x2 = 1 costs 0 -> 1
        assert np.allclose(got, [2.0, 1.0])


class TestRelations:
    def test_argmin_relation_tolerance(self):
        table = np.array([0.0, 1e-12, 0.5])
        rel = argmin_relation(table, (0,))
        assert rel.mask.tolist() == [True, True, False]

    def test_projection(self):
        mask = np.array([[True, False], [False, False]])
        rel = Relation((0, 1), mask)
        assert rel.project((1,)).mask.tolist() == [True, False]
        assert rel.project((0,)).mask.tolist() == [True, False]


class TestEwta:
    def test_single_tree_vacuous(self, rng):
        model, js = path_instance(rng, n_nodes=4)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        assert check_ewta(d, params).holds

    def test_converged_state_satisfies_agreement(self, rng):
        hits = 0
        for _ in range(6):
            d = random_decomposed(rng, n_nodes=5, max_labels=3, nested=True)
            state, _ = converge_trws(d)
            params = chain_state_tree_params(d, state)
            if check_ewta(d, params).holds:
                hits += 1
        assert hits >= 5

    def test_constructed_disagreement(self):
        model = build_model(
            [2, 2, 2],
            [
                ((0,), [0.0, 0.0]),
                ((1,), [0.0, 10.0]),
                ((2,), [10.0, 0.0]),
                ((0, 1), [0.0, 0.0, 5.0, 0.0]),
                ((0, 2), [0.0, 5.0, 0.0, 0.0]),
            ],
        )
        edges = set()
        for fid, scope in enumerate(model.scopes):
            if len(scope) == 2:
                for v in scope:
                    edges.add((fid, model.factor_id((v,))))
        d = build_monotonic_chains(model, close_j(model.scopes, edges))
        params = init_tree_params(d)
        report = check_ewta(d, params)
        assert not report.holds
        assert d.model.factor_id((0,)) in report.failing()


class TestJConsistency:
    def test_all_zero_holds(self):
        model = build_model(
            [2, 2], [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), np.zeros(4))]
        )
        js = close_j(model.scopes, {(2, 0), (2, 1)})
        tables = [f.table.copy() for f in model.factors]
        assert check_j_consistency_enhanced(tables, js).holds

    def test_selective_source_uniform_target_fails(self):
        model = build_model(
            [2, 2],
            [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), [0.0, 1.0, 1.0, 1.0])],
        )
        js = close_j(model.scopes, {(2, 0), (2, 1)})
        tables = [f.table.copy() for f in model.factors]
        report = check_j_consistency_enhanced(tables, js)
        assert not report.holds

    def test_subset_and_edge_failures_are_listed_together(self):
        model = build_model([2, 2], [((0, 1), np.zeros(4)), ((0,), np.zeros(2))])
        js = close_j(model.scopes, {(0, 1)})
        tables = [f.table for f in model.factors]
        relations = {
            0: Relation((0, 1), np.zeros((2, 2), dtype=bool)),
            1: Relation((0,), np.ones(2, dtype=bool)),
        }
        report = check_j_consistency_relational(tables, js, relations)
        assert report.failing() == [("subset", 0), (0, 1)]

    def test_edges_without_a_relation_at_either_end_are_not_checked(self):
        model = build_model(
            [2, 2], [((0, 1), np.zeros(4)), ((0,), np.zeros(2)), ((1,), np.zeros(2))]
        )
        js = close_j(model.scopes, {(0, 1), (0, 2)})
        tables = [f.table for f in model.factors]
        relations = {f: argmin_relation(tables[f], js.scope(f)) for f in (0, 1)}
        report = check_j_consistency_relational(tables, js, relations)
        assert list(report.per_item) == [(0, 1)] and report.holds
        del relations[0]
        assert check_j_consistency_relational(tables, js, relations).per_item == {}

    def test_msd_fixpoint_holds(self, rng):
        hits = 0
        for _ in range(6):
            d = random_decomposed(rng, n_nodes=5, nested=True)
            _, st = solve_msd(d, passes=3000, eps=0.0)
            if check_j_consistency_enhanced(st.tables, d.jstructure).holds:
                hits += 1
        assert hits >= 5


class TestMappings:
    def test_not_at_fixpoint_rejected(self, rng):
        # a fresh random split essentially never satisfies tree agreement
        found = False
        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            if len(d.chains) < 2:
                continue
            params = init_tree_params(d)
            if not check_ewta(d, params).holds:
                with pytest.raises(NotAtFixpoint):
                    map_wta_to_jconsistent(d, params)
                found = True
                break
        assert found

    def test_spread_rejects_inconsistent_or_uncovered_tables(self):
        pair = [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), [0.0, 5.0, 2.0, 1.0])]
        model = build_model([2, 2], pair)
        d = build_monotonic_chains(model, close_j(model.scopes, {(2, 0), (2, 1)}))
        tables = [f.table for f in d.model.factors]
        # the pair's one minimizer projects onto one of node 1's two
        with pytest.raises(NotAtFixpoint, match="minimizer consistency fails"):
            map_jconsistent_to_wta(d, tables)
        # with the pair's locals cut down to itself, no outer factor covers a
        # separator
        ab = d.model.factor_id((0, 1))
        js = dataclasses.replace(d.jstructure, locals={**d.jstructure.locals, ab: frozenset({ab})})
        with pytest.raises(NotAtFixpoint, match="no covering outer factor"):
            map_jconsistent_to_wta(dataclasses.replace(d, jstructure=js), tables, check=False)

    def test_single_factor_trees_move_costs(self, rng):
        model, js = path_instance(rng, n_nodes=2)
        d = build_monotonic_chains(model, js)
        params = init_tree_params(d)
        tables = map_wta_to_jconsistent(d, params)
        assert psi_bound(tables) == pytest.approx(bound(d, params), abs=1e-9)
        for b in d.jstructure.separators:
            assert np.allclose(tables[b], 0.0)

    def test_collapse_preserves_bound_and_consistency(self, rng):
        done = 0
        for _ in range(8):
            d = random_decomposed(rng, n_nodes=5, max_labels=3, nested=True)
            state, phi = converge_trws(d)
            params = chain_state_tree_params(d, state)
            if not check_ewta(d, params).holds:
                continue
            relations = witness_j_relations(d, params)
            tables = map_wta_to_jconsistent(d, params)
            assert psi_bound(tables) == pytest.approx(phi, abs=1e-9)
            # the projected subproblem minimizers witness relational
            # consistency of the collapsed vector
            assert check_j_consistency_relational(
                tables, d.jstructure, relations, tol=1e-7
            ).holds
            # still a reparameterization of the original costs
            for _ in range(10):
                lab = [int(rng.integers(0, c)) for c in d.model.label_counts]
                got = sum(
                    tables[fid][tuple(lab[v] for v in d.model.scope(fid))]
                    for fid in range(len(d.model.factors))
                )
                assert got == pytest.approx(energy(d.model, lab), abs=1e-8)
            done += 1
        assert done >= 4

    def test_spread_preserves_bound(self, rng):
        done = 0
        for _ in range(8):
            d = random_decomposed(rng, n_nodes=5, max_labels=3, nested=True)
            _, st = solve_msd(d, passes=4000, eps=0.0)
            if not check_j_consistency_enhanced(st.tables, d.jstructure).holds:
                continue
            psi = psi_bound(st.tables)
            params = map_jconsistent_to_wta(d, st.tables)
            assert bound(d, params) == pytest.approx(psi, abs=1e-9)
            done += 1
        assert done >= 4

    def test_round_trip_bound(self, rng):
        # the collapse output carries relational consistency witnessed by the
        # projected minimizers, which is all the spread map requires
        done = 0
        for _ in range(8):
            d = random_decomposed(rng, n_nodes=5, max_labels=3, nested=True)
            state, phi = converge_trws(d)
            params = chain_state_tree_params(d, state)
            if not check_ewta(d, params).holds:
                continue
            tables = map_wta_to_jconsistent(d, params)
            back = map_jconsistent_to_wta(d, tables, check=False)
            assert bound(d, back) == pytest.approx(phi, abs=1e-9)
            done += 1
        assert done >= 4


class TestPartialCover:
    # a cover of the first chain alone: the factors only the others held are
    # in no subproblem

    @staticmethod
    def _first_chain_alone(rng):
        while True:
            d = random_decomposed(rng, nested=True)
            if len(d.chains) > 1:
                part = dataclasses.replace(d, chains=d.chains[:1], rho=(1.0,))
                left_out = set(range(len(d.jstructure.scopes))) - set(part.trees_of)
                if left_out & d.jstructure.separators:
                    return part, left_out

    def test_witness_relations_skip_factors_no_subproblem_holds(self, rng):
        for _ in range(4):
            d, left_out = self._first_chain_alone(rng)
            relations = witness_j_relations(d, init_tree_params(d))
            assert set(relations) == set(d.trees_of)
            assert not set(relations) & left_out

    def test_averaging_a_separator_no_subproblem_holds_changes_nothing(self, rng):
        for _ in range(4):
            d, left_out = self._first_chain_alone(rng)
            params = init_tree_params(d)
            before = [{f: t.tobytes() for f, t in ts.items()} for ts in params.tables]
            for b in sorted(left_out & d.jstructure.separators):
                assert average_factor(d, params, b) is None
            assert [{f: t.tobytes() for f, t in ts.items()} for ts in params.tables] == before


class TestStagnationBehaviour:
    def test_more_passes_at_fixpoint_keep_bound_and_agreement(self, rng):
        done = 0
        for _ in range(6):
            d = random_decomposed(rng, n_nodes=5, max_labels=3, nested=True)
            state, phi = converge_trws(d)
            params = chain_state_tree_params(d, state)
            if not check_ewta(d, params).holds:
                continue
            for _ in range(3):
                new_phi = trws_chain_pass(d, state, reuse="none")
                assert new_phi == pytest.approx(phi, abs=1e-9)
                phi = new_phi
            params = chain_state_tree_params(d, state)
            assert check_ewta(d, params).holds
            done += 1
        assert done >= 4

    def test_stagnant_averaging_shrinks_argmin_sets(self, rng):
        # replicate the general sweep by hand to watch each averaging
        for _ in range(3):
            d = random_decomposed(rng, n_nodes=5, max_labels=2, nested=False)
            params = init_tree_params(d)
            for sweep in range(6):
                order = (
                    d.separator_order
                    if sweep % 2 == 0
                    else tuple(reversed(d.separator_order))
                )
                for b in order:
                    for t in d.trees_of.get(b, ()):
                        tree_min_marginal(d, params, t, b)
                    before_phi = bound(d, params)
                    rel_before = {
                        t: tree_argmin_relation(d, params, t)
                        for t in d.trees_of.get(b, ())
                    }
                    average_factor(d, params, b)
                    after_phi = bound(d, params)
                    if abs(after_phi - before_phi) <= 1e-12:
                        for t, rel in rel_before.items():
                            rel_after = tree_argmin_relation(d, params, t)
                            grew = rel_after.mask & ~rel.mask
                            assert not grew.any()


class TestExtractPrimal:
    def test_zero_model_all_zeros(self):
        model = build_model(
            [2, 2], [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), np.zeros(4))]
        )
        js = close_j(model.scopes, {(2, 0), (2, 1)})
        d = build_monotonic_chains(model, js)
        st = chain_state_init(d)
        trws_chain_pass(d, st)
        assert extract_primal(d, st) == (0, 0)

    def test_tree_instance_recovers_map(self, rng):
        for _ in range(5):
            model, js = path_instance(rng, n_nodes=6)
            d = build_monotonic_chains(model, js)
            st = chain_state_init(d)
            for _ in range(4):
                trws_chain_pass(d, st)
            labeling = extract_primal(d, st)
            _, value = brute_force_map(d.model)
            assert energy(d.model, labeling) == pytest.approx(value, abs=1e-9)

    def test_weak_duality(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            st = chain_state_init(d)
            phi = None
            for _ in range(3):
                phi = trws_chain_pass(d, st)
            labeling = extract_primal(d, st)
            assert energy(d.model, labeling) >= phi - 1e-9

    def test_weak_duality_against_per_factor_bound(self, rng):
        from homrf.baselines import msd_init, msd_pass

        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            st = msd_init(d.model)
            psi = None
            for _ in range(10):
                psi = msd_pass(d.model, d.jstructure, st)
            labeling = extract_primal(d, st.tables)
            assert energy(d.model, labeling) >= psi - 1e-9
