import copy
import itertools
import pickle

import numpy as np
import pytest

from homrf.decomposition import build_monotonic_chains
from homrf.errors import (
    DuplicateFactor,
    DuplicateNodeInScope,
    InvalidLabeling,
    InvalidMessageEdge,
    NonFiniteCost,
    NotNested,
    TableShapeMismatch,
)
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import (
    build_model,
    close_j,
    energy,
    message_edges,
    reparameterized_costs,
)

from conftest import random_instance


class TestBuildModel:
    def test_pairwise_factor_shape(self):
        m = build_model([2, 2], [((0, 1), [0, 1, 1, 0])])
        assert len(m.factors) == 1
        assert m.factors[0].table.size == 4
        assert m.factors[0].scope == (0, 1)

    def test_duplicate_node_in_scope(self):
        with pytest.raises(DuplicateNodeInScope):
            build_model([2, 2], [((0, 0), [0, 1, 1, 0])])

    def test_duplicate_scope(self):
        with pytest.raises(DuplicateFactor):
            build_model([2, 2], [((0, 1), np.zeros(4)), ((1, 0), np.zeros(4))])

    def test_non_finite_cost(self):
        with pytest.raises(NonFiniteCost):
            build_model([2], [((0,), [0.0, np.inf])])

    def test_table_length(self):
        with pytest.raises(TableShapeMismatch):
            build_model([2, 3], [((0, 1), np.zeros(5))])

    @pytest.mark.parametrize(
        "labels, factors, match",
        [
            ([2, 0], [((0,), [0, 1])], "at least one label"),
            ([2, 2], [((), [0.0])], "empty scope"),
            ([2, 2], [((0, 2), np.zeros(4))], "unknown node"),
            ([2, 2], [((-1, 0), np.zeros(4))], "unknown node"),
            ([2.7, 2], [((0,), [0, 1])], "label count 2.7 is not an integer"),
            ([2, float("nan")], [((0,), [0, 1])], "label count nan is not an integer"),
            ([2, float("inf")], [((0,), [0, 1])], "label count inf is not an integer"),
            ([2, "2"], [((0,), [0, 1])], "label count '2' is not an integer"),
            ([2, 2], [((0.9,), [0, 1])], "node 0.9 is not an integer"),
            ([2, 2], [((0,), [0, 1]), ((0, 1.2), np.zeros(4))], "node 1.2 is not an integer"),
        ],
    )
    def test_bad_description(self, labels, factors, match):
        with pytest.raises(ValueError, match=match):
            build_model(labels, factors)

    def test_integral_numbers_of_other_types_are_accepted(self):
        m = build_model([2.0, np.int64(3)], [((np.int64(1), 0.0), np.zeros(6))])
        assert m.label_counts == (2, 3) and m.scopes == ((0, 1),)
        assert all(type(x) is int for x in m.label_counts + m.scopes[0])

    def test_unsorted_scope_is_reindexed(self):
        # table given row-major over (1, 0): entry [x1, x0]
        table = np.arange(6.0).reshape(3, 2)
        m = build_model([2, 3], [((1, 0), table)])
        assert m.factors[0].scope == (0, 1)
        for x0 in range(2):
            for x1 in range(3):
                assert m.factors[0].table[x0, x1] == table[x1, x0]


    def test_one_array_for_two_factors_is_one_copy(self):
        table = np.arange(4.0)
        m = build_model([2, 2, 2], [((0, 1), table), ((1, 2), table), ((2, 0), table)])
        assert np.shares_memory(m.table(0), m.table(1))
        assert not np.shares_memory(m.table(0), table)
        # the same array read over a reversed scope is another table
        assert not np.shares_memory(m.table(0), m.table(2))
        assert m.table(2).tolist() == [[0.0, 2.0], [1.0, 3.0]]
        assert not m.table(0).flags.writeable
        table[:] = 9.0
        assert m.table(0).tolist() == m.table(1).tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_copies_and_pickles_stay_read_only(self):
        table = np.arange(4.0)
        m = build_model([2, 2, 2], [((0, 1), table), ((1, 2), table), ((0,), [0.0, 1.0])])
        d = build_monotonic_chains(m, close_j(m.scopes, {(0, 2)}))
        assert m.table(0) is m.table(1)
        copies = [copy.deepcopy(m), pickle.loads(pickle.dumps(m)), copy.deepcopy(d).model]
        for c in copies:
            assert c.table(0) is c.table(1)  # shared tables stay shared
            assert not any(f.table.flags.writeable for f in c.factors)
            with pytest.raises(ValueError):
                c.table(0)[0, 0] = 99.0
            assert c.table(0)[0, 0] == 0.0

    def test_shared_array_is_checked_per_factor(self):
        table = np.zeros(4)
        with pytest.raises(TableShapeMismatch, match="factor 1"):
            build_model([2, 2, 3], [((0, 1), table), ((1, 2), table)])
        table[1] = np.nan
        with pytest.raises(NonFiniteCost, match="factor 0"):
            build_model([2, 2], [((0, 1), table), ((0,), [0.0, 1.0])])

    def test_factors_from_a_generator_are_not_confused(self):
        # a table made for one factor and freed after it could lend its id
        # to a later one
        m = build_model([3] * 20, (((v,), [float(v)] * 3) for v in range(20)))
        assert [m.table(v)[0] for v in range(20)] == [float(v) for v in range(20)]


class TestEnergy:
    def test_zero_tables(self):
        m = build_model([2, 3], [((0,), np.zeros(2)), ((0, 1), np.zeros(6))])
        assert energy(m, (1, 2)) == 0.0

    def test_single_unary_lookup(self):
        m = build_model([2], [((0,), [3.0, 7.0])])
        assert energy(m, (1,)) == 7.0

    def test_out_of_range_label(self):
        m = build_model([2], [((0,), [3.0, 7.0])])
        with pytest.raises(InvalidLabeling):
            energy(m, (2,))
        with pytest.raises(InvalidLabeling):
            energy(m, (0, 0))

    @pytest.mark.parametrize(
        "labeling, match",
        [((0.5, 1.7), "label 0.5"), ((0, float("nan")), "label nan"), ((0, "1"), "label '1'")],
    )
    def test_non_integral_label(self, labeling, match):
        m = build_model([2, 3], [((0, 1), np.arange(6.0))])
        with pytest.raises(InvalidLabeling, match=f"{match} is not an integer"):
            energy(m, labeling)
        assert energy(m, (1.0, np.int64(2))) == 5.0

    def test_matches_nested_list_recomputation(self, rng):
        # second path: walk plain nested lists by successive indexing
        labels = [2, 3, 2, 3]
        factors = [
            ((0, 1), rng.uniform(-1, 1, 6)),
            ((1, 2, 3), rng.uniform(-1, 1, 18)),
            ((2,), rng.uniform(-1, 1, 2)),
        ]
        m = build_model(labels, factors)
        for _ in range(25):
            lab = [int(rng.integers(0, c)) for c in labels]
            expect = 0.0
            for f in m.factors:
                cell = f.table.tolist()
                for v in f.scope:
                    cell = cell[lab[v]]
                expect += cell
            assert energy(m, lab) == pytest.approx(expect, abs=1e-12)


def _scopes(*ss):
    return [tuple(s) for s in ss]


class TestCloseJ:
    def test_transitive_completion(self):
        # edges (abc -> bc), (bc -> b) imply (abc -> b)
        scopes = _scopes((0, 1, 2), (1, 2), (1,))
        js = close_j(scopes, {(0, 1), (1, 2)})
        assert (0, 2) in js.closed_edges

    def test_nested_target_completion(self):
        # edges (abc -> bc), (abc -> b) imply (bc -> b)
        scopes = _scopes((0, 1, 2), (1, 2), (1,))
        js = close_j(scopes, {(0, 1), (0, 2)})
        assert (1, 2) in js.closed_edges

    def test_already_closed_is_fixpoint(self):
        scopes = _scopes((0, 1), (0,), (1,))
        edges = {(0, 1), (0, 2)}
        js = close_j(scopes, edges)
        assert js.closed_edges == frozenset(edges)

    def test_not_nested_rejected(self):
        with pytest.raises(NotNested):
            close_j(_scopes((0, 1), (1, 2)), {(0, 1)})
        with pytest.raises(NotNested):
            close_j(_scopes((0, 1), (0, 1)), {(0, 1)})

    @pytest.mark.parametrize("edge", [(0, 2), (2, 1), (-1, 1)])
    def test_edge_to_unknown_factor_rejected(self, edge):
        with pytest.raises(ValueError, match="unknown factor"):
            close_j(_scopes((0, 1), (1,)), {edge})

    @pytest.mark.parametrize("edge", [(1.9, 0.2), (0, float("inf")), ("0", 1)])
    def test_non_integral_factor_id_rejected(self, edge):
        with pytest.raises(ValueError, match="factor id .* is not an integer"):
            close_j(_scopes((0, 1), (1,)), {edge})

    def test_integral_factor_ids_of_other_types_are_accepted(self):
        js = close_j(_scopes((0, 1), (1,)), {(np.int64(0), 1.0)})
        assert js.edges == {(0, 1)} and all(type(f) is int for f in next(iter(js.edges)))

    def test_closure_idempotent(self, rng):
        for _ in range(30):
            _, js = random_instance(rng, nested=True)
            again = close_j(js.scopes, js.closed_edges)
            assert again.closed_edges == js.closed_edges

    def test_outer_partition_same_on_closure(self, rng):
        for _ in range(30):
            _, js = random_instance(rng, nested=True)
            reclosed = close_j(js.scopes, js.closed_edges)
            assert reclosed.outer == js.outer
            assert reclosed.separators == js.separators

    def test_separator_locals_nest_as_their_scopes(self, rng):
        # J is closed, so of two separator locals b, c of one factor, c is a
        # local of b exactly when it is b or its scope lies inside b's: the
        # sweep compiler reads what an update adds off the scopes alone
        instances = [random_instance(rng, nested=k % 2 == 0) for k in range(40)]
        instances += [
            gen_stereo_second_order(5, 4, labels=3, seed=1, separators="pair"),
            gen_potts_2x2(5, 4, labels=3, seed=1, separators="pair"),
        ]
        nested = 0
        for model, js in instances:
            for js in (js, build_monotonic_chains(model, js).jstructure):
                sets = [set(scope) for scope in js.scopes]
                for a in range(len(js.scopes)):
                    seps = js.locals[a] & js.separators
                    for b, c in itertools.product(seps, seps):
                        assert (c in js.locals[b]) == (c == b or sets[c] < sets[b]), (a, b, c)
                        nested += c != b and c in js.locals[b]
        assert nested > 0

    def test_locals_include_self(self, rng):
        _, js = random_instance(rng, nested=True)
        for fid in range(len(js.scopes)):
            assert fid in js.locals[fid]


class TestMarginalConsistencyPreservation:
    def _marginals(self, model, p):
        # marginal of each factor scope from an explicit joint distribution
        out = []
        for f in model.factors:
            mu = np.zeros(f.table.shape)
            for lab, mass in p:
                mu[tuple(lab[v] for v in f.scope)] += mass
            out.append(mu)
        return out

    def test_joint_marginals_satisfy_closed_constraints(self, rng):
        # a vector of true marginals satisfies every original constraint and
        # must keep satisfying everything the closure adds
        for _ in range(20):
            model, js = random_instance(rng, n_nodes=5, max_labels=3, nested=True)
            shape = [model.label_counts[v] for v in range(model.node_count)]
            weights = rng.uniform(0.1, 1.0, size=int(np.prod(shape)))
            weights /= weights.sum()
            joint = list(zip(itertools.product(*map(range, shape)), weights))
            mu = self._marginals(model, joint)
            for a, b in js.edges:
                got = mu[a].sum(
                    axis=tuple(
                        i for i, v in enumerate(model.scope(a)) if v not in model.scope(b)
                    )
                )
                assert np.allclose(got, mu[b], atol=1e-12)
            for a, b in js.closed_edges:
                got = mu[a].sum(
                    axis=tuple(
                        i for i, v in enumerate(model.scope(a)) if v not in model.scope(b)
                    )
                )
                assert np.allclose(got, mu[b], atol=1e-12)


class TestReparameterizedCosts:
    def _simple(self):
        model = build_model(
            [2, 2],
            [((0,), [0.0, 0.0]), ((1,), [0.0, 0.0]), ((0, 1), [1.0, 2.0, 3.0, 4.0])],
        )
        js = close_j(model.scopes, {(2, 0), (2, 1)})
        return model, js

    def test_zero_messages_identity(self):
        model, js = self._simple()
        out = reparameterized_costs(model, js, {})
        for got, f in zip(out, model.factors):
            assert np.array_equal(got, f.table)

    def test_single_edge_shift(self):
        model, js = self._simple()
        m = np.array([1.0, 2.0])
        out = reparameterized_costs(model, js, {(2, 0): m})
        assert np.allclose(out[0], [1.0, 2.0])
        assert np.allclose(out[2], [[0.0, 1.0], [1.0, 2.0]])

    def test_invalid_edge_rejected(self):
        model, js = self._simple()
        with pytest.raises(InvalidMessageEdge):
            reparameterized_costs(model, js, {(0, 1): np.zeros(2)})

    def test_bad_message_values(self):
        model, js = self._simple()
        with pytest.raises(NonFiniteCost):
            reparameterized_costs(model, js, {(2, 0): np.array([np.nan, 0.0])})
        with pytest.raises(TableShapeMismatch):
            reparameterized_costs(model, js, {(2, 0): np.zeros(3)})

    def test_energy_invariance(self, rng):
        for _ in range(10):
            model, js = random_instance(rng, nested=True)
            msgs = {}
            for a, b in message_edges(js):
                msgs[(a, b)] = rng.uniform(-3, 3, size=model.table(b).shape)
            out = reparameterized_costs(model, js, msgs)
            for _ in range(10):
                lab = [int(rng.integers(0, c)) for c in model.label_counts]
                before = energy(model, lab)
                after = sum(
                    out[fid][tuple(lab[v] for v in model.scope(fid))]
                    for fid in range(len(model.factors))
                )
                assert after == pytest.approx(before, abs=1e-9)
