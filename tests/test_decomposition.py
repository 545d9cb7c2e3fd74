import dataclasses

import numpy as np
import pytest

from homrf.decomposition import (
    _eq15_holds,
    build_monotonic_chains,
    extend_order_to_separators,
    local_separator_window,
    sep_bounds,
    sigma_key,
    validate_decomposition,
)
from homrf.errors import MissingSeparatorFactor
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import build_model, close_j, energy

from conftest import (
    figure_chain_instance,
    path_instance,
    random_decomposed,
    random_instance,
    submodular_grid,
)


def _pairwise_model(n, scopes, rng):
    factors = [((v,), rng.uniform(-1, 1, 2)) for v in range(n)]
    for s in scopes:
        factors.append((s, rng.uniform(-1, 1, 2 ** len(s))))
    model = build_model([2] * n, factors)
    edges = set()
    for fid, scope in enumerate(model.scopes):
        if len(scope) >= 2:
            for v in scope:
                edges.add((fid, model.factor_id((v,))))
    return model, close_j(model.scopes, edges)


class TestSeparatorOrder:
    def test_overlapping_chain_order(self, rng):
        model, js = figure_chain_instance(rng)
        order = extend_order_to_separators(js, tuple(range(5)))
        scopes = [js.scope(f) for f in order]
        assert scopes == [(0,), (1,), (1, 2), (2,), (3,), (4,)]

    def test_singletons_follow_node_order(self, rng):
        model, js = _pairwise_model(4, [(0, 1), (1, 2), (2, 3)], rng)
        order = extend_order_to_separators(js, (0, 1, 2, 3))
        assert [js.scope(f) for f in order] == [(0,), (1,), (2,), (3,)]

    def test_shared_min_breaks_on_max(self, rng):
        factors = [((0, 1, 2), rng.uniform(-1, 1, 8))]
        factors += [((0, 1), np.zeros(4)), ((0, 2), np.zeros(4))]
        model = build_model([2, 2, 2], factors)
        js = close_j(model.scopes, {(0, 1), (0, 2)})
        order = extend_order_to_separators(js, (0, 1, 2))
        assert [js.scope(f) for f in order] == [(0, 1), (0, 2)]


class TestSepBounds:
    def test_overlapping_chain_bounds(self, rng):
        model, js = figure_chain_instance(rng)
        d = build_monotonic_chains(model, js)
        assert len(d.chains) == 1
        abc, bcd, de = d.chains[0]
        assert js.scope(abc) == (0, 1, 2)
        assert d.jstructure.scope(d.sep_minus[abc]) == (0,)
        assert d.jstructure.scope(d.sep_plus[abc]) == (1, 2)
        assert d.jstructure.scope(d.sep_minus[bcd]) == (1, 2)
        assert d.jstructure.scope(d.sep_plus[bcd]) == (3,)
        assert d.jstructure.scope(d.sep_minus[de]) == (3,)
        assert d.jstructure.scope(d.sep_plus[de]) == (4,)

    def test_single_factor_chain(self, rng):
        model, js = _pairwise_model(4, [(0, 1), (2, 3)], rng)
        d = build_monotonic_chains(model, js)
        assert sorted(len(c) for c in d.chains) == [1, 1]
        for chain in d.chains:
            (a,) = chain
            scope = d.jstructure.scope(a)
            assert d.jstructure.scope(d.sep_minus[a]) == (scope[0],)
            assert d.jstructure.scope(d.sep_plus[a]) == (scope[-1],)

    def test_two_factor_chain_shares_joint(self, rng):
        model, js = _pairwise_model(3, [(0, 1), (1, 2)], rng)
        d = build_monotonic_chains(model, js)
        (chain,) = d.chains
        ab, bc = chain
        assert d.sep_plus[ab] == d.sep_minus[bc]
        assert d.jstructure.scope(d.sep_plus[ab]) == (1,)

    def test_decomposition_bounds_match_public_sep_bounds(self, rng):
        for _ in range(20):
            model, js = random_instance(rng, nested=True)
            order = rng.permutation(model.node_count)
            d = build_monotonic_chains(model, js, order)
            for chain in d.chains:
                for a in chain:
                    got = sep_bounds(d.jstructure, d.node_order, chain, a)
                    assert got == (d.sep_minus[a], d.sep_plus[a])

    def test_missing_separator_factor(self, rng):
        model, js = _pairwise_model(3, [(0, 1), (1, 2)], rng)
        # drop the singleton factor for node 0 from the lookup universe
        scopes = list(js.scopes)
        scopes[model.factor_id((0,))] = (99,) if False else scopes[model.factor_id((0,))]
        bad = dataclasses.replace(js, scopes=tuple(
            s if s != (0,) else (0, 99) for s in js.scopes
        ))
        with pytest.raises(MissingSeparatorFactor):
            sep_bounds(bad, tuple(range(3)) + (99,), [model.factor_id((0, 1))], model.factor_id((0, 1)))

    def test_window_bound_that_is_not_a_separator(self, rng):
        model, js = _pairwise_model(2, [(0, 1)], rng)
        d = build_monotonic_chains(model, js)
        ab, b = model.factor_id((0, 1)), model.factor_id((1,))
        # without the edge into it, (1,) is an outer factor, not a separator
        doctored = close_j(js.scopes, set(js.edges) - {(ab, b)})
        assert b in doctored.outer
        with pytest.raises(MissingSeparatorFactor, match="not a separator"):
            dataclasses.replace(d, jstructure=doctored)


class TestWindows:
    def test_overlapping_chain_windows(self, rng):
        model, js = figure_chain_instance(rng)
        d = build_monotonic_chains(model, js)
        abc, bcd, de = d.chains[0]
        js2 = d.jstructure
        assert [js2.scope(b) for b in local_separator_window(d, abc)] == [(0,), (1,), (1, 2)]
        assert [js2.scope(b) for b in local_separator_window(d, bcd)] == [(1, 2), (2,), (3,)]
        assert [js2.scope(b) for b in local_separator_window(d, de)] == [(3,), (4,)]

    def test_window_excludes_nodes_past_the_pair(self, rng):
        model, js = figure_chain_instance(rng)
        d = build_monotonic_chains(model, js)
        abc = d.chains[0][0]
        c_single = d.model.factor_id((2,))
        assert c_single not in local_separator_window(d, abc)

    def test_pairwise_window_is_both_endpoints(self, rng):
        model, js = _pairwise_model(4, [(0, 1), (2, 3)], rng)
        d = build_monotonic_chains(model, js)
        for chain in d.chains:
            (a,) = chain
            scope = d.jstructure.scope(a)
            assert [d.jstructure.scope(b) for b in local_separator_window(d, a)] == [
                (scope[0],),
                (scope[1],),
            ]


class TestBuildChains:
    def test_path_becomes_single_chain(self, rng):
        model, js = _pairwise_model(4, [(0, 1), (1, 2), (2, 3)], rng)
        d = build_monotonic_chains(model, js)
        assert len(d.chains) == 1
        assert [d.jstructure.scope(a) for a in d.chains[0]] == [(0, 1), (1, 2), (2, 3)]

    def test_disjoint_factors_stay_apart(self, rng):
        model, js = _pairwise_model(4, [(0, 1), (2, 3)], rng)
        d = build_monotonic_chains(model, js)
        assert len(d.chains) == 2

    def test_grid_chains_follow_the_greedy_rule(self, rng):
        # 2x2 grid: (0,1) cannot absorb (0,2) since node 0 sits on the wrong
        # side of the shared separator, so the cover pairs each row edge with
        # the column edge it can extend
        model, js = _pairwise_model(4, [(0, 1), (2, 3), (0, 2), (1, 3)], rng)
        d = build_monotonic_chains(model, js)
        got = sorted(tuple(d.jstructure.scope(a) for a in c) for c in d.chains)
        assert got == [((0, 1), (1, 3)), ((0, 2), (2, 3))]
        assert validate_decomposition(d.model, d.jstructure, d).ok

    def test_augments_missing_singletons(self, rng):
        factors = [((0, 1), rng.uniform(-1, 1, 4))]
        model = build_model([2, 2], factors)
        js = close_j(model.scopes, set())
        d = build_monotonic_chains(model, js)
        assert (0,) in d.augmented_factors and (1,) in d.augmented_factors
        assert validate_decomposition(d.model, d.jstructure, d).ok
        # zero-cost additions leave energies alone
        for lab in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert energy(d.model, lab) == energy(model, lab)

    def test_augments_missing_pair_separator(self, rng):
        factors = [
            ((0, 1, 2), rng.uniform(-1, 1, 8)),
            ((1, 2, 3), rng.uniform(-1, 1, 8)),
        ]
        model = build_model([2] * 4, factors)
        js = close_j(model.scopes, set())
        d = build_monotonic_chains(model, js)
        assert len(d.chains) == 1
        assert (1, 2) in d.augmented_factors
        assert validate_decomposition(d.model, d.jstructure, d).ok

    def test_probabilities(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            assert sum(d.rho) == pytest.approx(1.0, abs=1e-12)
            for fid, ts in d.trees_of.items():
                assert d.rho_factor[fid] == pytest.approx(
                    sum(d.rho[t] for t in ts), abs=1e-12
                )


def _reference_cover(model, jstructure, node_order):
    """The builder's first-fit chain cover by definition: J is closed anew
    after each augmentation stage, and running intersection is checked over
    every pair of chain members.  Returns the chains, the added scopes and
    the final closure."""
    pos = {v: i for i, v in enumerate(node_order)}
    scopes = list(model.scopes)
    scopes += [(v,) for v in range(model.node_count) if (v,) not in scopes]
    edges = set(jstructure.edges)
    for fid, s in enumerate(scopes):
        if len(s) >= 2:
            edges.update((fid, scopes.index((v,))) for v in s)
    js = close_j(scopes, edges)
    chains = []
    for a in sorted(js.outer, key=lambda f: sigma_key(js.scope(f), pos)):
        new = set(js.scope(a))
        for chain in chains:
            members = [set(js.scope(f)) for f in chain]
            rip = all(
                members[i] & new <= members[j]
                for i in range(len(chain))
                for j in range(i + 1, len(chain))
            )
            if _eq15_holds(js.scope(chain[-1]), js.scope(a), pos) and rip:
                chain.append(a)
                break
        else:
            chains.append([a])
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            s = tuple(sorted(set(js.scope(a)) & set(js.scope(b))))
            if s not in scopes:
                scopes.append(s)
            edges.update({(a, scopes.index(s)), (b, scopes.index(s))})
    added = tuple(scopes[len(model.scopes) :])
    return tuple(tuple(c) for c in chains), added, close_j(scopes, edges)


def _builder_sample():
    rng = np.random.default_rng(6)
    for _ in range(30):
        model, js = random_instance(rng, nested=True)
        yield model, js, tuple(rng.permutation(model.node_count).tolist())
    for _ in range(10):
        model, js = random_instance(rng, max_arity=3)
        yield model, js, tuple(range(model.node_count))
    for _ in range(5):
        # no singleton factors or edges, and node n - 1 in no factor: the
        # builder adds singletons, edges and a chain of their own
        n = int(rng.integers(5, 8))
        scopes = {tuple(sorted(rng.choice(n - 1, size=3, replace=False).tolist())) for _ in range(4)}
        model = build_model([2] * n, [(s, rng.uniform(-1, 1, 8)) for s in sorted(scopes)])
        yield model, close_j(model.scopes, set()), tuple(rng.permutation(n).tolist())
        # singletons present but no edges into them
        model, _ = random_instance(rng, max_arity=3)
        yield model, close_j(model.scopes, set()), tuple(range(model.node_count))
    for make in (path_instance, lambda r: submodular_grid(r, 4, 3)):
        model, js = make(rng)
        yield model, js, tuple(range(model.node_count))
    for sep in ("singleton", "pair"):
        for gen in (gen_stereo_second_order, gen_potts_2x2):
            model, js = gen(width=5, height=4, labels=2, seed=3, separators=sep)
            yield model, js, tuple(range(model.node_count))
            yield model, js, tuple(rng.permutation(model.node_count).tolist())


class TestBuilderMatchesDefinition:
    def test_cover_and_derived_fields(self):
        for model, js, order in _builder_sample():
            d = build_monotonic_chains(model, js, order)
            chains, added, rjs = _reference_cover(model, js, order)
            assert d.chains == chains
            assert d.augmented_factors == added
            got = d.jstructure
            assert got.scopes == rjs.scopes
            assert got.edges == rjs.edges and got.closed_edges == rjs.closed_edges
            assert got.outer == rjs.outer and got.locals == rjs.locals
            assert d.sep_minus == {a: sep_bounds(rjs, order, c, a)[0] for c in chains for a in c}
            assert d.sep_plus == {a: sep_bounds(rjs, order, c, a)[1] for c in chains for a in c}
            assert d.separator_order == extend_order_to_separators(rjs, order)
            ref = dataclasses.replace(d, jstructure=rjs, chains=chains)
            assert d.message_edges == ref.message_edges
            assert d.rho == tuple([1.0 / len(chains)] * len(chains))

    def test_replace_rederives_windows_and_order(self, rng):
        for _ in range(10):
            d = random_decomposed(rng, nested=True)
            reordered = dataclasses.replace(d, node_order=d.node_order[::-1])
            assert reordered.separator_order != d.separator_order
            for new in (dataclasses.replace(d, chains=d.chains[:1]), reordered):
                js, order, chains = new.jstructure, new.node_order, new.chains
                assert new.sep_minus == {a: sep_bounds(js, order, c, a)[0] for c in chains for a in c}
                assert new.sep_plus == {a: sep_bounds(js, order, c, a)[1] for c in chains for a in c}
                assert new.separator_order == extend_order_to_separators(js, order)


class TestValidate:
    def test_random_instances_are_clean(self, rng):
        for _ in range(50):
            d = random_decomposed(rng, nested=True)
            report = validate_decomposition(d.model, d.jstructure, d)
            assert report.ok, report.violations

    def test_reversed_chain_breaks_monotonicity(self, rng):
        model, js = _pairwise_model(3, [(0, 1), (1, 2)], rng)
        d = build_monotonic_chains(model, js)
        bad = dataclasses.replace(d, chains=(tuple(reversed(d.chains[0])),))
        report = validate_decomposition(bad.model, bad.jstructure, bad)
        assert "monotonicity" in report.codes()
        assert "window-bounds" in report.codes()

    def test_joint_separator_not_local_to_the_next_member(self, rng):
        model, js = _pairwise_model(3, [(0, 1), (1, 2)], rng)
        d = build_monotonic_chains(model, js)
        first, second = d.chains[0]
        doctored = close_j(js.scopes, set(js.edges) - {(second, d.sep_plus[first])})
        report = validate_decomposition(d.model, doctored, d)
        assert "neighbor-separator" in report.codes()

    def test_probabilities_not_summing_to_one(self, rng):
        model, js = _pairwise_model(3, [(0, 1), (1, 2)], rng)
        d = build_monotonic_chains(model, js)
        report = validate_decomposition(d.model, d.jstructure, dataclasses.replace(d, rho=(0.5,)))
        assert report.codes() == ["probabilities"]

    def test_reordered_row_chain_breaks_running_intersection(self):
        d = build_monotonic_chains(*gen_stereo_second_order(5, 3, labels=2, seed=0))
        row = tuple(d.model.factor_id(s) for s in [(5, 6, 7), (6, 7, 8), (7, 8, 9)])
        t = d.chains.index(row)
        # (5,6,7) and (7,8,9) meet in node 7 outside the (6,7,8) after them
        chains = d.chains[:t] + ((row[0], row[2], row[1]),) + d.chains[t + 1 :]
        bad = dataclasses.replace(d, chains=chains)
        codes = validate_decomposition(bad.model, bad.jstructure, bad).codes()
        assert {"running-intersection", "monotonicity"} <= set(codes)

    def test_dropped_chain_leaves_separators_uncovered(self):
        d = build_monotonic_chains(*gen_stereo_second_order(5, 3, labels=2, seed=0))
        k = len(d.chains) - 1
        bad = dataclasses.replace(d, chains=d.chains[:k], rho=(1 / k,) * k)
        report = validate_decomposition(bad.model, bad.jstructure, bad)
        assert report.codes() == ["outer-cover", "separator-cover"]

    def test_replace_rederives_windows_and_probabilities(self, rng):
        model, js = _pairwise_model(3, [(0, 1), (1, 2)], rng)
        d = build_monotonic_chains(model, js)
        (chain,) = d.chains
        split = dataclasses.replace(d, chains=((chain[0],), (chain[1],)), rho=(0.5, 0.5))
        assert set(d.rho_factor.values()) == {1.0}
        assert split.rho_factor[d.model.factor_id((1,))] == 1.0
        assert set(split.rho_factor.values()) == {0.5, 1.0}
        assert split.tree_factors[0] | split.tree_factors[1] == d.tree_factors[0]

        model, js = _pairwise_model(4, [(0, 1), (2, 3)], rng)
        d = build_monotonic_chains(model, js)
        assert len(d.chains) == 2
        # the merged chain's members share no nodes, so no joint separator
        with pytest.raises(MissingSeparatorFactor):
            dataclasses.replace(d, chains=(d.chains[0] + d.chains[1],), rho=(1.0,))
        dropped = dataclasses.replace(d, chains=d.chains[:1])
        assert set(dropped.local_separators) == set(d.chains[0]) != set(d.local_separators)
        assert set(dropped.rho_factor) == set(d.tree_factors[0])

    def test_missing_singleton_edge_is_flagged(self, rng):
        model, js = _pairwise_model(2, [(0, 1)], rng)
        d = build_monotonic_chains(model, js)
        ab = d.model.factor_id((0, 1))
        b = d.model.factor_id((1,))
        doctored = close_j(
            d.jstructure.scopes, set(d.jstructure.edges) - {(ab, b)}
        )
        report = validate_decomposition(d.model, doctored, d)
        assert "singleton-local" in report.codes()

    def test_window_union_covers_tree_separators(self, rng):
        # exhaustive equality of the per-chain separator set and its windows
        for _ in range(20):
            d = random_decomposed(rng, nested=True)
            js = d.jstructure
            for t, chain in enumerate(d.chains):
                union = set()
                for a in chain:
                    union |= set(d.local_separators[a])
                want = {c for c in d.tree_factors[t] if c in js.separators}
                assert union == want

    def test_nested_tree_members_are_locals(self, rng):
        for _ in range(20):
            d = random_decomposed(rng, nested=True)
            js = d.jstructure
            for t in range(len(d.chains)):
                fs = sorted(d.tree_factors[t])
                for a in fs:
                    for b in fs:
                        if a != b and set(js.scope(b)) < set(js.scope(a)):
                            assert b in js.locals[a]

    def test_window_bounds_chain_through_each_chain(self, rng):
        for _ in range(20):
            d = random_decomposed(rng, nested=True)
            rank = d.sep_rank
            for chain in d.chains:
                if d.sep_minus[chain[0]] is None:
                    continue
                prev = None
                for a in chain:
                    lo, hi = d.sep_minus[a], d.sep_plus[a]
                    assert rank[lo] <= rank[hi]
                    if prev is not None:
                        assert lo == prev
                        assert rank[hi] > rank[prev]
                    prev = hi
