import copy
import dataclasses
import pickle

import numpy as np
import pytest

from homrf import decomposition as decomposition_module
from homrf.baselines import msd_sweep_order
from homrf.decomposition import (
    _eq15_holds,
    _joint,
    _sigma_keys,
    build_monotonic_chains,
    extend_order_to_separators,
    local_separator_window,
    sep_bounds,
    sigma_key,
    validate_decomposition,
)
from homrf.errors import HomrfError, MissingSeparatorFactor
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import build_model, close_j, energy
from homrf.oracle import brute_force_map
from homrf.trws import bound, chain_state_init, init_tree_params, solve_trws, trws_chain_pass

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


    def test_a_one_node_member_has_no_window(self, rng):
        # node 2 has only its unary factor, an outer factor chained on its own
        model, js = _pairwise_model(3, [(0, 1)], rng)
        d = build_monotonic_chains(model, js)
        c = d.model.factor_id((2,))
        assert (c,) in d.chains and c in d.jstructure.outer
        assert d.sep_minus[c] is None and d.sep_plus[c] is None
        assert local_separator_window(d, c) == ()


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

    @pytest.mark.parametrize(
        "order, match",
        [
            ((0, 1, 1, 3), "repeats a node"),
            ((0, 1, 2), "not a permutation"),
            ((0, 1, 2, 4), "not a permutation"),
        ],
    )
    def test_node_order_must_be_a_permutation(self, rng, order, match):
        model, js = _pairwise_model(4, [(0, 1), (1, 2), (2, 3)], rng)
        with pytest.raises(ValueError, match=match):
            build_monotonic_chains(model, js, order)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda d, order: dataclasses.replace(d, node_order=order),
            lambda d, order: extend_order_to_separators(d.jstructure, order),
            lambda d, order: sep_bounds(d.jstructure, order, d.chains[0], d.chains[0][0]),
            lambda d, order: msd_sweep_order(d.jstructure, order),
            lambda d, order: build_monotonic_chains(d.model, d.jstructure, order),
        ],
        ids=["replace", "extend_order_to_separators", "sep_bounds", "msd_sweep_order", "build"],
    )
    @pytest.mark.parametrize(
        "order, match",
        [
            ((0,) + tuple(range(15)), "repeats a node"),
            (tuple(range(15)), "not a permutation"),
            (tuple(range(15)) + (16,), "not a permutation"),
            (tuple(v + 0.5 for v in range(16)), r"node 0\.5 is not an integer"),
            (tuple(range(15)) + ("15",), "node '15' is not an integer"),
        ],
        ids=["repeat", "omit", "foreign", "non-integral", "string"],
    )
    def test_every_entry_point_checks_the_node_order(self, entry, order, match):
        d = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=2))
        with pytest.raises(ValueError, match=match):
            entry(d, order)

    def test_integral_node_order_of_other_types(self):
        model, js = gen_stereo_second_order(4, 4, labels=2)
        for order in (np.arange(16), np.arange(16.0)):
            d = build_monotonic_chains(model, js, order)
            assert d.node_order == tuple(range(16))
            assert all(type(v) is int for v in d.node_order)

    @pytest.mark.parametrize(
        "make, own_closures, keeps_model",
        [
            (lambda: gen_potts_2x2(6, 6, separators="pair", variant="pairwise"), 0, True),
            (lambda: gen_stereo_second_order(6, 5), 1, False),
        ],
        ids=["potts-pair", "stereo"],
    )
    def test_the_builder_closes_j_at_most_once(self, monkeypatch, make, own_closures, keeps_model):
        # closure never adds a target, so the builder chains on the raw edges
        # and closes once, after its additions; given no edges, only edges
        # are added to the Potts grid and its model is kept
        model, js = make()
        edgeless = close_j(model.scopes, ())
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        real = decomposition_module.close_j
        monkeypatch.setattr(decomposition_module, "close_j", counted)
        build_monotonic_chains(model, js)
        assert len(calls) == own_closures
        d = build_monotonic_chains(model, edgeless)
        assert len(calls) == own_closures + 1
        assert (d.model is model) == keeps_model

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

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: the builder chains (1,2), which becomes the joint separator "
        "of ((0,1,2), (1,2,3)), so the cover fails outer-cover",
    )
    def test_a_later_joint_separator_is_not_chained(self):
        # (1,2) is an outer factor when the chaining starts and the separator
        # between (0,1,2) and (1,2,3) after it; the builder returns the chains
        # ((0,1,2), (1,2,3)) and ((1,2),)
        scopes = [(0,), (1,), (2,), (3,), (0, 1, 2), (1, 2, 3), (1, 2)]
        model = build_model([2] * 4, [(s, np.zeros(2 ** len(s))) for s in scopes])
        edges = {(model.factor_id(s), model.factor_id((v,))) for s in scopes if len(s) > 1 for v in s}
        d = build_monotonic_chains(model, close_j(model.scopes, edges))
        report = validate_decomposition(d.model, d.jstructure, d)
        assert report.ok, report.codes()


def _reference_cover(model, jstructure, node_order):
    """The builder's first-fit chain cover by definition: each outer factor
    is tried on every open chain in turn, J is closed anew after each
    augmentation stage, and running intersection is checked over every pair
    of chain members.  Returns the chains, the added scopes and the final
    closure."""
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
    for _ in range(20):
        model, js = random_instance(rng, n_nodes=int(rng.integers(9, 13)), nested=True)
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
            for width, height in ((5, 4), (9, 7)):
                model, js = gen(width=width, height=height, labels=2, seed=3, separators=sep)
                yield model, js, tuple(range(model.node_count))
                yield model, js, tuple(rng.permutation(model.node_count).tolist())


class TestBuilderMatchesDefinition:
    def test_cover_and_derived_fields(self):
        for model, js, order in _builder_sample():
            d = build_monotonic_chains(model, js, order)
            chains, added, rjs = _reference_cover(model, js, order)
            assert d.chains == chains
            assert d.augmented_factors == added
            # the builder extends a closure; the reference closes from scratch
            for f in dataclasses.fields(rjs):
                assert getattr(d.jstructure, f.name) == getattr(rjs, f.name), f.name
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
            for new in (dataclasses.replace(d, chains=d.chains[:1], rho=(1.0,)), reordered):
                js, order, chains = new.jstructure, new.node_order, new.chains
                assert new.sep_minus == {a: sep_bounds(js, order, c, a)[0] for c in chains for a in c}
                assert new.sep_plus == {a: sep_bounds(js, order, c, a)[1] for c in chains for a in c}
                assert new.separator_order == extend_order_to_separators(js, order)


def _scope_pairs(rng, order):
    # (earlier, later) scope pairs over the nodes of `order` of every kind
    # the builder meets: disjoint, nested either way, equal, one-node, and
    # sharing 1 to 3 nodes with private nodes placed anywhere (most often
    # interleaved) or monotonic under `order`
    n = len(order)
    nodes = rng.permutation(n).tolist()
    a = sorted(nodes[: int(rng.integers(1, n))])
    rest = nodes[len(a) :]
    yield a, sorted(rest[: int(rng.integers(1, len(rest) + 1))])  # disjoint
    if len(a) > 1:
        sub = sorted(rng.choice(a, size=int(rng.integers(1, len(a))), replace=False).tolist())
        yield a, sub
        yield sub, a
    yield a, list(a)
    yield [int(rng.integers(n))], a
    yield a, [int(rng.integers(n))]
    for k in range(1, min(n, 3) + 1):
        picked = rng.permutation(n).tolist()
        shared = picked[:k]
        others = picked[k:]
        i = int(rng.integers(0, len(others) + 1))
        j = int(rng.integers(i, len(others) + 1))
        yield sorted(shared + others[:i]), sorted(shared + others[i:j])
        # the same counts placed monotonic under `order`: the earlier
        # factor's private nodes first, then the shared ones, then the later
        # factor's private nodes
        at = sorted(rng.choice(n, size=k + j, replace=False).tolist())
        placed = [order[p] for p in at]
        yield sorted(placed[: i + k]), sorted(placed[i:])


class TestRankTest:
    def test_joint_agrees_with_eq15(self):
        # the builder's test on sorted node positions and node sets against
        # its definition, under random node orders
        rng = np.random.default_rng(41)
        holds = fails = 0
        for _ in range(400):
            n = int(rng.integers(2, 9))
            order = rng.permutation(n).tolist()
            pos = {v: i for i, v in enumerate(order)}
            for prev, nxt in _scope_pairs(rng, order):
                ranks = [sorted(pos[v] for v in s) for s in (prev, nxt)]
                got = _joint(ranks[0], frozenset(prev), ranks[1], frozenset(nxt))
                want = _eq15_holds(tuple(prev), tuple(nxt), pos)
                assert (got is not None) == want, (prev, nxt, order)
                if want:
                    assert got == tuple(sorted(set(prev) & set(nxt)))
                    holds += 1
                else:
                    fails += 1
        assert holds > 200 and fails > 200

    def test_sigma_keys_are_sigma_key(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            pos = {v: i for i, v in enumerate(rng.permutation(n).tolist())}
            scopes = [
                tuple(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
                for _ in range(5)
            ]
            assert _sigma_keys(scopes, pos) == [sigma_key(s, pos) for s in scopes]


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

    def test_probabilities_not_one_per_chain(self):
        d = build_monotonic_chains(*gen_stereo_second_order(5, 3, labels=2, seed=0))
        assert len(d.chains) == 6
        with pytest.raises(HomrfError, match="3 chain probabilities for 6 chains"):
            dataclasses.replace(d, rho=d.rho[:3])
        with pytest.raises(HomrfError, match="6 chain probabilities for 5 chains"):
            dataclasses.replace(d, chains=d.chains[:5])

    def test_numpy_probabilities_run_as_python_floats(self):
        d = build_monotonic_chains(*gen_stereo_second_order(5, 4, labels=3))
        k = len(d.chains)
        e = dataclasses.replace(d, rho=tuple(np.full(k, 1 / k)))
        assert all(type(r) is float for r in e.rho)
        runs = []
        for x in (d, e):
            st = chain_state_init(x)
            phis = [trws_chain_pass(x, st, reuse="after") for _ in range(3)]
            runs.append((phis, [a.tobytes() for a in st.message_stacks + st.separator_stacks]))
        assert runs[0] == runs[1]

    # "0.5" is no probability either, though `float()` takes it, nor is an
    # int past the largest float
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.5, "x", None, "0.5", 10**400])
    def test_probability_not_finite_and_positive(self, bad):
        d = build_monotonic_chains(*gen_stereo_second_order(4, 4, labels=3))
        with pytest.raises(HomrfError, match=f"chain 1 has probability {bad!r}, not a finite"):
            dataclasses.replace(d, rho=(d.rho[0], bad) + d.rho[2:])

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
        dropped = dataclasses.replace(d, chains=d.chains[:1], rho=(1.0,))
        assert set(dropped.local_separators) == set(d.chains[0]) != set(d.local_separators)
        assert set(dropped.rho_factor) == set(d.tree_factors[0])

    def test_assigning_a_field_is_refused(self):
        # Assigning `rho` would leave every field derived from it on the old
        # value: on this model the 50-pass bound then read -6.534, above the
        # optimum -11.846.  A frozen decomposition refuses the assignment, and
        # `replace` (or a copy or pickle of its result) derives them anew.
        d = build_monotonic_chains(*random_instance(np.random.default_rng(7), nested=True))
        assert len(d.chains) == 3
        rho = tuple(np.array([1.0, 4.0, 9.0]) / 14)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.rho = rho
        assert d.rho == (1 / 3,) * 3
        e = dataclasses.replace(d, rho=rho)
        _, optimum = brute_force_map(d.model)
        phi = solve_trws(e, passes=50).bound
        assert phi <= optimum + 1e-9
        want = bound(e, init_tree_params(e))  # builds and caches the chain DP's stages
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin.rho_factor == e.rho_factor
            assert bound(twin, init_tree_params(twin)) == want
            assert solve_trws(twin, passes=50).bound == phi

    MAPPINGS = (
        "rho_factor", "trees_of", "sep_minus", "sep_plus", "local_separators", "node_pos", "sep_rank"
    )

    @pytest.mark.parametrize("name", MAPPINGS)
    def test_editing_a_derived_mapping_is_refused(self, name):
        # Halving every `rho_factor` entry in place made the 50-pass bound of
        # this model read -23.692 against the optimum -11.846, and the cached
        # chain programs read these mappings too.
        d = build_monotonic_chains(*random_instance(np.random.default_rng(7), nested=True))
        mapping = getattr(d, name)
        key, value = next(iter(mapping.items()))
        before = dict(mapping)
        for edit in (
            lambda: mapping.__setitem__(key, value),
            lambda: mapping.__delitem__(key),
            lambda: mapping.update({key: value}),
            lambda: mapping.setdefault(key, value),
            lambda: mapping.pop(key),
            lambda: mapping.popitem(),
            mapping.clear,
        ):
            with pytest.raises(TypeError, match="read-only"):
                edit()
        with pytest.raises(TypeError, match="read-only"):
            mapping |= {key: value}
        assert dict(getattr(d, name)) == before

    def test_mappings_round_trip_read_only_and_solve_alike(self):
        d = build_monotonic_chains(*random_instance(np.random.default_rng(7), nested=True))
        want = solve_trws(d, passes=50).bound
        for twin in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            for name in self.MAPPINGS:
                mapping = getattr(twin, name)
                assert type(mapping) is type(getattr(d, name))
                assert mapping == getattr(d, name)
                with pytest.raises(TypeError, match="read-only"):
                    mapping[next(iter(mapping))] = 0
            assert solve_trws(twin, passes=50).bound.hex() == want.hex()

    @pytest.mark.parametrize("chain", [(2, 0), (0, 2)])
    def test_one_node_member_of_a_longer_chain_is_refused(self, rng, chain):
        # (0,) has no window bounds, so no window that meets (0,1)'s.  Built
        # anyway, ((2, 0),) made `validate_decomposition` raise `KeyError`,
        # and ((0, 2),) made `solve_trws` and `bound` raise `TypeError`.
        model, js = _pairwise_model(2, [(0, 1)], rng)
        d = build_monotonic_chains(model, js)
        assert d.model.scopes == ((0,), (1,), (0, 1)) and d.chains == ((2,),)
        with pytest.raises(HomrfError, match="^chain 0: one-node member 0 has no window bounds$"):
            dataclasses.replace(d, chains=(chain,))

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
