"""The bitset closure of `homrf.model` against the edge-pair worklist it
replaced (`closure_reference`): equal J structures, equal decompositions from
the chain builder's closure of its augmented edges, and equal errors."""

import itertools

import numpy as np
import pytest

import closure_reference as reference
from homrf.decomposition import build_monotonic_chains
from homrf.errors import NotNested
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import close_j

from conftest import random_instance
from test_trws import schedule_inputs

FIELDS = ("scopes", "edges", "closed_edges", "outer", "separators", "locals")
DECOMPOSITION_FIELDS = ("chains", "separator_order", "message_edges", "augmented_factors")


def assert_same_closure(got, want):
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert all(type(f) is int for edge in got.closed_edges for f in edge)


def assert_same_build(model, js):
    got = build_monotonic_chains(model, js)
    want = reference.build_monotonic_chains(model, js)
    assert_same_closure(got.jstructure, want.jstructure)
    for name in DECOMPOSITION_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def model_inputs():
    rng = np.random.default_rng(39)
    for k in range(60):
        yield random_instance(rng, nested=bool(k % 2))
    for make in schedule_inputs():
        yield make()
    yield gen_stereo_second_order(6, 6, labels=3, seed=0)
    yield gen_stereo_second_order(6, 6, labels=3, seed=0, separators="pair")
    yield gen_potts_2x2(6, 6, labels=3, seed=0)
    yield gen_potts_2x2(6, 6, labels=3, seed=0, separators="pair", variant="pairwise")


def random_scopes(rng):
    """Up to 20 distinct node sets over at most 6 nodes; some as unsorted
    tuples, some with a second tuple of an equal node set, some with an
    empty scope, which lies inside every other."""
    n = int(rng.integers(2, 7))
    subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    picked = rng.choice(len(subsets), size=int(rng.integers(2, min(20, len(subsets)) + 1)), replace=False)
    scopes = [subsets[i] for i in picked]
    if rng.random() < 0.2:
        scopes = [tuple(rng.permutation(s).tolist()) for s in scopes]
        scopes.append(tuple(reversed(scopes[0])))
    if rng.random() < 0.1:
        scopes.insert(int(rng.integers(len(scopes) + 1)), ())
    return scopes


def nested_pairs(scopes):
    return [
        (a, b)
        for a, sa in enumerate(scopes)
        for b, sb in enumerate(scopes)
        if set(sb) < set(sa)
    ]


class TestSameClosure:
    def test_model_instances(self):
        for model, js in model_inputs():
            assert_same_closure(close_j(model.scopes, js.edges), reference.close_j(model.scopes, js.edges))
            edgeless = close_j(model.scopes, ())
            assert_same_closure(edgeless, reference.close_j(model.scopes, ()))

    def test_builder_extension(self):
        # the builder closes its augmented edges from scratch, whether handed
        # a closed J or none, and the reference build closed with the reference
        calls = reference.calls
        for model, js in model_inputs():
            assert_same_build(model, js)
            assert_same_build(model, close_j(model.scopes, ()))
        assert reference.calls > calls

    @pytest.mark.parametrize(
        "scopes, edges, added",
        [
            # (A, B), (A, C), C inside B: the nested-target rule
            ([(0, 1, 2), (0, 1), (0,)], {(0, 1), (0, 2)}, {(1, 2)}),
            # both rules, chained down a line of nested scopes
            ([(0, 1, 2, 3), (0, 1, 2), (0, 1), (0,)], {(0, 1), (1, 2), (0, 3)},
             {(0, 2), (1, 3), (2, 3)}),
            # a target shared by two sources: the second source's nested
            # target reaches the first through the shared one, whichever
            # source comes first
            ([(0, 1, 2), (0, 1, 3), (0, 1), (0,)], {(0, 2), (1, 2), (1, 3)}, {(2, 3), (0, 3)}),
            ([(0, 1, 3), (0, 1, 2), (0, 1), (0,)], {(1, 2), (0, 2), (0, 3)}, {(2, 3), (1, 3)}),
            # and again one level further down
            ([(0, 1, 2, 4), (0, 1, 2, 3), (0, 1, 2), (0, 1), (0,)],
             {(0, 2), (1, 2), (2, 3), (1, 4)}, {(0, 3), (1, 3), (2, 4), (3, 4), (0, 4)}),
        ],
    )
    def test_rules_fire_and_chain(self, scopes, edges, added):
        js = close_j(scopes, edges)
        assert js.closed_edges == edges | added
        assert_same_closure(js, reference.close_j(scopes, edges))

    def test_random_edge_sets(self):
        rng = np.random.default_rng(3939)
        fired = 0
        for _ in range(400):
            scopes = random_scopes(rng)
            pairs = nested_pairs(scopes)
            edges = {e for e in pairs if rng.random() < rng.uniform(0.05, 0.6)}
            js = close_j(scopes, edges)
            assert_same_closure(js, reference.close_j(scopes, edges))
            fired += js.closed_edges != js.edges
        assert fired > 100

    @pytest.mark.parametrize("with_empty", [False, True])
    def test_large_random_edge_sets(self, with_empty):
        rng = np.random.default_rng(3942)
        subsets = [s for r in range(1, 6) for s in itertools.combinations(range(9), r)]
        fired = 0
        for _ in range(12):
            picked = rng.choice(len(subsets), size=int(rng.integers(65, 200)), replace=False)
            scopes = [subsets[i] for i in picked] + ([()] if with_empty else [])
            edges = {e for e in nested_pairs(scopes) if rng.random() < 0.05}
            js = close_j(scopes, edges)
            assert_same_closure(js, reference.close_j(scopes, edges))
            fired += js.closed_edges != js.edges
        assert fired >= 9

    def test_edge_containers_and_id_types(self):
        scopes = [(0, 1, 2), (0, 1), (0,), (1,)]
        want = reference.close_j(scopes, {(0, 1), (0, 2), (1, 3)})
        for edges in (
            [[0, 1], (0, 2), (1, 3), (0, 2)],
            ((np.int64(0), 1.0), (0, np.int32(2)), (1, 3)),
            ((a, b) for a, b in [(0, 1), (0, 2), (1, 3)]),
            frozenset({(False, 1), (0, 2), (1, 3)}),
        ):
            assert_same_closure(close_j(scopes, edges), want)


def _error(close, scopes, edges):
    with pytest.raises(Exception) as exc:
        close(scopes, edges)
    return type(exc.value), str(exc.value)


class TestSameErrors:
    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 0)],  # not nested
            [(0, 0)],  # a scope is not strictly inside itself
            [(0, 1), (2, 0), (1, 5)],  # the first bad edge in iteration order
            [(0, 1), (1, 5), (2, 0)],
            [(0, 2), (1.5, 2), (-1, 2)],
            [(0, 2), ("0", 2)],
            [(0, float("nan"))],
            [(0, float("inf"))],
            [(0, 2), (0, 9)],
            [(-1, 2)],
            [(0, 1, 2)],  # not a pair
            [(0,)],
        ],
    )
    def test_listed_bad_edges(self, edges):
        scopes = [(0, 1), (0,), (1,)]
        assert _error(close_j, scopes, edges) == _error(reference.close_j, scopes, edges)

    def test_random_bad_edge_sets(self):
        rng = np.random.default_rng(3941)
        kinds = (
            lambda n: (int(rng.integers(n)), int(rng.integers(n))),
            lambda n: (int(rng.integers(-2, n + 2)), int(rng.integers(n))),
            lambda n: (float(rng.integers(n)) + 0.5, int(rng.integers(n))),
            lambda n: (int(rng.integers(n)), float(rng.integers(n))),
        )
        raised = 0
        for _ in range(300):
            scopes = random_scopes(rng)
            n = len(scopes)
            edges = {e for e in nested_pairs(scopes) if rng.random() < 0.3}
            edges |= {kinds[int(rng.integers(len(kinds)))](n) for _ in range(int(rng.integers(1, 4)))}
            try:
                want = reference.close_j(scopes, edges)
            except Exception as exc:
                raised += 1
                assert _error(close_j, scopes, edges) == (type(exc), str(exc))
            else:
                assert_same_closure(close_j(scopes, edges), want)
        assert raised > 100

    def test_not_nested_is_its_own_class(self):
        with pytest.raises(NotNested, match=r"edge \(1, 0\): scope \(0,\) is not strictly inside \(1,\)"):
            close_j([(0,), (1,)], [(1, 0)])
