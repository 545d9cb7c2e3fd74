"""The compiled chain program (`homrf._plan.ChainProgram`) against the chain
DP and the subgradient step one chain at a time (`chain_dp_reference`),
byte for byte."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import chain_dp_reference as reference
from homrf import trws
from homrf._plan import chain_program, chain_stages
from homrf.baselines import solve_subgradient
from homrf.decomposition import build_monotonic_chains
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.model import build_model, close_j
from homrf.errors import HomrfError
from homrf.trws import REUSE_MODES, bound, chain_state_init, chain_state_tree_params, init_tree_params
from homrf.trws import tree_argmin, trws_chain_pass

from conftest import path_instance, random_instance
from test_trws import hand_cut_cover, schedule_instances


def _two_chains(unaries, pair_02=(0.0,) * 4):
    # the model of `test_agreeing_trees_do_not_move`: chains (0,1) and (0,2)
    # share node 0, with a zero (0,1) table and the given other tables
    model = build_model(
        [2, 2, 2],
        [((v,), unary) for v, unary in enumerate(unaries)]
        + [((0, 1), np.zeros(4)), ((0, 2), pair_02)],
    )
    edges = set()
    for fid, scope in enumerate(model.scopes):
        if len(scope) == 2:
            for v in scope:
                edges.add((fid, model.factor_id((v,))))
    return build_monotonic_chains(model, close_j(model.scopes, edges))


def _weighted(d):
    # unequal chain probabilities, so the order a shared factor's average
    # sums them in shows in its bits
    weights = np.arange(1.0, len(d.chains) + 1) ** 2
    return dataclasses.replace(d, rho=tuple(weights / weights.sum()))


MODELS = {
    "nested": lambda: build_monotonic_chains(*random_instance(np.random.default_rng(11), nested=True)),
    "nested-weighted": lambda: _weighted(
        build_monotonic_chains(*random_instance(np.random.default_rng(18), nested=True))
    ),
    "plain": lambda: build_monotonic_chains(*random_instance(np.random.default_rng(12))),
    "stereo-8x8": lambda: build_monotonic_chains(*gen_stereo_second_order(8, 8, labels=4, seed=1)),
    "potts-8x8": lambda: build_monotonic_chains(
        *gen_potts_2x2(8, 8, labels=3, block_weight=0.5, variant="pairwise", separators="pair", seed=1)
    ),
    # one chain of several members: no shared factor to step
    "path": lambda: build_monotonic_chains(*path_instance(np.random.default_rng(13), n_nodes=7)),
    # every table zero: each minimizer is the first of ties
    "ties": lambda: _two_chains([[0.0, 0.0]] * 3),
    "agreeing": lambda: _two_chains([[0.0, 10.0]] * 3),
    # chain (0,1) ties everywhere, and chain (0,2) picks node 0's second
    # label: a step moves only if the tie goes to the first label
    "split-ties": lambda: _two_chains([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]], (0.0, 5.0, 5.0, 0.0)),
}


def _bytes(params):
    return [(f, t.shape, t.tobytes()) for tables in params.tables for f, t in tables.items()]


def _hex(xs):
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("name", MODELS)
def test_subgradient_steps_match_the_reference(name):
    d = MODELS[name]()
    if name == "stereo-8x8":
        assert any(len(c) > 1 for c in d.chains) and len(d.chains) > 1
    if name == "nested-weighted":
        assert max(map(len, d.trees_of.values())) >= 3
    bounds, state = solve_subgradient(d, 1.0, passes=40)
    want, ref = reference.solve_subgradient(d, 1.0, 40)
    assert _hex(bounds) == _hex(want)
    assert state.meff == ref.meff
    assert (state.best.hex(), state.inferior) == (ref.best.hex(), ref.inferior)
    assert _bytes(state.params) == _bytes(ref.params)
    assert _bytes(state.best_params) == _bytes(ref.best_params)
    assert state.best_params.cells == ref.best_params.cells


def test_bound_and_tree_argmin_match_the_reference():
    # on the initial split and after each of three TRW-S passes
    for make in schedule_instances():
        d = make()
        st = chain_state_init(d)
        params = [init_tree_params(d)]
        for _ in range(3):
            trws_chain_pass(d, st)
            params.append(chain_state_tree_params(d, st))
        for p in params:
            assert bound(d, p).hex() == reference.bound(d, p).hex()
            for t in range(len(d.chains)):
                value, labeling = tree_argmin(d, p, t)
                want, want_labeling = reference.tree_argmin(d, p, t)
                assert value.hex() == want.hex()
                assert list(labeling.items()) == list(want_labeling.items())


def test_tables_of_another_size_raise_through_bound():
    d = build_monotonic_chains(*path_instance(np.random.default_rng(0)))
    params = init_tree_params(d)
    t, f = 0, max(params.tables[0])
    params.tables[t][f] = np.zeros(params.tables[t][f].size + 1)
    want = sum(ts[c].size for ts in init_tree_params(d).tables for c in ts)
    with pytest.raises(ValueError, match=f"the tables hold {want + 1} cells, not {want}"):
        bound(d, params)


def test_a_chainless_decomposition_bounds_zero():
    d = build_monotonic_chains(*path_instance(np.random.default_rng(0)))
    empty = dataclasses.replace(d, chains=(), rho=())
    assert bound(empty, init_tree_params(empty)) == 0.0


class _ReferenceProgram:
    # a `ChainProgram` stand-in that solves each chain with the reference DP

    def __init__(self, d, chains=None):
        self.d = d
        self.chains = range(len(d.chains)) if chains is None else chains
        self.cells = sum([math.prod(s.shape) for t in self.chains for s in chain_stages(d, t)])

    def gather(self, tables):
        return tables

    def run(self, tables):
        return np.array([reference.chain_dp(self.d, tables[i], t)[0] for i, t in enumerate(self.chains)])


def _separator_last(seed):
    # a nested model's outer factors as chains of one member, and last a
    # chain (a, s) of an outer factor a and a separator s of two or more
    # nodes inside it: s's stage has no terms of its own
    d = build_monotonic_chains(*random_instance(np.random.default_rng(seed), nested=True))
    js = d.jstructure
    for a in sorted(js.outer):
        for s in sorted(js.separators & js.locals[a]):
            if len(js.scopes[s]) > 1:
                chains = tuple((b,) for b in sorted(js.outer) if b != a) + ((a, s),)
                return dataclasses.replace(d, chains=chains, rho=(1 / len(chains),) * len(chains))
    return None


def _fallback_covers():
    covers = [d for d in map(_separator_last, range(20)) if d is not None]
    for multi_node in (False, True):
        for seed in range(250):
            try:
                covers.append(hand_cut_cover(seed, multi_node))
            except HomrfError:
                pass
    return covers


def test_bound_and_fallback_bound_match_the_reference_on_hand_cut_covers(monkeypatch):
    # `bound` and the TRW-S pass bound, whose fallback re-solves the chains
    # with a member that is not an outer factor, on covers the builder does
    # not make; each pass runs the program again on its stage buffer
    covers = _fallback_covers()
    falls_back = [any(a not in d.jstructure.outer for chain in d.chains for a in chain) for d in covers]
    assert sum(falls_back) >= 50
    for d in covers:
        got, want = [], []
        for reuse in REUSE_MODES:
            for solved, program in ((got, chain_program), (want, _ReferenceProgram)):
                monkeypatch.setattr(trws, "chain_program", program)
                st = chain_state_init(d)
                solved += [trws_chain_pass(d, st, reuse).hex() for _ in range(4)]
                solved.append(trws.bound(d, chain_state_tree_params(d, st)).hex())
        assert got == want
        monkeypatch.undo()
        p = init_tree_params(d)
        assert [bound(d, p).hex() for _ in range(2)] == [reference.bound(d, p).hex()] * 2


def test_threads_run_on_stage_buffers_of_their_own():
    # a run in another thread leaves this thread's stage tables, which its
    # argmins and labelings read, as its own run left them
    d = MODELS["nested-weighted"]()
    assert sorted(map(len, d.chains)) == [1, 1, 1, 1, 1, 2]
    program = chain_program(d)
    params = init_tree_params(d)
    mine = program.gather(params.tables)
    values = program.run(mine)
    want = [program.labeling(i) for i in range(len(d.chains))], program.single_argmins()
    theirs = threading.Thread(target=program.run, args=(np.negative(mine),))
    theirs.start()
    theirs.join()
    assert [program.labeling(i) for i in range(len(d.chains))] == want[0]
    assert program.single_argmins().tolist() == want[1].tolist()
    assert program.run(mine).tolist() == values.tolist()


def test_threads_sharing_a_decomposition_solve_alike():
    # more threads than cores run `bound` and `tree_argmin` on one shared
    # decomposition, switching often; each must get the one-thread results
    d = MODELS["nested-weighted"]()
    params = [init_tree_params(d)]
    st = chain_state_init(d)
    for _ in range(4):
        trws_chain_pass(d, st)
        params.append(chain_state_tree_params(d, st))
    want = [(bound(d, p), tree_argmin(d, p, 5)) for p in params]
    got = {}

    def work(k):
        got[k] = [[(bound(d, p), tree_argmin(d, p, 5)) for p in params] for _ in range(30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {k: [want] * 30 for k in range(4)}
