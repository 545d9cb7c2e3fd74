import copy
import struct

import numpy as np
import pytest

from homrf import baselines
from homrf.baselines import (
    MsdState,
    SubgradState,
    _msd_steps,
    msd_init,
    msd_pass,
    msd_sweep_order,
    psi_bound,
    select_step_size,
    solve_msd,
    solve_subgradient,
    subgrad_init,
    subgradient_pass,
)
from homrf.decomposition import build_monotonic_chains
from homrf.generators import gen_potts_2x2, gen_stereo_second_order
from homrf.errors import InvalidEdge, InvalidStepSize
from homrf.model import build_model, close_j, energy
from homrf.oracle import brute_force_map, cumulative_tables
from homrf.trws import TreeParams, chain_state_init, trws_chain_pass

from conftest import random_decomposed, submodular_grid
from msd_reference import msd_pass as _reference_msd_pass


def _ising_fixpoint_instance():
    # symmetric pairwise costs with zero unaries: every edge's min-marginal
    # already equals its target, so diffusion has nothing to move
    model = build_model(
        [2, 2],
        [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), [0.0, 1.0, 1.0, 0.0])],
    )
    js = close_j(model.scopes, {(2, 0), (2, 1)})
    return build_monotonic_chains(model, js)


def _bits(x):
    return struct.pack("d", x)


def _table_bytes(params):
    return [{f: t.tobytes() for f, t in d.items()} for d in params.tables]


class TestMsd:
    def test_fixpoint_instance_does_not_move(self):
        d = _ising_fixpoint_instance()
        st = msd_init(d.model)
        before = psi_bound(st.tables)
        after = msd_pass(d.model, d.jstructure, st)
        assert abs(after - before) <= 1e-9

    def test_zero_model_stays_zero(self):
        model = build_model(
            [2, 2], [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), np.zeros(4))]
        )
        js = close_j(model.scopes, {(2, 0), (2, 1)})
        d = build_monotonic_chains(model, js)
        st = msd_init(d.model)
        for _ in range(3):
            assert msd_pass(d.model, d.jstructure, st) == 0.0
        for t in st.tables:
            assert np.allclose(t, 0.0)

    def test_monotone_and_below_map(self, rng):
        for _ in range(8):
            d = random_decomposed(rng, nested=True)
            _, value = brute_force_map(d.model)
            st = msd_init(d.model)
            order = msd_sweep_order(d.jstructure, d.node_order)
            prev = -np.inf
            for _ in range(60):
                psi = msd_pass(d.model, d.jstructure, st, order)
                assert psi >= prev - 1e-9
                assert psi <= value + 1e-9
                prev = psi

    def test_energy_preserved(self, rng):
        for _ in range(5):
            d = random_decomposed(rng, nested=True)
            st = msd_init(d.model)
            for _ in range(10):
                msd_pass(d.model, d.jstructure, st)
            for _ in range(20):
                lab = [int(rng.integers(0, c)) for c in d.model.label_counts]
                want = energy(d.model, lab)
                got = sum(
                    st.tables[fid][tuple(lab[v] for v in d.model.scope(fid))]
                    for fid in range(len(d.model.factors))
                )
                assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("pass_order", [False, True])
    def test_compiled_sweep_matches_per_edge_reference(self, rng, pass_order):
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            order = msd_sweep_order(d.jstructure, d.node_order) if pass_order else None
            ref_order = order if pass_order else msd_sweep_order(d.jstructure)
            st, ref = msd_init(d.model), msd_init(d.model)
            for _ in range(30):
                got = msd_pass(d.model, d.jstructure, st, order)
                want = _reference_msd_pass(d.model, d.jstructure, ref, ref_order)
                assert _bits(got) == _bits(want)
            assert st.meff == ref.meff
            for t, r in zip(st.tables, ref.tables):
                assert t.shape == r.shape and t.tobytes() == r.tobytes()

    def test_solve_matches_per_edge_reference(self, rng):
        # the solve compiles its plan once, in the decomposition's node order
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            bounds, st = solve_msd(d, passes=30, eps=None)
            ref = msd_init(d.model)
            order = msd_sweep_order(d.jstructure, d.node_order)
            want = [_reference_msd_pass(d.model, d.jstructure, ref, order) for _ in range(30)]
            assert [_bits(b) for b in bounds] == [_bits(b) for b in want]
            assert st.meff == ref.meff
            for t, r in zip(st.tables, ref.tables):
                assert t.tobytes() == r.tobytes()

    def test_read_off_bound_equals_psi_bound(self, rng):
        # psi_bound stays the reference for the bound read off the flat buffer
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            st = msd_init(d.model)
            solved, step = _msd_steps(d)
            for k in range(30):
                assert _bits(msd_pass(d.model, d.jstructure, st)) == _bits(psi_bound(st.tables))
                assert _bits(step(k)[1]) == _bits(psi_bound(solved.tables))

    def test_hand_built_state_matches_reference(self, rng):
        # tables that are not views of the state's buffer move into a new
        # one; the model's own tables are never written
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            for f in d.model.factors:
                f.table.setflags(write=False)
            before = [f.table.tobytes() for f in d.model.factors]
            st = MsdState(tables=[f.table for f in d.model.factors])
            ref = MsdState(tables=[f.table.copy() for f in d.model.factors])
            order = msd_sweep_order(d.jstructure)
            for k in range(30):
                if k == 15:  # tables swapped between passes move into a new buffer too
                    st.tables = [t.copy() for t in st.tables]
                got = msd_pass(d.model, d.jstructure, st)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, order))
            assert st.meff == ref.meff
            assert [t.tobytes() for t in st.tables] == [t.tobytes() for t in ref.tables]
            assert [f.table.tobytes() for f in d.model.factors] == before

    def test_deep_copied_state_matches_reference(self, rng):
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            order = msd_sweep_order(d.jstructure)
            st, ref = msd_init(d.model), msd_init(d.model)
            for _ in range(10):
                msd_pass(d.model, d.jstructure, st)
                _reference_msd_pass(d.model, d.jstructure, ref, order)
            twin = copy.deepcopy(st)
            frozen = [t.tobytes() for t in st.tables]
            for _ in range(20):
                got = msd_pass(d.model, d.jstructure, twin)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, order))
            assert [t.tobytes() for t in st.tables] == frozen
            assert twin.meff == ref.meff
            assert [t.tobytes() for t in twin.tables] == [t.tobytes() for t in ref.tables]
            assert "_bound" not in repr(twin)

    def test_states_compare_by_identity(self):
        # comparing their lists of tables raised on arrays of several cells
        d = _ising_fixpoint_instance()
        st = msd_init(d.model)
        assert (st == st) is True
        assert (msd_init(d.model) == msd_init(d.model)) is False

    def test_pass_never_writes_model_tables(self, rng):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            before = [f.table.tobytes() for f in d.model.factors]
            for f in d.model.factors:
                f.table.setflags(write=False)
            st = msd_init(d.model)
            for _ in range(30):
                msd_pass(d.model, d.jstructure, st)
            assert [f.table.tobytes() for f in d.model.factors] == before


    def test_order_edge_outside_closed_j_raises(self):
        # a nested edge the closed J lacks, and an edge between unnested scopes
        model = build_model(
            [2, 2], [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((0, 1), np.zeros(4))]
        )
        js = close_j(model.scopes, {(2, 0)})
        with pytest.raises(InvalidEdge, match=r"\(2, 1\) is not a closed marginalization edge"):
            msd_pass(model, js, msd_init(model), order=[(2, 1)])
        d = build_monotonic_chains(*gen_stereo_second_order(3, 3))
        with pytest.raises(InvalidEdge, match=r"\(0, 1\)"):
            msd_pass(d.model, d.jstructure, msd_init(d.model), order=[(0, 1)])

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-3, "1e-7", [1e-7], 1e-7j, 10**400])
    def test_solve_rejects_bad_eps(self, eps):
        d = _ising_fixpoint_instance()
        with pytest.raises(ValueError, match="eps must be a finite non-negative number"):
            solve_msd(d, passes=3, eps=eps)

    @pytest.mark.parametrize("passes", [-1, 0, 2.5])
    def test_solve_rejects_bad_passes(self, passes):
        # no pass would leave no bound; a fraction is no pass count
        d = _ising_fixpoint_instance()
        with pytest.raises(ValueError, match="passes"):
            solve_msd(d, passes=passes)


class TestMsdBinding:
    """A diffusion state binds its sweep on its first pass, and again only for
    another model, J structure, order value or set of tables."""

    @pytest.fixture
    def binds(self, monkeypatch):
        # the order each binding is made for, in call order
        made, bind = [], baselines._msd_bind

        def counted(model, jstructure, given, state):
            made.append(given)
            return bind(model, jstructure, given, state)

        monkeypatch.setattr(baselines, "_msd_bind", counted)
        return made

    @staticmethod
    def _same(st, ref):
        assert st.meff == ref.meff
        assert [t.tobytes() for t in st.tables] == [t.tobytes() for t in ref.tables]

    @pytest.mark.parametrize("kind", ["default", "tuple", "list"])
    def test_repeated_passes_keep_one_binding(self, rng, binds, kind):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            solve_order = msd_sweep_order(d.jstructure, d.node_order)
            order = {"default": None, "tuple": solve_order, "list": list(solve_order)}[kind]
            ref_order = msd_sweep_order(d.jstructure) if order is None else solve_order
            st, ref = msd_init(d.model), msd_init(d.model)
            del binds[:]
            for _ in range(20):
                got = msd_pass(d.model, d.jstructure, st, order)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, ref_order))
            assert binds == [None if order is None else solve_order]
            self._same(st, ref)

    def test_a_solve_binds_once(self, rng, binds):
        d = random_decomposed(rng, nested=True)
        solve_msd(d, passes=30, eps=None)
        assert binds == [(), msd_sweep_order(d.jstructure, d.node_order)]  # msd_init's, then the sweep's

    @pytest.mark.parametrize("change", ["new value", "edit in place"])
    def test_a_new_order_value_rebinds(self, rng, binds, change):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            order = list(msd_sweep_order(d.jstructure, d.node_order))
            want = [tuple(order), tuple(order[::-1])][: 1 + (len(order) > 1)]
            st, ref = msd_init(d.model), msd_init(d.model)
            del binds[:]
            for k in range(20):
                if k == 10:
                    if change == "edit in place":
                        order.reverse()
                    else:
                        order = order[::-1]
                got = msd_pass(d.model, d.jstructure, st, order)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, order))
            assert binds == want
            self._same(st, ref)

    def test_another_j_structure_or_model_rebinds(self, rng, binds):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            js, model = copy.copy(d.jstructure), copy.deepcopy(d.model)
            order = msd_sweep_order(d.jstructure)
            st, ref = msd_init(d.model), msd_init(d.model)
            del binds[:]
            for k in range(30):
                args = [(d.model, d.jstructure), (d.model, js), (model, js)][k // 10]
                got = msd_pass(*args, st)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, order))
            assert binds == [None] * 3
            self._same(st, ref)

    def test_swapped_tables_rebind(self, rng, binds):
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            order = msd_sweep_order(d.jstructure)
            st, ref = msd_init(d.model), msd_init(d.model)
            del binds[:]
            for k in range(30):
                if k == 10:  # one table swapped
                    st.tables[-1] = st.tables[-1].copy()
                if k == 20:  # every table swapped
                    st.tables = [t.copy() for t in st.tables]
                got = msd_pass(d.model, d.jstructure, st)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, order))
            assert binds == [None] * 3
            self._same(st, ref)

    def test_a_bad_order_on_a_bound_state_raises(self, rng, binds):
        # a new order value or an edit in place is checked again, and a
        # refused order leaves the state and its binding as they were
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            order = list(msd_sweep_order(d.jstructure, d.node_order))
            a, b = order[0]
            st, ref = msd_init(d.model), msd_init(d.model)
            for k in range(10):
                msd_pass(d.model, d.jstructure, st, order)
                _reference_msd_pass(d.model, d.jstructure, ref, order)
            for bad in ([(b, a)], order[1:] + [(b, a)]):
                with pytest.raises(InvalidEdge, match=rf"\({b}, {a}\) is not a closed marginalization edge"):
                    msd_pass(d.model, d.jstructure, st, bad)
            order.append((b, a))
            with pytest.raises(InvalidEdge, match=rf"\({b}, {a}\)"):
                msd_pass(d.model, d.jstructure, st, order)
            order.pop()
            self._same(st, ref)
            del binds[:]
            for _ in range(5):
                got = msd_pass(d.model, d.jstructure, st, order)
                assert _bits(got) == _bits(_reference_msd_pass(d.model, d.jstructure, ref, order))
            assert binds == []
            self._same(st, ref)


class TestSubgradient:
    @pytest.mark.parametrize("passes", [-1, 0, 2.5])
    def test_solve_rejects_bad_passes(self, passes):
        # no pass would leave no best bound and no best parameters
        d = _ising_fixpoint_instance()
        with pytest.raises(ValueError, match="passes"):
            solve_subgradient(d, passes=passes)

    def test_rejects_bad_step(self, rng):
        d = random_decomposed(rng)
        with pytest.raises(InvalidStepSize):
            subgrad_init(d, 0.0)

    # "1", None and an int past the largest float are no finite number
    # either, though `float()` takes "1"
    @pytest.mark.parametrize("step_base", [float("nan"), float("inf"), float("-inf"), "1", None, 10**400])
    def test_rejects_non_finite_step(self, rng, step_base):
        d = random_decomposed(rng)
        with pytest.raises(InvalidStepSize):
            subgrad_init(d, step_base)

    def test_best_params_snapshots_stay_unchanged(self, rng):
        moved = 0
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            st = subgrad_init(d, 1.0)
            snapshots = []
            for _ in range(40):
                subgradient_pass(d, st)
                if not snapshots or st.best_params is not snapshots[-1][0]:
                    snapshots.append((st.best_params, _table_bytes(st.best_params)))
            for params, frozen in snapshots:
                assert _table_bytes(params) == frozen
            moved += _table_bytes(snapshots[0][0]) != _table_bytes(st.params)
        assert moved  # some instance's tables changed after its first snapshot

    def test_read_only_caller_tables_step_and_keep_their_bytes(self, rng):
        # a step writes only the state's own buffer: tables the caller
        # handed in stay as they were, and the views it hands out are
        # read-only, so no caller can write into the buffer either
        moved = 0
        for _ in range(4):
            d = random_decomposed(rng, nested=True)
            st = subgrad_init(d, 1.0)
            given = st.params
            for tables in given.tables:
                for t in tables.values():
                    t.setflags(write=False)
            frozen = _table_bytes(given)
            for _ in range(50):
                subgradient_pass(d, st)
                for tables in st.params.tables:
                    for t in tables.values():
                        assert not t.flags.writeable
                        with pytest.raises(ValueError, match="read-only"):
                            t[...] = 0.0
            assert st.params is not given
            assert _table_bytes(given) == frozen
            moved += _table_bytes(st.params) != frozen
        assert moved  # some instance's tables moved off the caller's

    def test_rebound_and_copied_tables_step_from_their_values(self, rng):
        # a table rebound in `params`, or a deep copy of the state, is copied
        # into a new buffer on the next pass, and steps as a fresh state would
        d = random_decomposed(rng, nested=True)
        st = subgrad_init(d, 1.0)
        for _ in range(5):
            subgradient_pass(d, st)
        tables = st.params.tables[0]
        f = next(iter(tables))
        tables[f] = tables[f] + 1.0
        twin = copy.deepcopy(st)
        fresh = SubgradState(
            params=TreeParams([{g: t.copy() for g, t in ts.items()} for ts in st.params.tables]),
            step_base=st.step_base, inferior=st.inferior, best=st.best, meff=st.meff,
        )
        for _ in range(5):
            phi = subgradient_pass(d, st)
            assert subgradient_pass(d, twin) == phi == subgradient_pass(d, fresh)
        assert _table_bytes(st.params) == _table_bytes(twin.params) == _table_bytes(fresh.params)

    def test_agreeing_trees_do_not_move(self):
        # strong unaries force both chains to the same labeling
        model = build_model(
            [2, 2, 2],
            [
                ((0,), [0.0, 10.0]),
                ((1,), [0.0, 10.0]),
                ((2,), [0.0, 10.0]),
                ((0, 1), np.zeros(4)),
                ((0, 2), np.zeros(4)),
            ],
        )
        edges = set()
        for fid, scope in enumerate(model.scopes):
            if len(scope) == 2:
                for v in scope:
                    edges.add((fid, model.factor_id((v,))))
        d = build_monotonic_chains(model, close_j(model.scopes, edges))
        st = subgrad_init(d, 1.0)
        before = [{f: t.copy() for f, t in tab.items()} for tab in st.params.tables]
        subgradient_pass(d, st)
        for t, tab in enumerate(st.params.tables):
            for f, arr in tab.items():
                assert np.allclose(arr, before[t][f])

    def test_disagreeing_shared_node_shifts_half(self):
        # two chains pull the shared node toward different labels
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
        assert len(d.chains) == 2
        st = subgrad_init(d, 1.0)
        zero = d.model.factor_id((0,))
        before = {t: st.params.tables[t][zero].copy() for t in d.trees_of[zero]}
        subgradient_pass(d, st)
        shifts = [st.params.tables[t][zero] - before[t] for t in d.trees_of[zero]]
        for shift in shifts:
            assert sorted(np.round(shift, 12).tolist()) == [-0.5, 0.5]
        assert np.allclose(shifts[0] + shifts[1], 0.0, atol=1e-12)

    def test_bound_below_map_and_state_stays_split(self, rng):
        for _ in range(6):
            d = random_decomposed(rng, nested=True)
            _, value = brute_force_map(d.model)
            st = subgrad_init(d, 1.0)
            for _ in range(50):
                phi = subgradient_pass(d, st)
                assert phi <= value + 1e-9
            assert st.best <= value + 1e-9
            # weighted tree tables still reproduce the original energies
            tables = cumulative_tables(d, st.params)
            for _ in range(10):
                lab = [int(rng.integers(0, c)) for c in d.model.label_counts]
                want = energy(d.model, lab)
                got = sum(
                    tables[fid][tuple(lab[v] for v in d.model.scope(fid))]
                    for fid in range(len(d.model.factors))
                )
                assert got == pytest.approx(want, abs=1e-9)

    def test_step_size_selection_runs(self, rng):
        d = random_decomposed(rng, n_nodes=4, n_extra=2)
        lam, state = select_step_size(d, grid=(0.1, 1.0), passes=30)
        assert lam in (0.1, 1.0)
        assert np.isfinite(state.best)

    @pytest.mark.parametrize("grid", [(), []])
    def test_step_size_selection_rejects_an_empty_grid(self, rng, grid):
        d = random_decomposed(rng, n_nodes=4, n_extra=2)
        with pytest.raises(ValueError, match="grid of step bases is empty"):
            select_step_size(d, grid=grid, passes=30)


class TestSolverAgreement:
    def test_all_three_bounds_close_on_submodular_grids(self, rng):
        from homrf.trws import solve_trws

        for _ in range(3):
            model, js = submodular_grid(rng, 3, 2)
            d = build_monotonic_chains(model, js)
            _, value = brute_force_map(d.model)
            trws = solve_trws(d, passes=400, eps=0.0)
            msd_bounds, _ = solve_msd(d, passes=800, eps=0.0)
            _, sg_state = solve_subgradient(d, step_base=1.0, passes=1500)
            assert trws.bound == pytest.approx(value, abs=1e-6)
            assert msd_bounds[-1] == pytest.approx(value, abs=1e-4)
            assert sg_state.best == pytest.approx(value, abs=1e-3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_stereo_second_order(8, 8, labels=4, seed=1),
            lambda: gen_potts_2x2(
                8, 8, labels=3, block_weight=0.5, variant="pairwise", separators="pair", seed=1
            ),
        ],
        ids=["stereo", "potts"],
    )
    def test_trws_bound_leads_at_equal_effort(self, make):
        # the paper's comparison: after every TRW-S pass, its bound is at
        # least the best bound diffusion and subgradient ascent (step 1.0)
        # reach with no more message effort (meff)
        d = build_monotonic_chains(*make())
        st = chain_state_init(d)
        trws = [(trws_chain_pass(d, st), st.meff) for _ in range(30)]
        msd, order = msd_init(d.model), msd_sweep_order(d.jstructure, d.node_order)
        sg = subgrad_init(d, 1.0)
        runs = {
            "msd": (msd, lambda: msd_pass(d.model, d.jstructure, msd, order)),
            "subgradient": (sg, lambda: subgradient_pass(d, sg)),
        }
        for name, (state, step) in runs.items():
            best, reached = -np.inf, []  # per pass: (meff, best bound so far)
            while state.meff <= st.meff:
                best = max(best, step())
                reached.append((state.meff, best))
            for phi, meff in trws:
                theirs = max([b for m, b in reached if m <= meff], default=-np.inf)
                assert phi >= theirs - 1e-9 * max(1.0, abs(theirs)), (name, meff)
