"""Baseline dual solvers sharing the model and decomposition infrastructure.

Min-sum diffusion sweeps the closed marginalization edges, halving the gap
between each source's min-marginal and its target, and maximizes the sum of
per-factor minima.  Subgradient ascent keeps explicit per-subproblem tables
and steps shared factors toward agreement of the subproblem minimizers with a
diminishing step size.

Each solve compiles what its passes need once, in the closure of its pass
step: the diffusion edges bound to the state's tables, and the shared
factors of the subgradient step with their chains.  The public one-pass
functions compile per call.

A diffusion state keeps its tables as views of one flat buffer.  Binding an
edge (a, b) fixes its operands: a's table, b's table, a scratch gap in b's
shape and the same gap in a's broadcast shape, and the axes minimized out of
a; a sweep then makes five numpy calls per edge, all in place.  The bound is
read off the buffer with one `np.minimum.reduceat` and summed in factor
order, as `psi_bound`, which stays the reference, sums it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._plan import Bindings, same_objects
from ._tables import drop_axes, embed_shape, min_over
from .decomposition import _node_pos, _scope_nodes, sigma_sorted
from .errors import InvalidEdge, InvalidStepSize
from .trws import DEFAULT_EPS, DEFAULT_PASSES, TreeParams, _chain_dp, _run_passes, init_tree_params


DEFAULT_STEP_BASE = 1.0  # the subgradient step base, which the command line shares
_HALF = np.array(0.5)  # a 0-d array: cheaper in a ufunc call than a Python float
_HALF.flags.writeable = False


def psi_bound(tables):
    """Sum of per-factor minima."""
    return float(sum(min_over(t, None) for t in tables))


@dataclass(eq=False)
class MsdState:
    """Diffusion state: one reparameterized table per factor, which the
    sweep updates in place, and the cells it has minimized over.

    The tables are views of one flat buffer, in factor order.  A state whose
    tables are not (built by hand, or deep-copied) has them copied into a new
    buffer by its next pass, which then replaces `tables` with the views.
    States compare by identity, as their tables are arrays."""

    tables: list
    meff: int = 0
    # the buffer behind `tables`, the views into it and their offsets
    _bound: Bindings = field(default_factory=Bindings, init=False, repr=False)


def _flat_tables(state):
    # (buffer, table views, offsets) of the state's tables, moved into a new
    # buffer unless they are the views of the state's own
    flat = state._bound.get("tables")
    tables = state.tables
    if flat is None or not same_objects(flat[1], tables):
        sizes = [t.size for t in tables]
        offsets = np.cumsum([0] + sizes)[:-1]
        buffer = np.empty(sum(sizes))
        views = tuple(
            [buffer[o : o + n].reshape(t.shape) for o, n, t in zip(offsets.tolist(), sizes, tables)]
        )
        for view, t in zip(views, tables):
            view[...] = t
        state.tables = list(views)
        flat = state._bound["tables"] = (buffer, views, offsets)
    return flat


def msd_init(model):
    """Fresh diffusion state holding the model's tables, copied into one
    buffer."""
    state = MsdState(tables=[f.table for f in model.factors])
    _flat_tables(state)
    return state


def msd_sweep_order(jstructure, node_order=None):
    """Closed edges ordered by target then source scope under `node_order`
    (by default id order), matching the separator sweep of the chain solver."""
    nodes = _scope_nodes(jstructure)
    pos = _node_pos(sorted(nodes) if node_order is None else node_order, nodes)
    fids = sigma_sorted(jstructure.scopes, pos, range(len(jstructure.scopes)))
    rank = {fid: i for i, fid in enumerate(fids)}
    return tuple(sorted(jstructure.closed_edges, key=lambda e: (rank[e[1]], rank[e[0]])))


def _msd_bind(model, jstructure, order, state):
    # the sweep's edges bound to the state's tables: (source, target, the
    # gap toward the target in scratch, the same scratch in the source's
    # shape, axes minimized out of the source), plus the cells one sweep
    # minimizes over and the flat buffer with its offsets
    buffer, tables, offsets = _flat_tables(state)
    scopes = jstructure.scopes
    counts = model.label_counts
    scratch = np.empty(max([tables[b].size for _, b in order], default=0))
    edges = []
    for a, b in order:
        gap = scratch[: tables[b].size].reshape(tables[b].shape)
        in_a = gap.reshape(embed_shape(scopes[b], scopes[a], counts))
        edges.append((tables[a], tables[b], gap, in_a, drop_axes(scopes[a], scopes[b])))
    return tuple(edges), sum([tables[a].size for a, _ in order]), buffer, offsets


def _msd_sweep(bound, state):
    # one diffusion sweep over bound edges, in place on the state's tables;
    # returns the bound, the sum of per-factor minima in factor order as in
    # `psi_bound`, read off the buffer with one reduction
    edges, cells, buffer, offsets = bound
    minimum, add, subtract, multiply = np.minimum.reduce, np.add, np.subtract, np.multiply
    for source, target, gap, in_source, axes in edges:
        minimum(source, axes, None, gap)
        subtract(gap, target, gap)
        multiply(gap, _HALF, gap)
        add(target, gap, target)
        subtract(source, in_source, source)
    state.meff += cells
    return float(sum(np.minimum.reduceat(buffer, offsets)))


def msd_pass(model, jstructure, state, order=None):
    """One diffusion sweep; returns the per-factor bound afterwards.

    For each edge, half the gap between the source's min-marginal and the
    target moves from source to target, equalizing the two.  The state's
    tables are updated in place (see `MsdState`).  An `order` edge outside
    the closed edge set raises `InvalidEdge`.
    """
    if order is None:
        order = msd_sweep_order(jstructure)
    for a, b in order:
        if (a, b) not in jstructure.closed_edges:
            raise InvalidEdge(f"({a}, {b}) is not a closed marginalization edge")
    return _msd_sweep(_msd_bind(model, jstructure, order, state), state)


def _msd_steps(decomp):
    # diffusion state on the decomposition's model and its pass step for
    # `_run_passes`, sweeping an edge plan compiled once for the solve
    state = msd_init(decomp.model)
    order = msd_sweep_order(decomp.jstructure, decomp.node_order)
    bound = _msd_bind(decomp.model, decomp.jstructure, order, state)

    def step(k):
        return "forward", _msd_sweep(bound, state), state.meff

    return state, step


def solve_msd(decomp, passes=DEFAULT_PASSES, eps=DEFAULT_EPS):
    """Run diffusion on a decomposition's (augmented) model until the bound
    stalls; returns (bounds per pass, final state)."""
    state, step = _msd_steps(decomp)
    return [r.bound for r in _run_passes(step, passes, eps, "msd")[0]], state


@dataclass
class SubgradState:
    params: TreeParams
    step_base: float
    inferior: int = 0
    best: float = -np.inf
    best_params: TreeParams = None
    meff: int = 0


def subgrad_init(decomp, step_base=DEFAULT_STEP_BASE):
    if not (math.isfinite(step_base) and step_base > 0):
        raise InvalidStepSize(f"step-size base {step_base} must be finite and positive")
    return SubgradState(params=init_tree_params(decomp), step_base=step_base)


def _subgrad_shared(decomp):
    # the factors more than one chain holds, compiled once:
    # (factor, scope, its chains, zero table, appearance probability)
    model, js = decomp.model, decomp.jstructure
    return tuple(
        (f, js.scope(f), tuple(ts), np.zeros_like(model.table(f)), decomp.rho_factor[f])
        for f, ts in decomp.trees_of.items()
        if len(ts) >= 2
    )


def _subgrad_step(decomp, state, shared):
    # one subgradient step over the compiled shared factors
    rho = decomp.rho
    tables = state.params.tables
    values, labelings = [], []
    for t in range(len(decomp.chains)):
        v, lab, cells = _chain_dp(decomp, tables[t], t, want_argmin=True)
        values.append(v)
        labelings.append(lab)
        state.meff += cells
    phi = float(sum(rho[t] * v for t, v in enumerate(values)))

    if phi < state.best:
        state.inferior += 1
    else:
        state.best = phi
        # updates rebind table entries and never write into an array, so a
        # shallow copy of the chain dicts is a snapshot
        state.best_params = TreeParams([dict(d) for d in tables])
        state.best_params.cells = state.params.cells
    alpha = state.step_base / (state.inferior + 1)

    for fid, scope, ts, zero, rho_f in shared:
        picks = [(t, tuple(labelings[t][v] for v in scope)) for t in ts]
        avg = zero.copy()
        for t, idx in picks:
            avg[idx] += rho[t]
        avg /= rho_f
        for t, idx in picks:
            g = -avg
            g[idx] += 1.0
            tables[t][fid] = tables[t][fid] + alpha * g
    return phi


def subgradient_pass(decomp, state):
    """One subgradient step; returns the bound of the current iterate.

    Each subproblem contributes a minimizing assignment; shared factors move
    toward the probability-weighted indicator average with step
    base / (1 + number of inferior iterations so far).  Every update rebinds
    a table entry, so `state.best_params` keeps the tables it was taken with.
    """
    return _subgrad_step(decomp, state, _subgrad_shared(decomp))


def _subgrad_steps(decomp, step_base):
    # subgradient state and its pass step for `_run_passes`, over shared
    # factors compiled once for the solve
    state = subgrad_init(decomp, step_base)
    shared = _subgrad_shared(decomp)

    def step(k):
        return "forward", _subgrad_step(decomp, state, shared), state.meff

    return state, step


def solve_subgradient(decomp, step_base=DEFAULT_STEP_BASE, passes=DEFAULT_PASSES):
    """Run subgradient ascent for the whole pass budget (the step size is
    diminishing, so there is no stop rule); returns (bounds per pass, final
    state)."""
    state, step = _subgrad_steps(decomp, step_base)
    return [r.bound for r in _run_passes(step, passes, None, "subgrad")[0]], state


def select_step_size(decomp, grid=(0.1, 1.0, 10.0), passes=DEFAULT_PASSES):
    """Pick the step base from a grid by the best bound it reaches.  Raises
    `ValueError` for an empty grid, which has no step base to pick."""
    grid = tuple(grid)
    if not grid:
        raise ValueError("the grid of step bases is empty")
    best_lam, best_val, best_state = None, -np.inf, None
    for lam in grid:
        _, state = solve_subgradient(decomp, lam, passes)
        if state.best > best_val:
            best_lam, best_val, best_state = lam, state.best, state
    return best_lam, best_state
