"""Baseline dual solvers sharing the model and decomposition infrastructure.

Min-sum diffusion sweeps the closed marginalization edges, halving the gap
between each source's min-marginal and its target, and maximizes the sum of
per-factor minima.  Subgradient ascent keeps explicit per-subproblem tables
and steps shared factors toward agreement of the subproblem minimizers with a
diminishing step size.

Each solve runs the public pass.  A diffusion state binds its sweep, and a
subgradient state compiles its step, on its first pass and keeps it in its
`Bindings`.

A diffusion state keeps its tables as views of one flat buffer.  Binding an
edge (a, b) fixes its operands: a's table, b's table, a scratch gap in b's
shape and the same gap in a's broadcast shape, and the axes minimized out of
a; a sweep then makes five numpy calls per edge, all in place.  The bound is
read off the buffer with one `np.minimum.reduceat` and summed in factor
order, as `psi_bound`, which stays the reference, sums it.

A subgradient state keeps its per-chain tables in the flat table buffer of
the decomposition's `ChainProgram` of all chains, which solves every chain
at once.  Each shared (factor, chain) pair's pick, the cell of its table at
its chain's minimizer, is one gather for the chains of one member (their
argmins index the program's term reads) and a backtrack for the others.
The step then sums each factor's picks with one `np.bincount`, in
`trees_of` order as the one-factor-at-a-time step did, and moves every
shared copy with one gather, add and scatter, byte-identical to that step.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from operator import mul
from typing import NamedTuple

import numpy as np

from ._plan import Bindings, chain_program, same_objects
from ._tables import drop_axes, embed_shape, min_over, table_shape
from .decomposition import _node_pos, sigma_sorted
from .errors import InvalidEdge, InvalidStepSize
from .model import _is_finite_real
from .trws import (
    DEFAULT_EPS,
    DEFAULT_PASSES,
    TreeParams,
    _FlatParams,
    _run_passes,
    init_tree_params,
)


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
    tables are not (built by hand, deep-copied or swapped) has them copied
    into a new buffer by its next pass, which then replaces `tables` with the
    views.  States compare by identity, as their tables are arrays."""

    tables: list
    meff: int = 0
    # the sweep bound to the state's tables, and what it was bound for
    _bound: Bindings = field(default_factory=Bindings, init=False, repr=False)


def msd_init(model):
    """Fresh diffusion state holding the model's tables, copied into one
    buffer."""
    state = MsdState(tables=[f.table for f in model.factors])
    _msd_bind(model, None, (), state)  # binding an empty sweep copies the tables
    return state


def msd_sweep_order(jstructure, node_order=None):
    """Closed edges ordered by target then source scope under `node_order`
    (by default id order), matching the separator sweep of the chain solver."""
    nodes = jstructure._nodes
    pos = _node_pos(sorted(nodes) if node_order is None else node_order, nodes)
    fids = sigma_sorted(jstructure.scopes, pos, range(len(jstructure.scopes)))
    rank = {fid: i for i, fid in enumerate(fids)}
    return tuple(sorted(jstructure.closed_edges, key=lambda e: (rank[e[1]], rank[e[0]])))


def _msd_bind(model, jstructure, given, state):
    # binds the sweep of the edges `given` (None: the default order) to the
    # state's tables, copied into a new buffer unless they are the views of
    # its own: per edge (source, target, the gap toward the target in
    # scratch, the same scratch in the source's shape, axes minimized out of
    # the source), and the cells one sweep minimizes over.  An edge outside
    # the closed J raises before anything changes.
    order = msd_sweep_order(jstructure) if given is None else given
    for a, b in order:
        if (a, b) not in jstructure.closed_edges:
            raise InvalidEdge(f"({a}, {b}) is not a closed marginalization edge")
    bound, tables = state._bound, state.tables
    if "views" not in bound or not same_objects(bound["views"], tables):
        sizes = [t.size for t in tables]
        offsets = np.cumsum([0] + sizes)[:-1]
        buffer = np.empty(sum(sizes))
        tables = [buffer[o : o + n].reshape(t.shape) for o, n, t in zip(offsets.tolist(), sizes, tables)]
        for view, t in zip(tables, state.tables):
            view[...] = t
        state.tables = tables
        bound["views"], bound["flat"] = tuple(tables), (buffer, offsets)
    scratch = np.empty(max([tables[b].size for _, b in order], default=0))
    edges = []
    for a, b in order:
        scope_a, scope_b = jstructure.scope(a), jstructure.scope(b)
        gap = scratch[: tables[b].size].reshape(tables[b].shape)
        in_a = gap.reshape(embed_shape(scope_b, scope_a, model.label_counts))
        edges.append((tables[a], tables[b], gap, in_a, drop_axes(scope_a, scope_b)))
    bound["for"] = model, jstructure, given
    bound["sweep"] = tuple(edges), sum([tables[a].size for a, _ in order])


def msd_pass(model, jstructure, state, order=None):
    """One diffusion sweep; returns the per-factor bound afterwards.

    For each edge, half the gap between the source's min-marginal and the
    target moves from source to target, equalizing the two.  The state's
    tables are updated in place (see `MsdState`), and the bound, their sum
    of minima in factor order as in `psi_bound`, is read off their buffer
    with one reduction.  The first pass on a state binds its sweep to the
    tables; a later one binds it again only when the model, the J structure
    or the value of `order` (an edit in place included) differs from the
    bound one, or `tables` are no longer the views bound.  `order=None`
    keeps the default order bound.  An `order` edge outside the closed edge
    set raises `InvalidEdge`.
    """
    given = None if order is None else tuple(map(tuple, order))
    bound = state._bound
    held = bound.get("for", (None, None, None))
    fresh = held[0] is model and held[1] is jstructure and held[2] == given
    if not (fresh and same_objects(bound["views"], state.tables)):
        _msd_bind(model, jstructure, given, state)
    (edges, cells), (buffer, offsets) = bound["sweep"], bound["flat"]
    minimum, add, subtract, multiply = np.minimum.reduce, np.add, np.subtract, np.multiply
    for source, target, gap, in_source, axes in edges:
        minimum(source, axes, None, gap)
        subtract(gap, target, gap)
        multiply(gap, _HALF, gap)
        add(target, gap, target)
        subtract(source, in_source, source)
    state.meff += cells
    return float(sum(np.minimum.reduceat(buffer, offsets)))


def _msd_steps(decomp):
    # diffusion state on the decomposition's model and its pass step for
    # `_run_passes`, sweeping in the decomposition's node order
    model, js, state = decomp.model, decomp.jstructure, msd_init(decomp.model)
    order = msd_sweep_order(js, decomp.node_order)

    def step(k):
        return "forward", msd_pass(model, js, state, order), state.meff

    return state, step


def solve_msd(decomp, passes=DEFAULT_PASSES, eps=DEFAULT_EPS):
    """Run diffusion on a decomposition's (augmented) model until the bound
    stalls; returns (bounds per pass, final state)."""
    state, step = _msd_steps(decomp)
    return [r.bound for r in _run_passes(step, passes, eps, "msd")[0]], state


@dataclass
class SubgradState:
    """Subgradient state: per-subproblem tables, the step count that sets
    the step size, and the best bound and tables so far.

    `params` and `best_params` hold read-only views of flat table buffers
    (one per best step, for `best_params`), which a step updates in place.
    A state whose tables are not the views of its own buffer (built by hand,
    or deep-copied) has them copied into a new buffer by its next pass, which
    then replaces `params` with views of it."""

    params: TreeParams
    step_base: float
    inferior: int = 0
    best: float = -np.inf
    best_params: TreeParams = None
    meff: int = 0
    # the chain program, the shared-factor step and the params it steps
    _bound: Bindings = field(default_factory=Bindings, init=False, repr=False, compare=False)


def subgrad_init(decomp, step_base=DEFAULT_STEP_BASE):
    if not (_is_finite_real(step_base) and step_base > 0):
        raise InvalidStepSize(f"step-size base {step_base!r} must be finite and positive")
    return SubgradState(params=init_tree_params(decomp), step_base=step_base)


class _SharedStep(NamedTuple):
    """The step on the factors more than one chain holds, over the pairs
    (factor, chain) in `trees_of` order, onto a `ChainProgram`'s buffer.
    Each pair's pick is the buffer cell of its table at its chain's
    minimizer."""

    weights: np.ndarray  # per pair: its chain's probability
    neg_rho: np.ndarray  # per average cell: minus its factor's appearance probability
    avg_shift: np.ndarray  # per pair: its pick's average cell less its pick
    src: np.ndarray  # per stepped buffer cell: its average cell
    dst: np.ndarray  # the stepped buffer cells, pair by pair
    dst_shift: np.ndarray  # per pair: its pick's place in `dst` less its pick
    single: np.ndarray  # the pairs on chains of one member
    read_at: np.ndarray  # per such pair: its read of its chain's first cell in the program's `reads`
    rows: np.ndarray  # per such pair: its chain's row of `single_argmins`
    several: tuple  # per chain of several members: (chain, its pairs' (position, scope, strides, table))


def _ranges(starts, sizes):
    # the concatenated ranges [start, start + size), and where each begins
    at = np.cumsum(sizes) - sizes
    return np.repeat(starts - at, sizes) + np.arange(at[-1] + sizes[-1]), at


def _shared_step(decomp, program):
    # the shared factors' step compiled onto the buffer of the program of
    # all chains, whose chain indices are the chain numbers; None without a
    # shared factor.  A chain of one member reads each of its factors in one
    # term of its one stage, so that read at the stage's argmin is the pick.
    scopes, counts = decomp.jstructure.scopes, decomp.model.label_counts
    at = {(t, f): (o, n) for t, row in zip(program.chains, program.layout) for f, o, n, _ in row}
    weights, avg_at, sizes, rho_f, tables, cells = [], [], [], [], [], []
    single, read_at, rows, several = [], [], [], {}
    for f, ts in decomp.trees_of.items():
        if len(ts) < 2:
            continue
        shape = table_shape(scopes[f], counts)
        n_avg = sum(sizes)
        sizes.append(math.prod(shape))
        rho_f.append(decomp.rho_factor[f])
        for t in ts:
            o, n = at[t, f]
            position = len(weights)
            weights.append(decomp.rho[t])
            avg_at.append(n_avg)
            tables.append(o)
            cells.append(n)
            stages = program.stages[t]
            if len(stages) == 1:
                rank = [c for c, _ in stages[0].terms].index(f)
                read_at.append(program.read_at[rank] + program.starts[t, 0])
                rows.append(program.single_row[t])
                single.append(position)
            else:
                strides = np.cumprod((1,) + shape[:0:-1])[::-1].tolist()
                several.setdefault(t, []).append((position, scopes[f], tuple(strides), o))
    if not weights:
        return None
    ints = partial(np.array, dtype=np.intp)
    tables, cells, avg_at = ints(tables), ints(cells), ints(avg_at)
    dst, dst_at = _ranges(tables, cells)
    return _SharedStep(
        np.array(weights),
        np.negative(np.repeat(rho_f, sizes)),
        avg_at - tables,
        _ranges(avg_at, cells)[0],
        dst,
        dst_at - tables,
        ints(single),
        ints(read_at),
        ints(rows),
        tuple(several.items()),
    )


def _picks(step, program):
    # per pair, the buffer cell of its table at its chain's minimizer
    single = program.reads.take(step.read_at + program.single_argmins().take(step.rows))
    if not step.several:
        return single
    picks = np.empty(len(step.weights), dtype=np.intp)
    picks[step.single] = single
    for t, pairs in step.several:
        labeling = program.labeling(t)
        for position, scope, strides, table in pairs:
            picks[position] = table + sum([labeling[v] * s for v, s in zip(scope, strides)])
    return picks


def _subgrad_bind(decomp, state):
    # (chain program, shared step, buffer) of the state: its tables are
    # copied into a new buffer unless they are the views of its own
    program = chain_program(decomp)
    bound = state._bound
    if bound.get("program") is not program:
        bound.clear()
        bound["program"], bound["step"] = program, _shared_step(decomp, program)
    params = state.params
    if bound.get("params") is not params or not params.intact():
        params = _FlatParams(program.gather(params.tables), program.layout, params.cells)
        state.params = bound["params"] = params
    return program, bound["step"], params.buffer


def subgradient_pass(decomp, state):
    """One subgradient step; returns the bound of the current iterate.

    Each subproblem contributes a minimizing assignment; shared factors move
    toward the probability-weighted indicator average with step
    base / (1 + number of inferior iterations so far).  The step updates the
    state's buffer in place; `state.best_params` is a copy of it, so it
    keeps the tables it was taken with (see `SubgradState`).
    """
    program, step, buffer = _subgrad_bind(decomp, state)
    state.meff += program.cells
    phi = float(sum(map(mul, decomp.rho, program.run(buffer).tolist())))

    if phi < state.best:
        state.inferior += 1
    else:
        state.best = phi
        snapshot = buffer.copy()
        snapshot.flags.writeable = False
        state.best_params = _FlatParams(snapshot, program.layout, state.params.cells)
    alpha = state.step_base / (state.inferior + 1)

    if step is not None:
        # each shared factor's copies move by alpha times the indicator of
        # their chain's pick less the probability-weighted average indicator
        # (x / -r is -(x / r) bit for bit, so the division negates)
        picks = _picks(step, program)
        avg = np.bincount(picks + step.avg_shift, step.weights, len(step.neg_rho))
        np.divide(avg, step.neg_rho, avg)
        g = avg.take(step.src)
        g[picks + step.dst_shift] += 1.0
        np.multiply(alpha, g, g)
        np.add(buffer.take(step.dst), g, g)
        buffer.put(step.dst, g)
    return phi


def _subgrad_steps(decomp, step_base):
    # subgradient state and its pass step for `_run_passes`
    state = subgrad_init(decomp, step_base)

    def step(k):
        return "forward", subgradient_pass(decomp, state), state.meff

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
