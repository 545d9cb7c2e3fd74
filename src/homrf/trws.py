"""Sequential block-coordinate dual ascent over junction-chain decompositions.

This module holds the production path, the message-form sweep.  It stores
only the cumulative reparameterization, as messages on outer-to-separator
edges plus cached separator tables.  Sweeps alternate forward and backward.
The two nested-separator reuse shortcuts are modes of the sweep
(`reuse="after"` and `reuse="before-after"`), not steps of their own: whether
one applies to an edge follows from the plan and the direction of this and of
the last completed sweep.  The explicit-table reference sweeps it is checked
against live in `homrf.oracle`.

Messages and separator caches are rows of stacked arrays, one stack per
separator table shape; the state's `messages` and `theta_sep` are read-only
views of those rows.  A sweep runs level by level from the level schedule
that the decomposition's sweep plan (`homrf._plan`) compiles for its
direction and reuse mode: the separator steps of one level commute, and the
updates of one recipe shape at a level run as one batched
gather-subtract-add-min-scatter, then the caches of the level are rebuilt
the same way.  The results are byte-identical to a sweep one separator at a
time.  The chain dynamic program behind every bound also runs from the
plan, so a pass does no structural bookkeeping of its own.

A state's first pass in a reuse mode binds that mode's two schedules to the
state's stacks: every group becomes a short sequence of numpy calls whose
operands are fixed views, each read a row view already reshaped to its
broadcast shape, each fresh minimum written with `out=` straight into its
message rows, each `after` / `before` increment added in place and each
cache rebuilt into its rows.  Rows that only an index array can name are
staged in a scratch buffer, read in with `take` before the group and
stored back after it.  A pass then only calls what was bound.  The binding
lives in the state, out of its repr and comparisons; a copy of the state
starts without one, and a pass binds again once the schedules or the
stacks are no longer those it was bound to.

The message-form sweep reads its bound off the sweep, as TRW-S does, instead
of re-solving every chain.  Messages are stored rather than accumulated, so
they are never normalized: each update writes the fresh message under the
state it was computed in.  Once a sweep has refreshed the message into a chain
member's far window end (its right separator going forward, its left one
going backward), every other input of that message is final for the sweep, so
the chain dynamic program's carry there is exactly that separator's own
locals, and the chain's minimum is the minimum of its far end separator's
cached table over that separator's appearance probability.  The bound is
therefore, per chain, its probability times that minimum.  A chain of one
singleton outer factor adds the constant minimum of its table.  A chain with a
member that is not an outer factor falls back to the dynamic program on its
current tables; `bound` and `_chain_dp` remain the reference.
"""

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import mul
from typing import NamedTuple

import numpy as np

from ._plan import AFTER, FRESH, Bindings, _gc_paused, same_objects, sweep_schedule
from ._tables import min_over
from .errors import ExcessMessageOps, StateNotInitialized

REUSE_MODES = ("none", "after", "before-after")
_ALL = slice(None)


class TreeParams:
    """Per-subproblem cost tables.  Factors outside a subproblem are zero.

    `cells` counts the joint states enumerated by message minimizations on
    this parameter vector (the message-effort measure).
    """

    def __init__(self, tables):
        self.tables = tables
        self.cells = 0

    def copy(self):
        out = TreeParams([{f: t.copy() for f, t in d.items()} for d in self.tables])
        out.cells = self.cells
        return out


def _split(decomp, tables):
    # per-subproblem copies of per-factor tables, each over its appearance probability
    return TreeParams(
        [
            {fid: tables[fid] / decomp.rho_factor[fid] for fid in sorted(fs)}
            for fs in decomp.tree_factors
        ]
    )


def init_tree_params(decomp):
    """Uniform split: each factor's cost over its appearance probability."""
    return _split(decomp, [f.table for f in decomp.model.factors])


def _chain_dp(decomp, tables, t, want_argmin=False):
    """Exact minimization of one subproblem by sweeping its chain.

    `tables[c]` is factor c's table in subproblem `t`: a `TreeParams` chain
    dict, or one per-factor sequence shared by every chain.  Every local table
    is folded into the first chain member that covers it; the running
    intersection property guarantees a node never reappears after it has been
    minimized out.  Returns (value, labeling or None, cells).
    """
    cells = 0
    carry = None
    hs = []
    stages = decomp._sweep_plan.stages[t]
    for stage in stages:
        h = np.zeros(stage.shape)
        for c, shape in stage.terms:
            h += tables[c].reshape(shape)
        if carry is not None:
            h += carry
        cells += h.size
        hs.append(h)
        if stage.carry_axes is not None:
            carry = min_over(h, stage.carry_axes).reshape(stage.carry_shape)
    value = float(min_over(hs[-1], None))
    if not want_argmin:
        return value, None, cells

    labeling = {}
    for stage, h in zip(reversed(stages), reversed(hs)):
        if stage.free:
            sub = h[tuple([_ALL if v is None else labeling[v] for v in stage.pick])]
            flat = int(sub.argmin())
            coords = []
            for v, size in reversed(stage.free):  # unravel the flat index
                flat, c = divmod(flat, size)
                coords.append((v, c))
            labeling.update(reversed(coords))
    return value, labeling, cells


def tree_argmin(decomp, params, t):
    """Exact minimum of one subproblem with a minimizing node assignment."""
    value, labeling, _ = _chain_dp(decomp, params.tables[t], t, want_argmin=True)
    return value, labeling


def bound(decomp, params):
    """Lower bound: probability-weighted sum of exact subproblem minima."""
    total = 0.0
    for t, tables in enumerate(params.tables):
        total += decomp.rho[t] * _chain_dp(decomp, tables, t)[0]
    return float(total)


@dataclass
class ChainSolverState:
    """Message-form solver state: messages on outer-to-separator window edges
    plus cached reparameterized separator tables.

    Both live as rows of stacked arrays, one stack per separator table shape
    (`message_stacks`, `separator_stacks`; rows as in `homrf._plan.Layout`).
    `messages` and `theta_sep` are read-only mappings of read-only views of
    those rows, keyed by edge (a, b) and by separator."""

    messages: Mapping
    theta_sep: Mapping
    direction: str = "forward"  # of the next sweep
    last_direction: str = None  # of the last completed sweep; None before the first
    meff: int = 0
    diag_cells: int = 0
    msg_ops_last_pass: int = 0
    ready: bool = False
    message_stacks: list = None
    separator_stacks: list = None
    # per reuse mode, its level schedules bound to the stacks above
    _bound: Bindings = field(default_factory=Bindings, init=False, repr=False, compare=False)


class _Rows(Mapping):
    """Read-only mapping of keys to read-only views of their stacked rows."""

    def __init__(self, rows, stacks):
        self._rows = rows  # key -> (stack, row)
        self._stacks = stacks

    def __getitem__(self, key):
        s, row = self._rows[key]
        view = self._stacks[s][row]
        view.flags.writeable = False
        return view

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


def chain_state_init(decomp):
    """Zero messages; separator caches start at the original costs."""
    layout = decomp._layout
    table = decomp.model.table
    messages = [np.zeros((len(keys),) + shape) for keys, shape in zip(layout.edges, layout.shapes)]
    caches = [np.array([table(b) for b in seps]) for seps in layout.separators]
    return ChainSolverState(
        messages=_Rows(layout.edge_row, messages),
        theta_sep=_Rows(layout.sep_row, caches),
        ready=True,
        message_stacks=messages,
        separator_stacks=caches,
    )


def _net_table(source, subtract, messages):
    # copy of `source` minus the listed messages, each at its broadcast shape
    out = source.copy()
    for key, shape in subtract:
        out -= messages[key].reshape(shape)
    return out


def _rows_shape(stack, rows):
    return (len(rows),) + stack.shape[1:] if isinstance(rows, np.ndarray) else stack[rows].shape


class _Binder:
    """Binds a reuse mode's schedules to one state's message and cache
    stacks M and T.

    Every operand is bound once: rows given by an index or a basic slice are
    views of their stack, reshaped to the shape they broadcast in.  Rows
    given by an index array cannot be views; they are staged in scratch,
    read into it with `take` before the group's arithmetic and stored back
    after it.  Groups never run at the same time, so each group's scratch
    starts at the start of one shared scratch buffer; a group that outgrows
    the buffer moves on to a new one twice as large.  A group that two
    schedules share (the forward and the backward sweep share most one-edge
    groups) is bound once."""

    def __init__(self, M, T):
        self.M, self.T = M, T
        self.buffer = np.empty(0)
        self.top = 0  # scratch cells of the buffer the current group uses
        self.calls = []  # (function, args) of the current group
        self.stores = []  # staged rows the group writes, stored back when it ends
        self.regions = {}  # (offset, shape) -> view of the buffer
        self.groups = {}  # id(group) -> its calls
        self.views = {}  # operands already bound, shared by the groups that use them

    def scratch(self, shape):
        n = math.prod(shape)
        if self.top + n > len(self.buffer):
            self.buffer = np.empty(max(2 * len(self.buffer), n))
            self.regions = {}
            self.top = 0
        view = self.regions.get((self.top, shape))
        if view is None:
            view = self.buffer[self.top : self.top + n].reshape(shape)
            self.regions[(self.top, shape)] = view
        self.top += n
        return view

    def emit(self, f, *args):
        self.calls.append((f, args))

    def read(self, stack, rows, shape=None):
        # `rows` of `stack` in `shape` (their own by default)
        if isinstance(rows, np.ndarray):
            staged = self.scratch(_rows_shape(stack, rows))
            self.emit(stack.take, rows, 0, staged)
            return staged if shape is None else staged.reshape(shape)
        at = rows if isinstance(rows, int) else (rows.start, rows.stop, rows.step)
        key = (id(stack), at, shape)
        view = self.views.get(key)
        if view is None:
            view = stack[rows] if shape is None else stack[rows].reshape(shape)
            self.views[key] = view
        return view

    def write(self, stack, rows, load):
        # `rows` of `stack` for the group to write, read first if `load`
        if not isinstance(rows, np.ndarray):
            return self.read(stack, rows)
        staged = self.read(stack, rows) if load else self.scratch(_rows_shape(stack, rows))
        self.stores.append((stack.__setitem__, (rows, staged)))
        return staged

    def coef(self, coef):
        # a Python float as a 0-d array: cheaper in a ufunc call, the same product
        if not isinstance(coef, float):
            return coef
        array = self.views.get(("coef", coef))
        if array is None:
            array = self.views[("coef", coef)] = np.array(coef)
        return array

    def stacked(self, tables):
        # scratch holding the tables stacked along a new leading axis, and
        # the call that fills it, concatenating them along their first axis
        shape = tables[0].shape
        stack = self.scratch((len(tables),) + shape)
        self.emit(np.concatenate, tables, 0, stack.reshape((len(tables) * shape[0],) + shape[1:]))
        return stack

    def group(self, bind, group):
        # the functions of one group's calls and their arguments; the
        # schedules being bound keep every group, and so its id, alive
        calls = self.groups.get(id(group))
        if calls is None:
            bind(self, group)
            calls = self.calls + self.stores
            calls = self.groups[id(group)] = (
                tuple([f for f, _ in calls]),
                tuple([args for _, args in calls]),
            )
            self.calls, self.stores, self.top = [], [], 0
        return calls

    def bind(self, levels):
        # a level schedule's program, message operations and cells per lead
        # variant; groups of either variant share their calls
        programs, ops, cells = ([], []), [0, 0], [0, 0]
        for messages, caches in levels:
            for g in messages:
                calls = self.group(_bind_messages, g)
                for v in (False, True) if g.cond is None else (g.cond,):
                    programs[v].append(calls)
                    ops[v] += len(g.edges)
                    cells[v] += g.cells
            for g in caches:
                calls = self.group(_bind_caches, g)
                programs[0].append(calls)
                programs[1].append(calls)
        return tuple(map(tuple, programs)), tuple(ops), tuple(cells)


def _bind_fresh(bd, bracket, out):
    """Fresh messages of a group's edges (a, b) into `out`: each source table
    net of its other outgoing messages plus the weighted separator caches the
    target lacks, minimized onto b."""
    sources, subtract, extra, axes = bracket
    terms = [(np.subtract, bd.read(bd.M[s], rows, shape)) for s, rows, shape in subtract]
    for coef, s, rows, shape in extra:
        product = bd.scratch(shape)
        bd.emit(np.multiply, bd.coef(coef), bd.read(bd.T[s], rows, shape), product)
        terms.append((np.add, product))
    if len(sources) == 1:
        net = sources[0]  # read-only: the first term writes into scratch
        work = bd.scratch(net.shape) if terms else None
    else:
        net = work = bd.stacked(sources)
    for ufunc, operand in terms:
        bd.emit(ufunc, net, operand, work)
        net = work
    bd.emit(np.minimum.reduce, net, axes, None, out)


def _bind_fold(bd, fold, total, delta):
    """Add the weighted caches of p's locals outside b's to `total`, a table
    over the superset p, and minimize onto b into `delta`.  With `total` None
    the sum starts from zero: that is the `reuse="after"` increment; while
    (a, p) holds this sweep's message, the stored (a, b) message plus it
    equals the direct update, scanning only p.  p's own cache is always a
    term."""
    acc = 0.0 if total is None else total
    if total is None:
        total = bd.scratch(fold.shape)
    for coef, s, rows, shape in fold.terms:
        product = bd.scratch(shape)
        bd.emit(np.multiply, bd.coef(coef), bd.read(bd.T[s], rows, shape), product)
        bd.emit(np.add, acc, product, total)
        acc = total
    bd.emit(np.minimum.reduce, total, fold.axes, None, delta)


def _bind_messages(bd, group):
    kind, _, _, _, bracket, fold, (s, rows), sup = group
    M = bd.M
    if kind is FRESH:
        _bind_fresh(bd, bracket, bd.write(M[s], rows, load=False))
        return
    delta = bd.scratch(_rows_shape(M[s], rows))
    if kind is AFTER:
        _bind_fold(bd, fold, None, delta)
    else:  # BEFORE: refresh (a, p) and fold its increment toward b in
        sp, rows_p, b_in_p = sup
        m_new = bd.scratch(_rows_shape(M[sp], rows_p))
        _bind_fresh(bd, bracket, m_new)
        old = bd.write(M[sp], rows_p, load=True)
        total = bd.scratch(fold.shape)
        bd.emit(np.subtract, m_new, old, total)
        _bind_fold(bd, fold, total, delta)
        bd.emit(np.subtract, m_new, delta.reshape(b_in_p), old)
    out = bd.write(M[s], rows, load=True)
    bd.emit(np.add, out, delta, out)


def _bind_caches(bd, group):
    # each separator's original table plus its incoming messages, into its cache
    sources, s, incoming, rows = group
    out = bd.write(bd.T[s], rows, load=False)
    acc = sources[0] if len(sources) == 1 else bd.stacked(sources)
    if not incoming:
        bd.emit(np.copyto, out, acc)
    for r in incoming:
        bd.emit(np.add, acc, bd.read(bd.M[s], r), out)
        acc = out


class _Bound(NamedTuple):
    """A reuse mode's forward and backward schedules bound to one state's
    stacks.  The last three fields are indexed by direction (forward first)
    and then by lead variant (False, True)."""

    schedule: tuple  # the (forward, backward) level schedules it was bound from
    arrays: tuple  # the message and cache stacks it was bound to
    programs: tuple  # per group, its functions and their arguments
    ops: tuple  # message operations a sweep runs
    cells: tuple  # joint states a sweep minimizes over


@_gc_paused
def _bind(schedule, M, T):
    bd = _Binder(M, T)
    forward, backward = bd.bind(schedule[0]), bd.bind(schedule[1])
    return _Bound(schedule, (*M, *T), *zip(forward, backward))


def _bound_sweeps(state, reuse, schedule):
    """The state's binding of a reuse mode's schedules, bound on first use
    and again once the schedules or the state's stacks are no longer those
    it was bound to."""
    bound = state._bound.get(reuse)
    arrays = (*state.message_stacks, *state.separator_stacks)
    if bound is None or bound.schedule is not schedule or not same_objects(bound.arrays, arrays):
        bound = state._bound[reuse] = _bind(schedule, state.message_stacks, state.separator_stacks)
    return bound


def trws_chain_pass(decomp, state, reuse="none"):
    """One message-form sweep over the separators, in the direction
    `state.direction`, which it then flips.

    Each separator's cache is rebuilt from the original cost plus all incoming
    messages; an edge's message is refreshed unless the separator is the edge's
    trailing bound for this direction, whose message stays valid from the
    previous sweep.  Returns the bound after the sweep, read off the sweep's
    end separator tables (see the module docstring).

    `reuse` names the nested-separator shortcuts the sweep may take: none,
    the `after` read-off from the superset swept just before (`"after"`), or
    both it and the `before` step (`"before-after"`), which refreshes the
    superset swept just after preemptively and folds its increment in; that
    superset's own update is then a no-op.  Each gives the messages of the
    direct update.

    The sweep runs the level schedule of its direction and mode
    (`homrf._plan`), which the first pass in that mode compiles.
    """
    if not isinstance(state, ChainSolverState) or not state.ready:
        raise StateNotInitialized("chain solver state must come from chain_state_init")
    if reuse not in REUSE_MODES:  # a misspelt mode must not silently run as another one
        raise ValueError(f"reuse must be one of {', '.join(REUSE_MODES)}, not {reuse!r}")
    direction = state.direction
    forward = direction == "forward"
    plan = decomp._sweep_plan
    bound = _bound_sweeps(state, reuse, sweep_schedule(decomp, reuse))
    d = 0 if forward else 1
    # a lead edge's `after` reads the trailing bound's message, which this
    # sweep skips: it is current only if the last sweep ran the other way
    lead_current = state.last_direction not in (None, direction)
    for functions, arguments in bound.programs[d][lead_current]:
        for f, args in zip(functions, arguments):
            f(*args)
    ops = bound.ops[d][lead_current]
    state.meff += bound.cells[d][lead_current]
    state.last_direction = direction

    if ops > len(decomp.message_edges):
        raise ExcessMessageOps(
            f"{ops} message operations for {len(decomp.message_edges)} edges in one pass"
        )
    state.msg_ops_last_pass = ops
    state.direction = "backward" if forward else "forward"

    phi, cells = _pass_bound(decomp, state, plan.forward_bound if forward else plan.backward_bound)
    state.diag_cells += cells
    return phi


def _pass_bound(decomp, state, read_off):
    # bound after a sweep and the table cells it reads: the end-table minima of
    # `read_off`, plus the chain DP over the fallback chains
    T = state.separator_stacks
    terms = [read_off.const]
    for s, rows, axes, coefs in read_off.ends:
        terms += map(mul, coefs, min_over(T[s][rows], axes).tolist())
    cells = read_off.cells
    for t in decomp._sweep_plan.fallback:
        tables = {
            c: _factor_table(decomp, state, c) / decomp.rho_factor[c]
            for c in decomp.tree_factors[t]
        }
        v, _, c = _chain_dp(decomp, tables, t)
        terms.append(decomp.rho[t] * v)
        cells += c
    return math.fsum(terms), cells


def _factor_table(decomp, state, fid):
    subtract = decomp._sweep_plan.net[fid]
    if subtract is None:
        return state.theta_sep[fid].copy()
    return _net_table(decomp.model.table(fid), subtract, state.messages)


def chain_state_factor_tables(decomp, state):
    """Current reparameterized cost of every factor under the stored messages."""
    return [_factor_table(decomp, state, fid) for fid in range(len(decomp.model.factors))]


def chain_state_tree_params(decomp, state):
    """Per-subproblem view of the message-form state (cumulative over
    appearance probability)."""
    return _split(decomp, chain_state_factor_tables(decomp, state))


@dataclass
class TraceRow:
    pass_index: int
    direction: str
    method: str
    bound: float
    meff: int
    ms: float


def _run_passes(step, passes, eps, method):
    """The pass/stop loop every solver shares.

    Calls `step(k) -> (direction, bound, meff)` for passes k = 0, 1, ... and
    times each into a `TraceRow`.  Stops after `passes` passes, or once the
    relative per-pass bound change is at most `eps`; `eps=None` never stops
    early.  Returns the rows and why the loop stopped: `"eps"` or `"passes"`.
    """
    rows = []
    prev = None
    for k in range(passes):
        t0 = time.perf_counter()
        direction, phi, meff = step(k)
        rows.append(TraceRow(k, direction, method, phi, meff, (time.perf_counter() - t0) * 1e3))
        if eps is not None and prev is not None and abs(phi - prev) <= eps * max(1.0, abs(phi)):
            return rows, "eps"
        prev = phi
    return rows, "passes"


@dataclass
class SolveResult:
    rows: list
    state: object
    bound: float
    stop: str  # "eps" or "passes"


def _trws_steps(decomp, reuse):
    # message-form state and its pass step for `_run_passes`
    state = chain_state_init(decomp)

    def step(k):
        direction = state.direction
        phi = trws_chain_pass(decomp, state, reuse=reuse)
        return direction, phi, state.meff

    return state, step


def solve_trws(decomp, passes=500, eps=1e-7, reuse="after"):
    """Alternate forward and backward message sweeps until the relative
    per-pass bound improvement drops below `eps` or the pass budget runs out."""
    state, step = _trws_steps(decomp, reuse)
    rows, stop = _run_passes(step, passes, eps, "trws")
    return SolveResult(rows=rows, state=state, bound=rows[-1].bound if rows else None, stop=stop)
