"""Sequential block-coordinate dual ascent over junction-chain decompositions.

This module holds the production path, the message-form sweep.  It stores
only the cumulative reparameterization, as messages on outer-to-separator
edges plus cached separator tables.  Sweeps alternate forward and backward.
The two nested-separator reuse shortcuts are modes of the sweep
(`reuse="after"` and `reuse="before-after"`), not steps of their own: whether
one applies to an edge follows from the windows, the direction of the sweep
and whether it is the first.  The explicit-table reference sweeps it is checked
against live in `homrf.oracle`.

Messages and separator caches are rows of stacked arrays, one stack per
separator table shape.  Everything that reads a state reads the stacks it
holds at that moment, through the decomposition's row layout: the read-only
`messages` and `theta_sep` views, and one reader of a factor's table, which
`chain_state_factor_tables` runs for every factor (behind the tree
parameters and the primal rounding) and the bound's fallback for its chains'
factors alone.  A state whose layout does not equal the decomposition's
raises `StateNotInitialized`.

A pass runs the state's program of its reuse mode (`homrf._plan`): three
sweep variants of batched numpy calls on fixed operands, byte-identical to a
sweep one separator at a time, compiled onto the state's stacks from a sweep
plan of the decomposition and the mode.  A state counts its passes, and a
sweep's direction is the parity of that count: forward after an even number
of passes.  The program is kept out of the state's repr, and states compare
by identity.  A copy of the state starts without a program, and a pass
compiles again once the decomposition or the state's stacks are no longer
those the program was compiled for.  A decomposition is frozen, so the
fields a program was compiled from cannot change under it.

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
member that is not an outer factor falls back to the chain dynamic program
on its own factors' tables, read for those factors alone, each over its
appearance probability; `bound` remains the reference.

Every exact chain solve (`bound`, `tree_argmin`, the fallback and the
subgradient step of `homrf.baselines`) runs one compiled chain DP, a
`homrf._plan.ChainProgram` of the chains it solves, which the decomposition
compiles on first use and keeps.  The chain DP one stage at a time that it
is checked against, byte for byte, lives in the tests.
"""

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from ._plan import Bindings, Layout, chain_program, compile_sweeps, same_objects
from ._tables import embed, min_over
from .errors import NonFiniteCost, StateNotInitialized
from .model import _as_int, _is_finite_real

REUSE_MODES = ("none", "after", "before-after")
# the solvers' defaults, which the command line shares
DEFAULT_PASSES = 500
DEFAULT_EPS = 1e-7
DEFAULT_REUSE = "after"


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


class _FlatParams(TreeParams):
    """`TreeParams` whose tables are read-only views of one table buffer of
    a `ChainProgram` (`layout` is the program's), made on first read.  A
    pickle or copy holds a copy of the buffer, and its tables view that;
    once an entry of `tables` is rebound, it is a plain `TreeParams`."""

    def __init__(self, buffer, layout, cells=0):
        self.buffer = buffer
        self.layout = layout
        self.cells = cells

    def __reduce__(self):
        if self.intact():
            return _FlatParams, (self.buffer, self.layout, self.cells)
        return TreeParams, (self.tables,), {"cells": self.cells}

    @cached_property
    def tables(self):
        buffer = self.buffer
        tables = []
        for row in self.layout:
            views = {}
            for f, o, n, shape in row:
                view = views[f] = buffer[o : o + n].reshape(shape)
                view.flags.writeable = False
            tables.append(views)
        self._views = [v for d in tables for v in d.values()]
        return tables

    def intact(self):
        """Whether `tables` still holds only the buffer's views: unread, or
        with no entry rebound since."""
        tables = vars(self).get("tables")
        if tables is None:
            return True
        return same_objects(getattr(self, "_views", ()), [v for d in tables for v in d.values()])


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


def tree_argmin(decomp, params, t):
    """Exact minimum of one subproblem with a minimizing node assignment."""
    program = chain_program(decomp, (t,))
    value = program.run(program.gather([params.tables[t]]))[0]
    return float(value), program.labeling(0)


def bound(decomp, params):
    """Lower bound: probability-weighted sum of exact subproblem minima."""
    program = chain_program(decomp)
    total = 0.0
    for r, v in zip(decomp.rho, program.run(program.gather(params.tables)).tolist()):
        total += r * v
    return float(total)


@dataclass(eq=False)
class ChainSolverState:
    """Message-form solver state: messages on outer-to-separator window edges
    plus cached reparameterized separator tables.

    Both live as rows of stacked arrays, one stack per separator table shape
    (`message_stacks`, `separator_stacks`; rows as in `layout`, the
    decomposition's `homrf._plan.Layout`).  `messages` and `theta_sep` are
    read-only mappings of read-only views of the rows of whatever stacks the
    state holds when they are read, keyed by edge (a, b) and by separator.

    `passes` counts the sweeps run, and `direction`, the direction of the next
    sweep, is its parity: sweeps alternate from a forward first pass.  Its
    first pass in a reuse mode compiles that mode's three sweeps together.
    States compare by identity, as their stacks are arrays."""

    passes: int = 0
    meff: int = 0
    diag_cells: int = 0
    msg_ops_last_pass: int = 0
    message_stacks: list = None
    separator_stacks: list = None
    layout: Layout = field(default=None, repr=False)
    # per reuse mode, its sweeps compiled onto the stacks above
    _bound: Bindings = field(default_factory=Bindings, init=False, repr=False)

    @property
    def direction(self):
        return "backward" if self.passes % 2 else "forward"

    @property
    def messages(self):
        return _Rows(self.layout.edge_row, self.message_stacks)

    @property
    def theta_sep(self):
        return _Rows(self.layout.sep_row, self.separator_stacks)


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
    return ChainSolverState(message_stacks=messages, separator_stacks=caches, layout=layout)


def _check_state(decomp, state):
    # a state from `chain_state_init` whose rows are the decomposition's:
    # equal layouts, not one object, so that copies of either still match
    if (
        not isinstance(state, ChainSolverState)
        or state.message_stacks is None
        or state.separator_stacks is None
    ):
        raise StateNotInitialized("chain solver state must come from chain_state_init")
    if state.layout != decomp._layout:
        raise StateNotInitialized("chain solver state was laid out for another decomposition")


def _program(decomp, state, reuse):
    """The state's program of a reuse mode, compiled on first use and again
    once the decomposition or the state's stacks are no longer those it was
    compiled for."""
    program = state._bound.get(reuse)
    arrays = (*state.message_stacks, *state.separator_stacks)
    if program is None or program.decomp is not decomp or not same_objects(program.arrays, arrays):
        program = state._bound[reuse] = compile_sweeps(
            decomp, reuse, state.message_stacks, state.separator_stacks
        )
    return program


def trws_chain_pass(decomp, state, reuse=DEFAULT_REUSE):
    """One message-form sweep over the separators, in the direction
    `state.direction`, which it then flips by counting the pass.

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
    direct update.  The default, `"after"`, is `solve_trws`'s, so a loop of
    bare passes runs the passes `solve_trws` runs.

    The sweep runs the state's program of its mode (`homrf._plan`),
    compiled by the state's first pass in that mode on this decomposition.
    A state laid out for another decomposition raises `StateNotInitialized`,
    and a bound that is not finite, `NonFiniteCost`.
    """
    _check_state(decomp, state)
    if reuse not in REUSE_MODES:  # a misspelt mode must not silently run as another one
        raise ValueError(f"reuse must be one of {', '.join(REUSE_MODES)}, not {reuse!r}")
    program = _program(decomp, state, reuse)
    # a lead edge's `after` reads the trailing bound's message, which this
    # sweep skips: it is current once a sweep has run the other way
    sweep = program.variants[state.passes % 2 == 0, state.passes > 0]
    for phase in sweep.phases:
        for group in phase:
            for f, args in group:
                f(*args)
    state.meff += sweep.cells
    state.msg_ops_last_pass = sweep.ops
    state.passes += 1

    phi, cells = _pass_bound(decomp, state, sweep.read_off)
    state.diag_cells += cells
    return phi


def _pass_bound(decomp, state, read_off):
    # bound after a sweep and the table cells it reads: the end-table minima of
    # `read_off`, plus the chain DP over its `fallback` chains, each on its own
    # factors' tables over their appearance probabilities.  Raises
    # `NonFiniteCost` when the bound is not finite: finite costs whose sums
    # overflow
    T = state.separator_stacks
    terms = [read_off.const]
    for s, rows, axes, coefs in read_off.ends:
        terms += map(mul, coefs, min_over(T[s][rows], axes).tolist())
    cells = read_off.cells
    if read_off.fallback:
        rho = decomp.rho_factor
        program = chain_program(decomp, read_off.fallback)
        tables = [
            {f: _factor_table(decomp, state, f) / rho[f] for f in decomp.tree_factors[t]}
            for t in read_off.fallback
        ]
        values = program.run(program.gather(tables)).tolist()
        terms += [decomp.rho[t] * v for t, v in zip(read_off.fallback, values)]
        cells += program.cells
    try:
        phi = math.fsum(terms)
    except (OverflowError, ValueError):  # an overflow, or inf and -inf
        phi = math.nan
    if not math.isfinite(phi):
        raise NonFiniteCost(f"pass {state.passes - 1}: the bound is not finite; a cost sum overflows")
    return phi, cells


def _factor_table(decomp, state, fid):
    # factor fid's current reparameterized cost, read off the state's stacks
    layout = state.layout
    if fid not in decomp.jstructure.outer:
        s, row = layout.sep_row[fid]
        return state.separator_stacks[s][row].copy()
    scopes = decomp.jstructure.scopes
    table = decomp.model.table(fid).copy()
    for c in decomp.local_separators[fid]:
        s, row = layout.edge_row[(fid, c)]
        table -= embed(state.message_stacks[s][row], scopes[c], scopes[fid])
    return table


def chain_state_factor_tables(decomp, state):
    """Current reparameterized cost of every factor under the stored messages,
    read off the state's stacks: a separator's cache, or an outer factor's
    cost less the messages into its window.  Raises `StateNotInitialized` for
    a state laid out for another decomposition."""
    _check_state(decomp, state)
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


def _check_eps(eps):
    """Raises `ValueError` unless `eps` is None or a finite non-negative real
    number: a NaN, infinite or negative `eps` would silently run the whole
    pass budget, and a string or a complex number is no tolerance."""
    if eps is not None and not (_is_finite_real(eps) and eps >= 0):
        raise ValueError(f"eps must be a finite non-negative number, not {eps!r}")


def _check_passes(passes):
    """`passes` as an int.  Raises `ValueError` unless it is an integer
    (`model._as_int`'s rule) of at least 1: a budget of no passes leaves no
    bound to report."""
    passes = _as_int(passes, "passes")
    if passes < 1:
        raise ValueError(f"passes must be at least 1, not {passes}")
    return passes


def _run_passes(step, passes, eps, method):
    """The pass/stop loop every solver shares.

    Calls `step(k) -> (direction, bound, meff)` for passes k = 0, 1, ... and
    times each into a `TraceRow`.  Stops after `passes` passes, or once the
    relative per-pass bound change is at most `eps`; `eps=None` never stops
    early.  Returns the rows and why the loop stopped: `"eps"` or `"passes"`.
    Raises `NonFiniteCost` for a pass whose bound is not finite, and
    `ValueError` for a `passes` that is not an integer of at least 1
    (`_check_passes`), and for any other `eps` than None or a finite
    non-negative number (`_check_eps`).
    """
    passes = _check_passes(passes)
    _check_eps(eps)
    rows = []
    prev = None
    for k in range(passes):
        t0 = time.perf_counter()
        direction, phi, meff = step(k)
        if not math.isfinite(phi):
            raise NonFiniteCost(f"pass {k}: the bound is not finite; a cost sum overflows")
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


def solve_trws(decomp, passes=DEFAULT_PASSES, eps=DEFAULT_EPS, reuse=DEFAULT_REUSE):
    """Alternate forward and backward message sweeps until the relative
    per-pass bound improvement drops below `eps` or the pass budget runs out."""
    state, step = _trws_steps(decomp, reuse)
    rows, stop = _run_passes(step, passes, eps, "trws")
    return SolveResult(rows=rows, state=state, bound=rows[-1].bound, stop=stop)
