"""Sequential block-coordinate dual ascent over junction-chain decompositions.

This module holds the production path, the message-form sweep.  It stores
only the cumulative reparameterization, as messages on outer-to-separator
edges plus cached separator tables.  Sweeps alternate forward and backward.
The two nested-separator reuse shortcuts are modes of the sweep
(`reuse="after"` and `reuse="before-after"`), not steps of their own: whether
one applies to an edge follows from the plan and the direction of this and of
the last completed sweep.  The sweep and the chain dynamic program behind
every bound run from the decomposition's sweep plan (`homrf._plan`), so a
pass does no structural bookkeeping of its own.  The explicit-table reference
sweeps it is checked against live in `homrf.oracle`.

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
from dataclasses import dataclass

import numpy as np

from ._tables import min_over, table_shape
from .errors import (
    ExcessMessageOps,
    StateNotInitialized,
    UnconsumedPreemptiveMessage,
)

REUSE_MODES = ("none", "after", "before-after")


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
    for stage in decomp._sweep_plan.stages[t]:
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

    js = decomp.jstructure
    chain = decomp.chains[t]
    labeling = {}
    for i in reversed(range(len(chain))):
        scope = js.scope(chain[i])
        idx = []
        free = []
        for j, v in enumerate(scope):
            if v in labeling:
                idx.append(labeling[v])
            else:
                idx.append(slice(None))
                free.append(v)
        sub = hs[i][tuple(idx)]
        if free:
            coords = np.unravel_index(int(sub.argmin()), sub.shape)
            for v, c in zip(free, coords):
                labeling[v] = int(c)
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
    plus cached reparameterized separator tables."""

    messages: dict
    theta_sep: dict
    direction: str = "forward"  # of the next sweep
    last_direction: str = None  # of the last completed sweep; None before the first
    meff: int = 0
    diag_cells: int = 0
    msg_ops_last_pass: int = 0
    ready: bool = False


def chain_state_init(decomp):
    """Zero messages; separator caches start at the original costs."""
    js = decomp.jstructure
    counts = decomp.model.label_counts
    messages = {
        (a, b): np.zeros(table_shape(js.scope(b), counts))
        for (a, b) in decomp.message_edges
    }
    theta_sep = {b: decomp.model.table(b).copy() for b in js.separators}
    return ChainSolverState(messages=messages, theta_sep=theta_sep, ready=True)


def _net_table(source, subtract, messages):
    # copy of `source` minus the listed messages, each at its broadcast shape
    out = source.copy()
    for key, shape in subtract:
        out -= messages[key].reshape(shape)
    return out


def _eq20_message(state, rec):
    """Fresh message on an edge: minimize the source cost net of its other
    outgoing messages plus the weighted separator costs the target lacks."""
    bracket = _net_table(rec.source, rec.subtract, state.messages)
    for coef, c, shape in rec.extra:
        bracket += coef * state.theta_sep[c].reshape(shape)
    state.meff += bracket.size
    return min_over(bracket, rec.axes)


def _fold_nested(state, rec, total):
    """Fold p's weighted locals outside b's into `total`, a table over the
    superset p, and minimize onto b.  With a zero `total` this is the
    `reuse="after"` increment: while (a, p) holds this sweep's message, the
    stored (a, b) message plus it equals the direct update, scanning only p."""
    for coef, c, shape in rec.terms:
        total += coef * state.theta_sep[c].reshape(shape)
    state.meff += total.size
    return min_over(total, rec.axes)


def _preempt_nested(state, rec):
    """The `reuse="before-after"` step toward b, nested in the superset p
    processed next in a's window: refresh (a, p) preemptively and fold its
    increment into (a, b), which then equals the direct update.  The caller
    turns p's own step later in the sweep into a no-op, and p's cached table
    stays stale until that step rebuilds it."""
    m_old_p = state.messages[rec.key_p]
    m_new_p = _eq20_message(state, rec.fresh_p)
    delta = _fold_nested(state, rec, m_new_p - m_old_p)

    state.messages[rec.key_b] = state.messages[rec.key_b] + delta
    state.messages[rec.key_p] = m_new_p - delta.reshape(rec.b_in_p)


def trws_chain_pass(decomp, state, reuse="none"):
    """One message-form sweep over the separators, in the direction
    `state.direction`, which it then flips.

    Each separator's cache is rebuilt from the original cost plus all incoming
    messages; an edge's message is refreshed unless the separator is the edge's
    trailing bound for this direction, whose message stays valid from the
    previous sweep.  Returns the bound after the sweep, read off the sweep's
    end separator tables (see the module docstring).

    `reuse` names the nested-separator shortcuts the sweep may take: none,
    `_fold_nested` (`"after"`) or both it and `_preempt_nested`.  Each gives the
    messages of the direct update; see `homrf._plan.EdgeStep` for when
    `"after"` applies.

    The sweep runs from the decomposition's plan, which the first pass builds.
    """
    if not isinstance(state, ChainSolverState) or not state.ready:
        raise StateNotInitialized("chain solver state must come from chain_state_init")
    if reuse not in REUSE_MODES:  # a misspelt mode must not silently run as another one
        raise ValueError(f"reuse must be one of {', '.join(REUSE_MODES)}, not {reuse!r}")
    direction = state.direction
    forward = direction == "forward"
    plan = decomp._sweep_plan
    use_after = reuse in ("after", "before-after")
    use_before = reuse == "before-after"
    lead_current = state.last_direction not in (None, direction)
    messages = state.messages
    pending = set()  # (a, p) refreshed preemptively: p's step is a no-op

    ops = 0
    for b, source, edges in plan.forward if forward else plan.backward:
        theta_b = source.copy()
        for key, skip, lead, fresh, after, before in edges:
            if not skip:
                if key in pending:
                    pending.discard(key)
                elif use_after and after is not None and (lead_current or not lead):
                    messages[key] = messages[key] + _fold_nested(state, after, np.zeros(after.shape))
                    ops += 1
                elif use_before and before is not None:
                    _preempt_nested(state, before)
                    pending.add(before.key_p)
                    ops += 1
                else:
                    messages[key] = _eq20_message(state, fresh)
                    ops += 1
            theta_b += messages[key]
        state.theta_sep[b] = theta_b
    state.last_direction = direction

    if pending:
        raise UnconsumedPreemptiveMessage(
            f"preemptive messages left unconsumed: {sorted(pending)}"
        )
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
    theta = state.theta_sep
    terms = [read_off.const]
    cells = 0
    for coef, e in read_off.ends:
        terms.append(coef * float(theta[e].min()))
        cells += theta[e].size
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
