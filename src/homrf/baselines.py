"""Baseline dual solvers sharing the model and decomposition infrastructure.

Min-sum diffusion sweeps the closed marginalization edges, halving the gap
between each source's min-marginal and its target, and maximizes the sum of
per-factor minima.  Subgradient ascent keeps explicit per-subproblem tables
and steps shared factors toward agreement of the subproblem minimizers with a
diminishing step size.
"""

from dataclasses import dataclass

import numpy as np

from ._tables import embed, reduce_min, restrict
from .decomposition import sigma_key
from .errors import InvalidStepSize
from .trws import TreeParams, _chain_dp, _run_passes, init_tree_params


def psi_bound(tables):
    """Sum of per-factor minima."""
    return float(sum(t.min() for t in tables))


@dataclass
class MsdState:
    tables: list
    meff: int = 0


def msd_init(model):
    return MsdState(tables=[f.table.copy() for f in model.factors])


def msd_sweep_order(jstructure, node_order=None):
    """Closed edges ordered by target then source scope, matching the
    separator sweep of the chain solver."""
    n_nodes = 1 + max((v for s in jstructure.scopes for v in s), default=-1)
    if node_order is None:
        node_order = tuple(range(n_nodes))
    pos = {v: i for i, v in enumerate(node_order)}
    sig = {fid: sigma_key(jstructure.scope(fid), pos) for fid in range(len(jstructure.scopes))}
    return tuple(
        sorted(jstructure.closed_edges, key=lambda e: (sig[e[1]], sig[e[0]]))
    )


def msd_pass(model, jstructure, state, order=None):
    """One diffusion sweep; returns the per-factor bound afterwards.

    For each edge, half the gap between the source's min-marginal and the
    target moves from source to target, equalizing the two.
    """
    if order is None:
        order = msd_sweep_order(jstructure)
    js = jstructure
    for a, b in order:
        scope_a, scope_b = js.scope(a), js.scope(b)
        gap = reduce_min(state.tables[a], scope_a, scope_b) - state.tables[b]
        state.meff += state.tables[a].size
        delta = 0.5 * gap
        state.tables[b] = state.tables[b] + delta
        state.tables[a] = state.tables[a] - embed(delta, scope_b, scope_a)
    return psi_bound(state.tables)


def _msd_steps(decomp):
    # diffusion state on the decomposition's model and its pass step for `_run_passes`
    state = msd_init(decomp.model)
    order = msd_sweep_order(decomp.jstructure, decomp.node_order)

    def step(k):
        return "forward", msd_pass(decomp.model, decomp.jstructure, state, order), state.meff

    return state, step


def solve_msd(decomp, passes=500, eps=1e-7):
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


def subgrad_init(decomp, step_base=1.0):
    if step_base <= 0:
        raise InvalidStepSize(f"step-size base {step_base} must be positive")
    return SubgradState(params=init_tree_params(decomp), step_base=step_base)


def subgradient_pass(decomp, state):
    """One subgradient step; returns the bound of the current iterate.

    Each subproblem contributes a minimizing assignment; shared factors move
    toward the probability-weighted indicator average with step
    base / (1 + number of inferior iterations so far).
    """
    js = decomp.jstructure
    values, labelings = {}, {}
    for t in range(len(decomp.chains)):
        v, lab, cells = _chain_dp(decomp, state.params.tables[t], t, want_argmin=True)
        values[t] = v
        labelings[t] = lab
        state.meff += cells
    phi = float(sum(decomp.rho[t] * values[t] for t in values))

    if phi < state.best:
        state.inferior += 1
    else:
        state.best = phi
        state.best_params = state.params.copy()
    alpha = state.step_base / (state.inferior + 1)

    for fid, ts in decomp.trees_of.items():
        if len(ts) < 2:
            continue
        scope = js.scope(fid)
        avg = np.zeros_like(decomp.model.table(fid))
        for t in ts:
            avg[restrict(labelings[t], scope)] += decomp.rho[t]
        avg /= decomp.rho_factor[fid]
        for t in ts:
            g = -avg.copy()
            g[restrict(labelings[t], scope)] += 1.0
            state.params.tables[t][fid] = state.params.tables[t][fid] + alpha * g
    return phi


def _subgrad_steps(decomp, step_base):
    # subgradient state and its pass step for `_run_passes`
    state = subgrad_init(decomp, step_base)

    def step(k):
        return "forward", subgradient_pass(decomp, state), state.meff

    return state, step


def solve_subgradient(decomp, step_base=1.0, passes=500):
    """Run subgradient ascent for the whole pass budget (the step size is
    diminishing, so there is no stop rule); returns (bounds per pass, final
    state)."""
    state, step = _subgrad_steps(decomp, step_base)
    return [r.bound for r in _run_passes(step, passes, None, "subgrad")[0]], state


def select_step_size(decomp, grid=(0.1, 1.0, 10.0), passes=500):
    """Pick the step base from a grid by the best bound it reaches."""
    best_lam, best_val, best_state = None, -np.inf, None
    for lam in grid:
        _, state = solve_subgradient(decomp, lam, passes)
        if state.best > best_val:
            best_lam, best_val, best_state = lam, state.best, state
    return best_lam, best_state
