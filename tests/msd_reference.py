"""Min-sum diffusion one edge at a time, re-deriving every axis and shape
from the scopes: the reference the bound sweep of `homrf.baselines` is
checked against, bound, tables and `meff` byte for byte."""

from homrf._tables import embed, reduce_min
from homrf.baselines import MsdState, msd_sweep_order


def msd_pass(model, jstructure, state, order):
    """One diffusion sweep over `order`, edge by edge, rebinding each updated
    table; returns the sum of per-factor minima afterwards."""
    js = jstructure
    for a, b in order:
        scope_a, scope_b = js.scope(a), js.scope(b)
        gap = reduce_min(state.tables[a], scope_a, scope_b) - state.tables[b]
        state.meff += state.tables[a].size
        delta = 0.5 * gap
        state.tables[b] = state.tables[b] + delta
        state.tables[a] = state.tables[a] - embed(delta, scope_b, scope_a)
    return float(sum(t.min() for t in state.tables))


def solve_msd(decomp, passes):
    """(bounds per pass, final state) of `passes` reference sweeps in the
    decomposition's node order, with no stop rule."""
    state = MsdState(tables=[f.table for f in decomp.model.factors])
    order = msd_sweep_order(decomp.jstructure, decomp.node_order)
    return [msd_pass(decomp.model, decomp.jstructure, state, order) for _ in range(passes)], state
