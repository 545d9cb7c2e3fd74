"""The chain dynamic program and the subgradient step one chain and one
shared factor at a time: the reference the compiled `ChainProgram` of
`homrf._plan` is checked against, byte for byte."""

import numpy as np

from homrf._plan import chain_stages
from homrf._tables import min_over
from homrf.baselines import SubgradState
from homrf.trws import TreeParams, init_tree_params

_ALL = slice(None)


def chain_dp(decomp, tables, t, want_argmin=False, stages=None):
    """Exact minimization of one subproblem by sweeping its chain.

    `tables[c]` is factor c's table in subproblem `t`, as in a `TreeParams`
    chain dict.  Every local table is folded into the first chain member that
    covers it; the running intersection property guarantees a node never
    reappears after it has been minimized out.  Returns (value, labeling or
    None, cells).
    """
    cells = 0
    carry = None
    hs = []
    stages = chain_stages(decomp, t) if stages is None else stages
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
    value, labeling, _ = chain_dp(decomp, params.tables[t], t, want_argmin=True)
    return value, labeling


def bound(decomp, params):
    total = 0.0
    for t, tables in enumerate(params.tables):
        total += decomp.rho[t] * chain_dp(decomp, tables, t)[0]
    return float(total)


def subgrad_shared(decomp):
    # the factors more than one chain holds:
    # (factor, scope, its chains, zero table, appearance probability)
    model, js = decomp.model, decomp.jstructure
    return tuple(
        (f, js.scope(f), tuple(ts), np.zeros_like(model.table(f)), decomp.rho_factor[f])
        for f, ts in decomp.trees_of.items()
        if len(ts) >= 2
    )


def subgrad_step(decomp, state, shared, stages):
    # one subgradient step over the shared factors; every update rebinds a
    # table entry, so a shallow copy of the chain dicts is a snapshot
    rho = decomp.rho
    tables = state.params.tables
    values, labelings = [], []
    for t in range(len(decomp.chains)):
        v, lab, cells = chain_dp(decomp, tables[t], t, want_argmin=True, stages=stages[t])
        values.append(v)
        labelings.append(lab)
        state.meff += cells
    phi = float(sum(rho[t] * v for t, v in enumerate(values)))

    if phi < state.best:
        state.inferior += 1
    else:
        state.best = phi
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


def solve_subgradient(decomp, step_base, passes):
    """(bounds per pass, final state) of `passes` reference steps."""
    state = SubgradState(params=init_tree_params(decomp), step_base=step_base)
    shared = subgrad_shared(decomp)
    stages = [chain_stages(decomp, t) for t in range(len(decomp.chains))]
    return [subgrad_step(decomp, state, shared, stages) for _ in range(passes)], state
