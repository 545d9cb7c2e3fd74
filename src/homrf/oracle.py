"""Oracles that check the fast solvers, and fixpoint diagnostics.

The exhaustive oracles enumerate joint states, guarded by a hard cap: exact
minimization, exact min-marginals, agreement of subproblem minimizer sets
across a decomposition, per-edge minimizer consistency, the two
bound-preserving mappings between the chain and the per-factor dual
fixpoints, and a greedy primal rounding.

The reference sweeps work on explicit per-subproblem tables, the steps by
which the paper reaches the message-form sweep of `homrf.trws`.  The general
sweep brings each separator to exact min-marginals in every subproblem
containing it before averaging it.  The chain sweep exploits the separator
windows so that one message per subproblem suffices.  Both are equivalent to
the message-form sweep, and the general sweep backs the CLI's `trws-general`
method.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._tables import accumulate, embed, reduce_min
from .decomposition import sigma_sorted
from .errors import FactorNotInTree, InvalidEdge, NotASeparator, NotAtFixpoint, TooLarge
from .trws import (
    ChainSolverState,
    TreeParams,
    _check_option,
    bound,
    chain_state_factor_tables,
    init_tree_params,
)

STATE_SPACE_GUARD = 10**7


def _guard(label_counts, nodes, what):
    size = math.prod(label_counts[v] for v in nodes)
    if size > STATE_SPACE_GUARD:
        raise TooLarge(f"{what}: {size} joint states exceeds the guard")
    return size


def brute_force_map(model):
    """Exact minimizer by full enumeration; ties go to the lowest joint index."""
    nodes = tuple(range(model.node_count))
    _guard(model.label_counts, nodes, "exhaustive minimization")
    total = accumulate(
        [(f.scope, f.table) for f in model.factors], nodes, model.label_counts
    )
    flat = int(np.argmin(total))
    labeling = tuple(int(x) for x in np.unravel_index(flat, total.shape))
    return labeling, float(total.flat[flat])


def tree_total_table(decomp, params, t):
    """Dense energy table of one subproblem over its own nodes."""
    nodes = decomp.tree_nodes[t]
    _guard(decomp.model.label_counts, nodes, f"subproblem {t} enumeration")
    js = decomp.jstructure
    pairs = [
        (js.scope(fid), params.tables[t][fid]) for fid in sorted(decomp.tree_factors[t])
    ]
    return accumulate(pairs, nodes, decomp.model.label_counts)


def brute_force_min_marginals(decomp, params, t, b):
    """Exact min-marginal table of subproblem `t` at factor `b`."""
    total = tree_total_table(decomp, params, t)
    return reduce_min(total, decomp.tree_nodes[t], decomp.jstructure.scope(b))


@dataclass
class Relation:
    """Explicit set of joint states over a node scope, stored as a mask."""

    scope: tuple
    mask: np.ndarray

    def project(self, sub_scope):
        axes = tuple(i for i, v in enumerate(self.scope) if v not in sub_scope)
        mask = self.mask.any(axis=axes) if axes else self.mask.copy()
        return Relation(tuple(v for v in self.scope if v in sub_scope), mask)

    def states(self):
        return [tuple(int(i) for i in idx) for idx in np.argwhere(self.mask)]

    @property
    def empty(self):
        return not bool(self.mask.any())


def argmin_relation(table, scope, tol=1e-9):
    """States within a relative tolerance of the table minimum."""
    lo = float(table.min())
    return Relation(tuple(scope), table <= lo + tol * max(1.0, abs(lo)))


def tree_argmin_relation(decomp, params, t, tol=1e-9):
    total = tree_total_table(decomp, params, t)
    return argmin_relation(total, decomp.tree_nodes[t], tol)


def _tree_argmin_relations(decomp, params, tol):
    # every subproblem's minimizer set, indexed by chain
    return [tree_argmin_relation(decomp, params, t, tol) for t in range(len(decomp.chains))]


@dataclass
class AgreementReport:
    per_factor: dict
    witnesses: dict

    @property
    def holds(self):
        return all(self.per_factor.values())

    def failing(self):
        return sorted(f for f, ok in self.per_factor.items() if not ok)


def check_ewta(decomp, params, tol=1e-9):
    """Do all subproblems sharing a factor project their minimizer sets onto
    it identically?  Factors in at most one subproblem hold vacuously."""
    js = decomp.jstructure
    relations = _tree_argmin_relations(decomp, params, tol)
    per_factor, witnesses = {}, {}
    for fid in range(len(js.scopes)):
        ts = decomp.trees_of.get(fid, ())
        if len(ts) < 2:
            per_factor[fid] = True
            continue
        scope = js.scope(fid)
        projections = [relations[t].project(scope) for t in ts]
        first = projections[0].mask
        ok = all(np.array_equal(first, p.mask) for p in projections[1:])
        per_factor[fid] = ok
        if not ok:
            witnesses[fid] = {t: p.states() for t, p in zip(ts, projections)}
    return AgreementReport(per_factor, witnesses)


@dataclass
class ConsistencyReport:
    per_edge: dict
    witnesses: dict

    @property
    def holds(self):
        return all(self.per_edge.values())

    def failing(self):
        return sorted(e for e, ok in self.per_edge.items() if not ok)


def check_j_consistency_enhanced(tables, jstructure, tol=1e-9):
    """Per closed edge: does the source's minimizer set project exactly onto
    the target's minimizer set?"""
    js = jstructure
    rel = {
        fid: argmin_relation(tables[fid], js.scope(fid), tol)
        for fid in range(len(js.scopes))
    }
    return check_j_consistency_relational(tables, js, rel, tol)


def witness_j_relations(decomp, params, tol=1e-9):
    """Per-factor relations projected out of the subproblem minimizer sets.

    Under tree agreement the projection does not depend on which covering
    subproblem is used; these relations witness the relational consistency of
    the collapsed vector."""
    out = {}
    relations = _tree_argmin_relations(decomp, params, tol)
    for fid in range(len(decomp.jstructure.scopes)):
        ts = decomp.trees_of.get(fid, ())
        if not ts:
            continue
        out[fid] = relations[ts[0]].project(decomp.jstructure.scope(fid))
    return out


def check_j_consistency_relational(tables, jstructure, relations, tol=1e-9):
    """Def-style relational consistency with supplied witness relations:
    every relation is a non-empty subset of its factor's minimizer set and
    projects exactly onto the target's relation along every closed edge."""
    js = jstructure
    per_edge, witnesses = {}, {}
    for fid, rel in relations.items():
        amin = argmin_relation(tables[fid], js.scope(fid), tol)
        if rel.empty or (rel.mask & ~amin.mask).any():
            per_edge[("subset", fid)] = False
            witnesses[("subset", fid)] = (rel.states(), amin.states())
    for a, b in sorted(js.closed_edges):
        if a not in relations or b not in relations:
            continue
        proj = relations[a].project(js.scope(b))
        ok = bool(np.array_equal(proj.mask, relations[b].mask))
        per_edge[(a, b)] = ok
        if not ok:
            witnesses[(a, b)] = (proj.states(), relations[b].states())
    return ConsistencyReport(per_edge, witnesses)


def map_wta_to_jconsistent(decomp, params, tol=1e-9, check=True):
    """Collapse a tree-agreement fixpoint onto per-factor costs, preserving
    the bound.

    Chain members are eliminated left to right: the remainder of the chain is
    first min-marginalized onto the member, then every local table is absorbed
    into it.  Separators end up identically zero, so the per-factor bound of
    the weighted sum equals the decomposition bound of the input.
    """
    if check:
        report = check_ewta(decomp, params, tol)
        if not report.holds:
            raise NotAtFixpoint(
                f"tree agreement fails at factors {report.failing()}"
            )
    work = params.copy()
    js = decomp.jstructure
    for t, chain in enumerate(decomp.chains):
        for i, a in enumerate(chain):
            for j in range(len(chain) - 1, i, -1):
                send_message(decomp, work, t, chain[j], decomp.sep_minus[chain[j]])
            scope_a = js.scope(a)
            for c in sorted(js.locals[a]):
                if c == a:
                    continue
                tbl = work.tables[t][c]
                work.tables[t][a] = work.tables[t][a] + embed(tbl, js.scope(c), scope_a)
                work.tables[t][c] = np.zeros_like(tbl)
    return cumulative_tables(decomp, work)


def map_jconsistent_to_wta(decomp, tables, tol=1e-9, check=True):
    """Spread per-factor costs onto the decomposition, preserving the bound.

    Every separator's table moves into its first covering outer factor, then
    each outer factor's cost is scaled into its chain; separators are zero in
    every subproblem.
    """
    js = decomp.jstructure
    if check:
        report = check_j_consistency_enhanced(tables, js, tol)
        if not report.holds:
            raise NotAtFixpoint(
                f"minimizer consistency fails on edges {report.failing()}"
            )
    work = [t.copy() for t in tables]
    # each factor's first covering outer factor in sigma order (last write wins)
    outer = sigma_sorted(js, decomp.node_pos, js.outer)
    first_cover = {c: a for a in reversed(outer) for c in js.locals[a]}
    for b in decomp.separator_order:
        a = first_cover.get(b)
        if a is None:
            raise NotAtFixpoint(f"separator {b} has no covering outer factor")
        work[a] = work[a] + embed(work[b], js.scope(b), js.scope(a))
        work[b] = np.zeros_like(work[b])
    out = []
    for t in range(len(decomp.chains)):
        d = {}
        for fid in sorted(decomp.tree_factors[t]):
            if fid in js.outer:
                d[fid] = work[fid] / decomp.rho[t]
            else:
                d[fid] = np.zeros_like(work[fid])
        out.append(d)
    return TreeParams(out)


def extract_primal(decomp, source):
    """Greedy rounding of a dual state into a labeling.

    Nodes are fixed in the node order; each node minimizes the sum of the
    reparameterized tables of the factors it completes, conditioned on the
    labels already chosen.  Ties take the lowest label.
    """
    if isinstance(source, ChainSolverState):
        tables = chain_state_factor_tables(decomp, source)
    elif isinstance(source, TreeParams):
        tables = cumulative_tables(decomp, source)
    else:
        tables = list(source)
    model = decomp.model
    js = decomp.jstructure
    pos = decomp.node_pos
    by_last = {v: [] for v in range(model.node_count)}
    for fid, scope in enumerate(js.scopes):
        last = max(scope, key=pos.__getitem__)
        by_last[last].append(fid)

    labeling = [0] * model.node_count
    for v in decomp.node_order:
        scores = np.zeros(model.label_counts[v])
        for fid in by_last[v]:
            scope = js.scope(fid)
            idx = tuple(
                slice(None) if u == v else labeling[u] for u in scope
            )
            scores += tables[fid][idx]
        labeling[v] = int(np.argmin(scores))
    return tuple(labeling)


def cumulative_tables(decomp, params):
    """Probability-weighted sum of the per-subproblem tables, per factor."""
    out = [np.zeros_like(f.table) for f in decomp.model.factors]
    for t in range(len(decomp.chains)):
        for fid, tbl in params.tables[t].items():
            out[fid] = out[fid] + decomp.rho[t] * tbl
    return out


def nu_table(decomp, params, t, fid):
    """Local sum at a factor: its own table plus all nested local tables."""
    js = decomp.jstructure
    scope = js.scope(fid)
    pairs = [(js.scope(c), params.tables[t][c]) for c in sorted(js.locals[fid])]
    return accumulate(pairs, scope, decomp.model.label_counts)


def send_message(decomp, params, t, src, dst):
    """Shift cost from `src` to `dst` so the edge holds a valid message.

    The shift is the gap between the source's min-marginal over the target
    scope and the target's local sum; afterwards the two agree for every
    target state.  The subproblem's energy function is unchanged.
    """
    js = decomp.jstructure
    if (src, dst) not in js.closed_edges:
        raise InvalidEdge(f"({src}, {dst}) is not a closed marginalization edge")
    if src not in decomp.tree_factors[t] or dst not in decomp.tree_factors[t]:
        raise FactorNotInTree(f"edge ({src}, {dst}) leaves subproblem {t}")
    scope_s, scope_d = js.scope(src), js.scope(dst)
    nu_s = nu_table(decomp, params, t, src)
    nu_d = nu_table(decomp, params, t, dst)
    params.cells += nu_s.size
    delta = reduce_min(nu_s, scope_s, scope_d) - nu_d
    params.tables[t][src] = params.tables[t][src] - embed(delta, scope_d, scope_s)
    params.tables[t][dst] = params.tables[t][dst] + delta
    return delta


def tree_min_marginal(decomp, params, t, target):
    """Reparameterize subproblem `t` so the target's local sum is the exact
    min-marginal of the subproblem energy, and return that table.

    Messages are sent inward along the chain toward a member containing the
    target, then once from that member to the target itself.
    """
    if target not in decomp.tree_factors[t]:
        raise FactorNotInTree(f"factor {target} is not in subproblem {t}")
    js = decomp.jstructure
    chain = decomp.chains[t]
    root_idx = next(i for i, a in enumerate(chain) if target in js.locals[a])
    for i in range(root_idx):
        send_message(decomp, params, t, chain[i], decomp.sep_plus[chain[i]])
    for i in range(len(chain) - 1, root_idx, -1):
        send_message(decomp, params, t, chain[i], decomp.sep_plus[chain[i - 1]])
    root = chain[root_idx]
    if root != target:
        send_message(decomp, params, t, root, target)
    return nu_table(decomp, params, t, target)


def collect_local_sums(decomp, params, b):
    return {t: nu_table(decomp, params, t, b) for t in decomp.trees_of.get(b, ())}


def average_factor(decomp, params, b, sums=None):
    """Replace each subproblem's local sum at a separator by their
    probability-weighted mean, shifting only the separator's own table."""
    if b not in decomp.jstructure.separators:
        raise NotASeparator(f"factor {b} is not a separator")
    if sums is None:
        sums = collect_local_sums(decomp, params, b)
    if not sums:
        return None
    avg = sum(decomp.rho[t] * nu for t, nu in sums.items()) / decomp.rho_factor[b]
    for t, nu in sums.items():
        params.tables[t][b] = params.tables[t][b] + (avg - nu)
    return avg


def trws_general_pass(decomp, params, order=None, monitor=None):
    """One full sweep of min-marginal averaging over the separators.

    Every separator is brought to exact min-marginals in every subproblem
    containing it before being averaged, so the bound cannot decrease at any
    single averaging.  `monitor(b, before, after)` sees the bound around each
    averaging when supplied.  Returns the bound after the sweep.
    """
    if order is None:
        order = decomp.separator_order
    for b in order:
        sums = {}
        for t in decomp.trees_of.get(b, ()):
            sums[t] = tree_min_marginal(decomp, params, t, b)
        before = bound(decomp, params) if monitor is not None else None
        average_factor(decomp, params, b, sums=sums)
        if monitor is not None:
            monitor(b, before, bound(decomp, params))
    return bound(decomp, params)


def _general_steps(decomp):
    # explicit-table state and its pass step, alternating the separator order
    params = init_tree_params(decomp)
    orders = {"forward": decomp.separator_order, "backward": decomp.separator_order[::-1]}

    def step(k):
        direction = "backward" if k % 2 else "forward"
        return direction, trws_general_pass(decomp, params, orders[direction]), params.cells

    return params, step


@dataclass
class ExplicitChainState:
    """Chain sweep bookkeeping over explicit per-subproblem tables."""

    params: TreeParams
    child: dict
    direction: str = "forward"
    pass_index: int = 0


def explicit_chain_init(decomp):
    child = {a: decomp.sep_minus[a] for a in decomp.jstructure.outer}
    return ExplicitChainState(params=init_tree_params(decomp), child=child)


def trws_explicit_pass(decomp, state, direction=None, on_average=None):
    """Chain sweep with one message per separator and subproblem.

    Each chain tracks its current member; each outer factor remembers its last
    message target, which stays valid across steps, so a single send per
    subproblem restores exact min-marginals at the separator being averaged
    (from the second sweep onward).  `on_average` receives
    (pass_index, direction, separator, {subproblem: local sum}) right before
    each averaging.
    """
    if direction is None:
        direction = state.direction
    _check_option("direction", direction, ("forward", "backward"))
    forward = direction == "forward"
    order = decomp.separator_order if forward else tuple(reversed(decomp.separator_order))
    cur = {
        t: (chain[0] if forward else chain[-1]) for t, chain in enumerate(decomp.chains)
    }

    for b in order:
        for t in decomp.trees_of.get(b, ()):
            a = cur[t]
            if state.child[a] != b:
                send_message(decomp, state.params, t, a, b)
                state.child[a] = b
            edge_sep = decomp.sep_plus[a] if forward else decomp.sep_minus[a]
            if b == edge_sep:
                chain = decomp.chains[t]
                k = chain.index(a)
                nxt = k + 1 if forward else k - 1
                if 0 <= nxt < len(chain):
                    cur[t] = chain[nxt]
        sums = collect_local_sums(decomp, state.params, b)
        if on_average is not None:
            on_average(state.pass_index, direction, b, sums)
        average_factor(decomp, state.params, b, sums=sums)

    state.pass_index += 1
    state.direction = "backward" if forward else "forward"
    return bound(decomp, state.params)
