"""Exhaustive oracles and fixpoint diagnostics.

Everything here enumerates joint states, guarded by a hard cap, and exists to
check the fast solvers: exact minimization, exact min-marginals, agreement of
subproblem minimizer sets across a decomposition, per-edge minimizer
consistency, the two bound-preserving mappings between the chain and the
per-factor dual fixpoints, and a greedy primal rounding.
"""

from dataclasses import dataclass

import numpy as np

from ._tables import accumulate, embed, reduce_min
from .decomposition import sigma_key
from .errors import NotAtFixpoint, TooLarge
from .trws import (
    ChainSolverState,
    TreeParams,
    chain_state_factor_tables,
    cumulative_tables,
    send_message,
)

STATE_SPACE_GUARD = 10**7


def _space(label_counts, nodes):
    total = 1
    for v in nodes:
        total *= label_counts[v]
    return total


def _guard(label_counts, nodes, what):
    size = _space(label_counts, nodes)
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
    relations = {
        t: tree_argmin_relation(decomp, params, t, tol)
        for t in range(len(decomp.chains))
    }
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
    relations = {
        t: tree_argmin_relation(decomp, params, t, tol)
        for t in range(len(decomp.chains))
    }
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
    pos = decomp.node_pos
    sig = {a: sigma_key(js.scope(a), pos) for a in js.outer}
    for b in decomp.separator_order:
        covers = sorted((a for a in js.outer if b in js.locals[a]), key=sig.__getitem__)
        if not covers:
            raise NotAtFixpoint(f"separator {b} has no covering outer factor")
        a = covers[0]
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

