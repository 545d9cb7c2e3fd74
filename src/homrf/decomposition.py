"""Monotonic junction-chain decompositions.

Outer factors are covered by ordered chains whose consecutive members overlap
in a separator factor, with every node of the earlier factor's private part
preceding the separator and the separator preceding the later factor's private
part under a fixed total node order.  The node order is extended to a total
order on separator factors; each outer factor then owns a contiguous window of
separators that the solvers sweep.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._plan import build_sweep_plan
from ._tables import table_shape
from .errors import MissingSeparatorFactor
from .model import Factor, Model, close_j


def sigma_key(scope, pos):
    """Sort key for factor scopes: (min, max, remaining nodes ascending)."""
    ranks = sorted(pos[v] for v in scope)
    if len(ranks) == 1:
        return (ranks[0], ranks[0])
    return (ranks[0], ranks[-1], *ranks[1:-1])


def sigma_sorted(jstructure, pos, fids):
    """The factor ids `fids` sorted by `sigma_key` under node positions `pos`."""
    return sorted(fids, key=lambda f: sigma_key(jstructure.scope(f), pos))


def extend_order_to_separators(jstructure, node_order):
    """Total order on separator factors extending the node order.

    Separators are sorted lexicographically by (min, max, rest); comparing
    first on min and then on max guarantees that windows of consecutive chain
    factors meet exactly at their shared separator.
    """
    return tuple(sigma_sorted(jstructure, _node_pos(node_order), jstructure.separators))


def _node_pos(node_order):
    pos = {v: i for i, v in enumerate(node_order)}
    if len(pos) != len(node_order):
        raise ValueError("node order repeats a node")
    return pos


def sep_bounds(jstructure, node_order, chain, outer_factor):
    """Left and right separators of an outer factor within its chain.

    Interior chain members use the intersection with their neighbor; the first
    and last fall back to the singleton of their minimal / maximal node.
    """
    pos = _node_pos(node_order)
    i = list(chain).index(outer_factor)
    return _sep_bounds(jstructure, pos, _scope_index(jstructure), chain, i)


def _scope_index(jstructure):
    return {s: f for f, s in enumerate(jstructure.scopes)}


def _sep_bounds(jstructure, pos, index, chain, i):
    # `sep_bounds` for chain member i, given the node positions and the
    # scope -> factor index, which stay fixed across a whole decomposition
    outer_factor = chain[i]
    scope = jstructure.scope(outer_factor)

    def lookup(s, side):
        fid = index.get(s)
        if fid not in jstructure.separators:
            raise MissingSeparatorFactor(
                f"{side} separator {s} of factor {outer_factor} is not a separator factor"
            )
        return fid

    if len(scope) == 1:
        return None, None
    if i > 0:
        left = tuple(sorted(set(jstructure.scope(chain[i - 1])) & set(scope)))
    else:
        left = (min(scope, key=lambda v: pos[v]),)
    if i < len(chain) - 1:
        right = tuple(sorted(set(scope) & set(jstructure.scope(chain[i + 1]))))
    else:
        right = (max(scope, key=lambda v: pos[v]),)
    return lookup(left, "left"), lookup(right, "right")


def local_separator_window(decomposition, outer_factor):
    """Separators of an outer factor's locals that fall inside its bounds."""
    d = decomposition
    lo = d.sep_minus.get(outer_factor)
    hi = d.sep_plus.get(outer_factor)
    if lo is None:
        return ()
    rank = d.sep_rank
    members = [
        b
        for b in d.jstructure.locals[outer_factor]
        if b in d.jstructure.separators and rank[lo] <= rank[b] <= rank[hi]
    ]
    return tuple(sorted(members, key=rank.__getitem__))


def _eq15_holds(prev_scope, next_scope, pos):
    """Every private node of the earlier factor precedes the shared nodes,
    which precede the private nodes of the later factor."""
    shared = set(prev_scope) & set(next_scope)
    if not shared:
        return False
    if shared == set(prev_scope) or shared == set(next_scope):
        return False
    left = max(pos[v] for v in set(prev_scope) - shared)
    lo = min(pos[v] for v in shared)
    hi = max(pos[v] for v in shared)
    right = min(pos[v] for v in set(next_scope) - shared)
    return left < lo and hi < right


@dataclass
class Decomposition:
    """A chain cover of the outer factors plus everything derived from it.

    The inputs are the model, its J structure, the node order, the chains,
    their probabilities `rho` and the augmented factors.  Every other field
    follows from them and is derived in `__post_init__`: the node positions,
    the separator order, each outer factor's window bounds `sep_minus` /
    `sep_plus` and window, the per-factor probabilities, the subproblems and
    the message edges.  `dataclasses.replace` therefore re-derives them all.
    A chain whose window bound is not a separator factor of the J structure
    raises `MissingSeparatorFactor`.
    """

    model: Model
    jstructure: object
    node_order: tuple
    chains: tuple
    rho: tuple
    augmented_factors: tuple = ()

    node_pos: dict = field(init=False, repr=False)
    separator_order: tuple = field(init=False)
    sep_rank: dict = field(init=False, repr=False)
    sep_minus: dict = field(init=False)
    sep_plus: dict = field(init=False)
    rho_factor: dict = field(init=False)
    local_separators: dict = field(init=False)
    trees_of: dict = field(init=False, repr=False)
    tree_factors: tuple = field(init=False)
    tree_nodes: tuple = field(init=False)
    message_edges: tuple = field(init=False)

    def __post_init__(self):
        js = self.jstructure
        pos = self.node_pos = _node_pos(self.node_order)
        self.separator_order = extend_order_to_separators(js, self.node_order)
        self.sep_rank = {b: i for i, b in enumerate(self.separator_order)}
        index = _scope_index(js)
        self.sep_minus, self.sep_plus = {}, {}
        for chain in self.chains:
            for i, a in enumerate(chain):
                self.sep_minus[a], self.sep_plus[a] = _sep_bounds(js, pos, index, chain, i)
        self.local_separators = {
            a: local_separator_window(self, a) for chain in self.chains for a in chain
        }
        self.tree_factors = tuple(
            frozenset().union(*(js.locals[a] for a in chain)) for chain in self.chains
        )
        trees_of = {}
        rho_factor = {}
        for t, fs in enumerate(self.tree_factors):
            for c in fs:
                trees_of.setdefault(c, []).append(t)
                rho_factor[c] = rho_factor.get(c, 0.0) + self.rho[t]
        self.trees_of = {c: tuple(ts) for c, ts in trees_of.items()}
        self.rho_factor = rho_factor
        self.tree_nodes = tuple(
            tuple(sorted({v for a in chain for v in js.scope(a)}))
            for chain in self.chains
        )
        self.message_edges = tuple(
            (a, b)
            for a in sigma_sorted(js, pos, js.outer)
            for b in self.local_separators.get(a, ())
        )

    @cached_property
    def _sweep_plan(self):
        # built by the first sweep or bound, not at construction: set-up
        # that never solves pays nothing for it
        return build_sweep_plan(self)


def build_monotonic_chains(model, jstructure, node_order=None):
    """Cover the outer factors with monotonic chains.

    Missing singleton factors, missing chain-intersection factors and the
    corresponding marginalization edges are added with zero cost tables before
    the closure is recomputed; zero additions leave every labeling's cost and
    the existing constraints untouched.  Outer factors are visited in scope
    order and appended to the first open chain whose tail admits them; a
    factor no chain admits opens a new one.  Chain probabilities are uniform.
    """
    if node_order is None:
        node_order = tuple(range(model.node_count))
    node_order = tuple(int(v) for v in node_order)
    pos = _node_pos(node_order)
    if sorted(node_order) != list(range(model.node_count)):
        raise ValueError("node order is not a permutation of the nodes")

    scopes = list(model.scopes)
    tables = [f.table for f in model.factors]
    index = {s: i for i, s in enumerate(scopes)}
    edges = set(jstructure.edges)
    added = []

    def ensure_factor(scope):
        fid = index.get(scope)
        if fid is None:
            fid = len(scopes)
            scopes.append(scope)
            tables.append(np.zeros(table_shape(scope, model.label_counts)))
            index[scope] = fid
            added.append(scope)
        return fid

    for v in range(model.node_count):
        ensure_factor((v,))
    for fid, s in enumerate(list(scopes)):
        if len(s) >= 2:
            for v in s:
                edges.add((fid, index[(v,)]))

    if edges == jstructure.edges and tuple(scopes) == jstructure.scopes:
        js = jstructure
    else:
        js = close_j(scopes, edges)

    # Monotonicity alone keeps running intersection: a node a member does not
    # share with its successor precedes every node of that successor, hence
    # of every later member, so no later member can hold it again.
    chains = []
    for a in sigma_sorted(js, pos, js.outer):
        scope_a = js.scope(a)
        for chain in chains:
            if _eq15_holds(js.scope(chain[-1]), scope_a, pos):
                chain.append(a)
                break
        else:
            chains.append([a])

    for chain in chains:
        for i in range(len(chain) - 1):
            s = tuple(sorted(set(js.scope(chain[i])) & set(js.scope(chain[i + 1]))))
            fid = ensure_factor(s)
            edges.add((chain[i], fid))
            edges.add((chain[i + 1], fid))

    if len(scopes) != len(model.scopes) or edges != set(jstructure.edges):
        model = Model(
            model.label_counts,
            [Factor(s, np.ascontiguousarray(t)) for s, t in zip(scopes, tables)],
        )
        js = close_j(scopes, edges)

    return Decomposition(
        model=model,
        jstructure=js,
        node_order=node_order,
        chains=tuple(tuple(c) for c in chains),
        rho=tuple([1.0 / len(chains)] * len(chains)) if chains else (),
        augmented_factors=tuple(added),
    )


@dataclass
class Violation:
    code: str
    detail: str


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations

    def codes(self):
        return sorted({v.code for v in self.violations})


def validate_decomposition(model, jstructure, decomposition):
    """Check the structural requirements of a chain decomposition.

    Violations are reported, not raised, so a deliberately broken structure
    can be inspected.  Checks what a chain cover, and the J structure passed
    with it, can break: the cover itself, nested locals, window coverage and
    bounds, and the chain probabilities.  What `Decomposition` derives by
    construction (the separator order, the window bound lookups, the
    per-factor probabilities) is not checked again.
    """
    d = decomposition
    js = jstructure
    pos = d.node_pos
    out = []

    def bad(code, detail):
        out.append(Violation(code, detail))

    # each subproblem is the union of its outer factors' locals
    for t, chain in enumerate(d.chains):
        want = frozenset().union(*(js.locals[a] for a in chain))
        if d.tree_factors[t] != want:
            bad("tree-factors", f"chain {t} stores a factor set differing from its locals union")

    # running intersection along each chain
    for t, chain in enumerate(d.chains):
        scopes = [set(js.scope(a)) for a in chain]
        for i in range(len(chain)):
            for j in range(i + 2, len(chain)):
                inter = scopes[i] & scopes[j]
                for k in range(i + 1, j):
                    if not inter <= scopes[k]:
                        bad(
                            "running-intersection",
                            f"chain {t}: {chain[i]} and {chain[j]} intersect outside {chain[k]}",
                        )

    # the joint separator of consecutive members is local to both
    for t, chain in enumerate(d.chains):
        for a, b in zip(chain, chain[1:]):
            fid = d.sep_plus[a]
            if fid not in js.locals[a] or fid not in js.locals[b]:
                bad("neighbor-separator", f"chain {t}: factor {fid} not local to both {a} and {b}")

    # singleton locals everywhere
    for fid, scope in enumerate(js.scopes):
        for v in scope:
            single = model.factor_id((v,))
            if single is None or (single != fid and single not in js.locals[fid]):
                bad("singleton-local", f"factor {fid} lacks the singleton of node {v}")

    # every outer factor in exactly one chain
    seen = Counter(a for chain in d.chains for a in chain)
    for a in js.outer:
        if seen.get(a, 0) != 1:
            bad("outer-cover", f"outer factor {a} appears in {seen.get(a, 0)} chains")
    for a, k in seen.items():
        if a not in js.outer:
            bad("outer-cover", f"chain member {a} is not an outer factor")

    # monotonicity of consecutive members
    for t, chain in enumerate(d.chains):
        for i in range(len(chain) - 1):
            if not _eq15_holds(js.scope(chain[i]), js.scope(chain[i + 1]), pos):
                bad("monotonicity", f"chain {t}: {chain[i]} -> {chain[i + 1]} breaks the node order")

    # nested members of one subproblem are locals of each other
    for t in range(len(d.chains)):
        fs = sorted(d.tree_factors[t])
        for a in fs:
            for b in fs:
                if a != b and set(js.scope(b)) < set(js.scope(a)) and b not in js.locals[a]:
                    bad("nested-local", f"chain {t}: {b} inside {a} but not local to it")

    # windows of a chain's factors cover exactly its separators
    for t, chain in enumerate(d.chains):
        union = set().union(*(d.local_separators.get(a, ()) for a in chain))
        want = {c for c in d.tree_factors[t] if c in js.separators}
        if union != want:
            bad("window-cover", f"chain {t}: windows cover {sorted(union)} != {sorted(want)}")

    # each window's right bound follows its left one, which is the previous
    # member's right bound, so the bounds advance along the chain
    rank = d.sep_rank
    for t, chain in enumerate(d.chains):
        if len(js.scope(chain[0])) == 1:
            continue
        for a in chain:
            if rank[d.sep_minus[a]] >= rank[d.sep_plus[a]]:
                bad("window-bounds", f"chain {t}: window of factor {a} does not advance")

    # probability bookkeeping
    if d.chains and abs(sum(d.rho) - 1.0) > 1e-12:
        bad("probabilities", f"chain probabilities sum to {sum(d.rho)}")
    for b in js.separators:
        if not d.trees_of.get(b):
            bad("separator-cover", f"separator {b} belongs to no chain")

    return ValidationReport(out)
