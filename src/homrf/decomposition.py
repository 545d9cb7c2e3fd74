"""Monotonic junction-chain decompositions.

Outer factors are covered by ordered chains whose consecutive members overlap
in a separator factor, with every node of the earlier factor's private part
preceding the separator and the separator preceding the later factor's private
part under a fixed total node order.  The node order is extended to a total
order on separator factors; each outer factor then owns a contiguous window of
separators that the solvers sweep.  A one-node factor has no window bounds,
so it can only be a chain of its own.  A `Decomposition` derives all of this
once, when it is built, and is frozen, so no assignment leaves it stale.
Every entry point that takes a node order raises `ValueError` unless it is a
permutation of the model's nodes, or, given a J structure alone, of the
nodes its scopes hold.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._plan import Bindings, storage_layout
from ._tables import table_shape
from .errors import HomrfError, MissingSeparatorFactor
from .model import Factor, Model, _as_int, _gc_paused, _is_finite_real, close_j


def sigma_key(scope, pos):
    """Sort key for factor scopes: (min, max, remaining nodes ascending)."""
    return _rank_key(sorted(pos[v] for v in scope))


def _rank_key(ranks):
    # `sigma_key` of a scope whose node positions, sorted, are `ranks`
    return (ranks[0], ranks[-1], *ranks[1:-1])


def _sigma_keys(scopes, pos):
    # `sigma_key` of each scope; a one- or two-node scope, as most of a
    # grid's are, is keyed without a sort
    keys = []
    for s in scopes:
        if len(s) == 1:
            r = pos[s[0]]
            keys.append((r, r))
        elif len(s) == 2:
            x, y = pos[s[0]], pos[s[1]]
            keys.append((x, y) if x < y else (y, x))
        else:
            keys.append(sigma_key(s, pos))
    return keys


def sigma_sorted(scopes, pos, fids):
    """The factor ids `fids` sorted by `sigma_key` of their `scopes` under
    node positions `pos`."""
    return sorted(fids, key=lambda f: sigma_key(scopes[f], pos))


def extend_order_to_separators(jstructure, node_order):
    """Total order on separator factors extending the node order.

    Separators are sorted lexicographically by (min, max, rest); comparing
    first on min and then on max guarantees that windows of consecutive chain
    factors meet exactly at their shared separator.
    """
    pos = _node_pos(node_order, jstructure._nodes)
    return tuple(sigma_sorted(jstructure.scopes, pos, jstructure.separators))


def _node_pos(node_order, nodes):
    # each node's position in `node_order`, which must be a permutation of
    # `nodes`; its keys are the order's nodes, as ints, in order
    pos = {_as_int(v, "node"): i for i, v in enumerate(node_order)}
    if len(pos) != len(node_order):
        raise ValueError("node order repeats a node")
    if pos.keys() != set(nodes):
        raise ValueError("node order is not a permutation of the nodes")
    return pos


def sep_bounds(jstructure, node_order, chain, outer_factor):
    """Left and right separators of an outer factor within its chain.

    Interior chain members use the intersection with their neighbor; the first
    and last fall back to the singleton of their minimal / maximal node.
    """
    pos = _node_pos(node_order, jstructure._nodes)
    i = list(chain).index(outer_factor)
    scope = jstructure.scope(outer_factor)
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
    return (
        _bound(jstructure, left, "left", outer_factor),
        _bound(jstructure, right, "right", outer_factor),
    )


def _bound(jstructure, s, side, outer_factor):
    # the separator factor of scope s, the outer factor's `side` bound
    fid = jstructure._index.get(s)
    if fid not in jstructure.separators:
        raise MissingSeparatorFactor(
            f"{side} separator {s} of factor {outer_factor} is not a separator factor"
        )
    return fid


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


def _joint(prev_ranks, prev_nodes, next_ranks, next_nodes):
    """The nodes two factors share, sorted, if `_eq15_holds` for them, else
    None; from each one's node set and sorted node positions.  It holds when
    the k shared nodes are the earlier factor's last k positions and the
    later one's first k, and each factor holds a node the other lacks."""
    shared = prev_nodes & next_nodes
    k = len(shared)
    if 0 < k < len(prev_ranks) and k < len(next_ranks) and prev_ranks[-k:] == next_ranks[:k]:
        return tuple(sorted(shared))
    return None


class FrozenDict(dict):
    """A dict whose every mutator raises `TypeError`.  Pickles and copies
    rebuild it from its items, so they stay read-only too (unlike a
    `types.MappingProxyType`, which does not pickle)."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Decomposition:
    """A chain cover of the outer factors plus everything derived from it.

    The inputs are the model, its J structure, the node order, the chains,
    their probabilities `rho` and the augmented factors.  Every other field
    follows from them and is derived once, in `__post_init__`: the node
    positions, the separator order, each outer factor's window bounds
    `sep_minus` / `sep_plus` and window, the per-factor probabilities, the
    subproblems and the message edges.  Each factor's `sigma_key` is taken
    once and orders both the separators and the outer factors.  One pass over
    the chains then gives each member its bounds, as `sep_bounds` does, with
    a member's left bound the joint separator its predecessor found as its
    right one, and its window, as `local_separator_window` does, from the
    separator ranks of its locals.  A decomposition is frozen: assigning
    a field raises `FrozenInstanceError`, so none is left stale, and
    `dataclasses.replace` builds a new decomposition that derives them all
    anew.  Its mappings are `FrozenDict`s, so no entry can be edited either.
    A node order that is not a permutation of the model's nodes raises
    `ValueError`, a window bound that is not a separator factor of the J
    structure `MissingSeparatorFactor`, and a `rho` without one finite
    positive real number per chain, a string such as "0.5" included,
    `HomrfError`.  So does a one-node member of a chain of several: it has
    no window bounds, so no window that meets its neighbours'.  `rho` is
    kept as Python floats.
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
        fix = partial(object.__setattr__, self)  # the one place fields are set
        if len(self.rho) != len(self.chains):
            raise HomrfError(f"{len(self.rho)} chain probabilities for {len(self.chains)} chains")
        for t, r in enumerate(self.rho):
            if not (_is_finite_real(r) and r > 0):
                raise HomrfError(f"chain {t} has probability {r!r}, not a finite positive number")
        fix("rho", tuple(map(float, self.rho)))
        js, chains = self.jstructure, self.chains
        scopes, locals_ = js.scopes, js.locals
        pos = _node_pos(self.node_order, range(self.model.node_count))
        nodes = tuple(pos)  # the node at each position
        key = _sigma_keys(scopes, pos)
        order = tuple(sorted(js.separators, key=key.__getitem__))
        rank = {b: i for i, b in enumerate(order)}
        fix("node_pos", FrozenDict(pos))
        fix("separator_order", order)
        fix("sep_rank", FrozenDict(rank))
        # each member's bounds, as `sep_bounds` gives them, and its window,
        # as `local_separator_window` does; a member's left bound is the
        # joint separator its predecessor found as its right bound
        sep_minus, sep_plus, windows = {}, {}, {}
        for t, chain in enumerate(chains):
            last = len(chain) - 1
            for i, a in enumerate(chain):
                if len(scopes[a]) == 1:
                    if last:
                        raise HomrfError(f"chain {t}: one-node member {a} has no window bounds")
                    sep_minus[a] = sep_plus[a] = None
                    windows[a] = ()
                    continue
                left = right if i else _bound(js, (nodes[key[a][0]],), "left", a)
                if i < last:
                    s = tuple(sorted(set(scopes[a]).intersection(scopes[chain[i + 1]])))
                else:
                    s = (nodes[key[a][1]],)
                right = _bound(js, s, "right", a)
                sep_minus[a], sep_plus[a] = left, right
                lo, hi = rank[left], rank[right]
                ranks = [r for b in locals_[a] if lo <= (r := rank.get(b, -1)) <= hi]
                windows[a] = tuple([order[r] for r in sorted(ranks)])
        fix("sep_minus", FrozenDict(sep_minus))
        fix("sep_plus", FrozenDict(sep_plus))
        fix("local_separators", FrozenDict(windows))
        fix("tree_factors", tuple(
            frozenset().union(*(locals_[a] for a in chain)) for chain in chains
        ))
        trees_of = {}
        rho_factor = {}
        for t, (fs, r) in enumerate(zip(self.tree_factors, self.rho)):
            for c in fs:
                trees_of.setdefault(c, []).append(t)
                rho_factor[c] = rho_factor.get(c, 0.0) + r
        fix("trees_of", FrozenDict({c: tuple(ts) for c, ts in trees_of.items()}))
        fix("rho_factor", FrozenDict(rho_factor))
        fix("tree_nodes", tuple(
            tuple(sorted(set().union(*(scopes[a] for a in chain)))) for chain in chains
        ))
        fix("message_edges", tuple(
            (a, b) for a in sorted(js.outer, key=key.__getitem__) for b in windows.get(a, ())
        ))

    @cached_property
    def _chain_programs(self):
        # compiled chain DPs by the chains they solve (`_plan.chain_program`),
        # each built on first use; a pass builds one only for the chains its
        # bound re-solves.  A copy or a pickle starts empty.
        return Bindings()

    @cached_property
    def _layout(self):
        # rows of a solver state's stacked messages and separator caches,
        # from the message edges and separator order alone
        return storage_layout(self)


@_gc_paused
def build_monotonic_chains(model, jstructure, node_order=None):
    """Cover the outer factors with monotonic chains.

    Missing singleton factors, missing chain-intersection factors and the
    corresponding marginalization edges are added with zero cost tables;
    zero additions leave every labeling's cost and the existing constraints
    untouched.  Outer factors are visited in scope order and appended to the
    first open chain whose tail admits them; a factor no chain admits opens a
    new one.  Only the chains whose tail shares a node with the factor can
    admit it, so only those are tried, in the order they were opened.  Each
    outer factor's node set and sorted node positions are taken once, and a
    tail admits a factor when `_joint` finds them monotonic, which is
    `_eq15_holds` on those positions; the shared nodes it returns name the
    chain-intersection factor.
    Closure adds edges only into factors some edge already targets, so the
    outer factors are read off the raw edges and J is closed at most once, at
    the end: the augmented edges are closed from scratch, or the J it was
    given is returned when it added nothing.  Chain probabilities are
    uniform.  The node order, by default id order, must be a permutation of
    the model's nodes.
    """
    nodes = range(model.node_count)
    pos = _node_pos(nodes if node_order is None else node_order, nodes)
    node_order = tuple(pos)

    scopes = list(model.scopes)
    index = {s: i for i, s in enumerate(scopes)}
    edges = set(jstructure.edges)
    added = []

    def ensure_factor(scope):
        fid = index.get(scope)
        if fid is None:
            fid = len(scopes)
            scopes.append(scope)
            index[scope] = fid
            added.append(scope)
        return fid

    for v in nodes:
        ensure_factor((v,))
    for fid, s in enumerate(list(scopes)):
        if len(s) >= 2:
            for v in s:
                edges.add((fid, index[(v,)]))
    targets = {b for _, b in edges}

    # Monotonicity alone keeps running intersection: a node a member does not
    # share with its successor precedes every node of that successor, hence
    # of every later member, so no later member can hold it again.
    outer = [f for f in range(len(scopes)) if f not in targets]
    ranks = {a: sorted(map(pos.__getitem__, scopes[a])) for a in outer}
    sets = {a: frozenset(scopes[a]) for a in outer}
    chains, joints = [], []  # joints[c][i]: the nodes chains[c][i] and [i + 1] share
    at_tail = [[] for _ in nodes]  # node -> chains whose tail holds it
    for a in sorted(outer, key=lambda f: _rank_key(ranks[f])):  # sigma_key
        for c in sorted({c for v in sets[a] for c in at_tail[v]}):
            tail = chains[c][-1]
            joint = _joint(ranks[tail], sets[tail], ranks[a], sets[a])
            if joint:
                for v in sets[tail]:
                    at_tail[v].remove(c)
                chains[c].append(a)
                joints[c].append(joint)
                break
        else:
            c = len(chains)
            chains.append([a])
            joints.append([])
        for v in sets[a]:
            at_tail[v].append(c)

    for chain, joint in zip(chains, joints):
        for i, s in enumerate(joint):
            fid = ensure_factor(s)
            edges.add((chain[i], fid))
            edges.add((chain[i + 1], fid))

    js = jstructure
    if added or edges != js.edges or js.scopes != model.scopes:
        js = close_j(scopes, edges)
    if added:
        # the given factors as they are, unless a table needs a C-contiguous copy
        counts = model.label_counts
        model = Model(counts, [
            f if f.table.flags.c_contiguous else Factor(f.scope, np.ascontiguousarray(f.table))
            for f in model.factors
        ] + [Factor(s, np.zeros(table_shape(s, counts))) for s in added])

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
