"""Graphical model core: factors over node subsets, marginalization edges, and
the reparameterization arithmetic shared by every solver.

A model is a set of nodes with finite label sets plus a list of cost tables,
one per factor scope.  Scopes are unique keys: callers wanting two cost terms
on one scope must pre-sum them.  Marginalization edges (A, B) with
scope(B) strictly inside scope(A) select which consistency constraints the
relaxation enforces; their closure adds every edge implied by transitivity
and by shared sources with nested targets.
"""

import gc
import math
from itertools import chain, combinations
from dataclasses import dataclass, field
from functools import cached_property, wraps
from numbers import Real
from operator import itemgetter

import numpy as np

from ._tables import embed, restrict, table_shape
from .errors import (
    DuplicateFactor,
    DuplicateNodeInScope,
    InvalidLabeling,
    InvalidMessageEdge,
    NonFiniteCost,
    NotNested,
    TableShapeMismatch,
    TooLarge,
)

_MAX_CELLS = np.iinfo(np.intp).max // np.dtype(float).itemsize  # numpy's largest float table


def _gc_paused(build):
    # Parsing, building and compiling allocate many small tuples, which set
    # off the cyclic collector again and again although they form no cycles.
    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _as_int(x, what, error=ValueError):
    """`x` as an int.  Raises `error` naming `x` unless `x` equals its `int()`,
    so 2.0 and numpy integers pass and 2.5, NaN, inf or "2" do not."""
    if type(x) is int:
        return x
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise error(f"{what} {x!r} is not an integer")
    return i


def _is_finite_real(x):
    """True for a finite real number, numpy's included.  A string, None, a
    complex number or a list is none, though `float()` takes some of them,
    and nor is an int too large for a float."""
    try:
        return isinstance(x, Real) and math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Factor:
    scope: tuple
    table: np.ndarray


class Model:
    """Immutable collection of nodes, label counts and factors."""

    def __init__(self, label_counts, factors):
        self.label_counts = tuple([_as_int(c, "label count") for c in label_counts])
        self.factors = tuple(factors)
        self.scopes = tuple(f.scope for f in self.factors)
        self._scope_index = {f.scope: i for i, f in enumerate(self.factors)}
        for f in self.factors:
            f.table.setflags(write=False)

    def __setstate__(self, state):
        # a deep copy or a pickle holds new arrays, writable until marked again
        self.__dict__.update(state)
        for f in self.factors:
            f.table.setflags(write=False)

    @property
    def node_count(self):
        return len(self.label_counts)

    def factor_id(self, scope):
        return self._scope_index.get(tuple(scope))

    def table(self, fid):
        return self.factors[fid].table

    def scope(self, fid):
        return self.factors[fid].scope

    def __repr__(self):
        return f"Model(nodes={self.node_count}, factors={len(self.factors)})"


def build_model(node_label_counts, factor_list):
    """Validate and canonicalize a model description.

    Each entry of `factor_list` is a (scope, table) pair.  The scope may be
    given in any order; the table, flat or shaped, is read row-major over the
    given order and re-indexed to the sorted scope.  Tables are copied, and
    factors given one table object under one layout share one read-only copy.
    The scopes are checked together first, one property at a time over all of
    them; only when one fails are they checked factor by factor, so that the
    error names the first factor at fault.  Each table copy is checked for
    finite entries on its own.  A label count too large for any cost table
    raises `TooLarge`.
    """
    label_counts = tuple([_as_int(c, "label count") for c in node_label_counts])
    if any(c < 1 for c in label_counts):
        raise ValueError("every node needs at least one label")
    for v, c in enumerate(label_counts):
        if c > _MAX_CELLS:
            raise TooLarge(f"node {v}: label count {c} is too large for a cost table")
    n = len(label_counts)
    factor_list = list(factor_list)
    canonical = _canonical_scopes(factor_list, n)

    factors = []
    seen = {}
    # (id of a given table, its shape, its axis order) -> (that table, its
    # copy); holding the given table keeps its id from being reused
    copies = {}
    for k, (scope_in, table_in) in enumerate(factor_list):
        if canonical:
            scope, axes = scope_in, None
        else:
            scope_in, scope, axes = _checked_scope(k, scope_in, n, seen)
        shape_in = tuple([label_counts[v] for v in scope_in])
        key = (id(table_in), shape_in, axes)
        copy = copies.get(key)
        if copy is None:
            table = np.array(table_in, dtype=float, order="C")
            want = math.prod(shape_in)
            if table.size != want:
                raise TableShapeMismatch(
                    f"factor {k}: table has {table.size} entries, scope {scope_in} needs {want}"
                )
            if not np.isfinite(table).all():
                raise NonFiniteCost(f"factor {k}: non-finite cost entry")
            table = table.reshape(shape_in)
            if axes is not None:
                table = np.ascontiguousarray(np.transpose(table, axes))
            table.setflags(write=False)
            copy = copies[key] = (table_in, table)
        factors.append(Factor(scope, copy[1]))

    return Model(label_counts, factors)


def _canonical_scopes(factor_list, n):
    # True when every scope passes `_checked_scope` as it is: a non-empty
    # tuple of ints in range(n), strictly increasing, and no two equal.  Each
    # property is checked over all scopes in one pass.  An entry that is no
    # pair is left to the loop over the factors, to raise in its turn.
    try:
        scopes = [s for s, _ in factor_list]
    except (TypeError, ValueError):
        return False
    return (
        set(map(type, scopes)) == {tuple}
        and all(scopes)
        and set(map(type, chain.from_iterable(scopes))) == {int}
        and list(map(tuple, map(sorted, map(set, scopes)))) == scopes
        and min(map(itemgetter(0), scopes)) >= 0
        and max(map(itemgetter(-1), scopes)) < n
        and len(set(scopes)) == len(scopes)
    )


def _checked_scope(k, scope_in, n, seen):
    # factor k's scope as given, as ints, its sorted form and the axis order
    # that sorts it (None if sorted); raises on a fault, and on a scope
    # `seen` holds (scope -> factor), to which it adds this one
    scope_in = tuple([v if type(v) is int else _as_int(v, "node") for v in scope_in])
    if not scope_in:
        raise ValueError(f"factor {k}: empty scope")
    scope = tuple(sorted(scope_in))
    if len(set(scope)) != len(scope):
        raise DuplicateNodeInScope(f"factor {k}: scope {scope_in} repeats a node")
    if scope[0] < 0 or scope[-1] >= n:
        raise ValueError(f"factor {k}: scope {scope_in} references an unknown node")
    if scope in seen:
        raise DuplicateFactor(f"factors {seen[scope]} and {k} share scope {scope}")
    seen[scope] = k
    axes = None if scope == scope_in else tuple(np.argsort(scope_in).tolist())
    return scope_in, scope, axes


def check_labeling(model, labeling):
    labeling = tuple([_as_int(x, "label", InvalidLabeling) for x in labeling])
    if len(labeling) != model.node_count:
        raise InvalidLabeling(
            f"labeling has {len(labeling)} entries for {model.node_count} nodes"
        )
    for v, x in enumerate(labeling):
        if x < 0 or x >= model.label_counts[v]:
            raise InvalidLabeling(f"label {x} out of range for node {v}")
    return labeling


def energy(model, labeling):
    """Total cost of a labeling: the sum of each factor's table entry."""
    labeling = check_labeling(model, labeling)
    return float(sum(f.table[restrict(labeling, f.scope)] for f in model.factors))


@dataclass(frozen=True)
class JStructure:
    """Marginalization edge set over factor ids, with its closure.

    `outer` holds the factors with no incoming edge; the rest are separators.
    `locals` maps a factor A to {B : (A, B) closed} plus A itself.
    """

    scopes: tuple
    edges: frozenset
    closed_edges: frozenset
    outer: frozenset
    separators: frozenset
    locals: dict = field(repr=False)

    def scope(self, fid):
        return self.scopes[fid]

    @cached_property
    def _index(self):
        # each scope's factor id, built on first use
        return {s: f for f, s in enumerate(self.scopes)}

    @cached_property
    def _nodes(self):
        # the nodes the scopes hold, built on first use
        return frozenset().union(*self.scopes)


def close_j(scopes, edges):
    """Saturate an edge set under transitivity and nested-target completion.

    Starting from edges (A, B), repeatedly add (A, C) whenever (A, B), (B, C)
    are present, and (B, C) whenever (A, B), (A, C) are present with
    scope(C) strictly inside scope(B), until nothing changes.  Every edge is
    validated and propagated, including when the chain builder closes its
    augmented edges.

    Each factor's targets are kept as one bitset, a Python int whose bit c
    is factor c, and the factors are visited in increasing scope size.
    """
    # `targets[a]` is the bitset of a's targets, `listed[a]` the same ids as
    # a list.  J is closed exactly when, for every edge (a, b),
    # targets[b] == targets[a] & inside(b), with inside(b) the factors whose
    # scope lies strictly inside b's: "⊆" is transitivity, "⊇" the nested
    # targets of b.  Edges only go down in scope size, so a round visits the
    # factors in increasing scope size: a factor ORs in its targets' bitsets,
    # which are final unless a larger factor adds to them later, and then
    # hands each target its share of its own bitset.  The first round visits
    # every factor with targets; a later one, the factors that grew after
    # their sources' visit and the sources of factors that grew in it.
    scopes = tuple(tuple(s) for s in scopes)
    scope_sets = [frozenset(s) for s in scopes]
    n = len(scopes)

    if not isinstance(edges, (set, frozenset)):
        edges = list(edges)
    plain = True  # every edge a tuple of two ints
    for e in edges:
        a, b = e
        if type(a) is not int or type(b) is not int or type(e) is not tuple:
            a, b = _as_int(a, "factor id"), _as_int(b, "factor id")
            plain = False
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) references an unknown factor")
        if not scope_sets[b] < scope_sets[a]:
            raise NotNested(
                f"edge ({a}, {b}): scope {scopes[b]} is not strictly inside {scopes[a]}"
            )
    if plain:
        edge_set = frozenset(edges)
    else:
        edge_set = frozenset([(int(a), int(b)) for a, b in edges])

    empty = [f for f in range(n) if not scope_sets[f]]
    single = {}  # node -> the factors with that one-node scope
    by_set = {}  # any other scope set -> the factors with it
    for f, s in enumerate(scope_sets):
        if len(s) == 1:
            (v,) = s
            single.setdefault(v, []).append(f)
        elif s:
            by_set.setdefault(s, []).append(f)
    inside = [None] * n

    def inside_of(b):
        # the bitset of the factors whose scope lies strictly inside b's:
        # from b's subsets, or from every scope set when those are fewer
        s = scope_sets[b]
        found = list(empty)
        if len(s) > 1:
            for v in s:
                found += single.get(v, ())
        if 1 << len(s) <= len(by_set):
            for r in range(2, len(s)):
                for sub in combinations(s, r):
                    found += by_set.get(frozenset(sub), ())
        else:
            for t, fs in by_set.items():
                if t < s:
                    found += fs
        mask = 0
        for c in found:
            mask |= 1 << c
        inside[b] = mask
        return mask

    # `listed[a]` holds a's targets, `inner[a]` those with a scope inside
    # theirs: any other target has no targets of its own and no share of its
    # sources' targets.  Only an empty scope lies inside a one-node scope.
    inner_size = 1 if empty else 2
    big = [len(s) >= inner_size for s in scope_sets]
    listed = [[] for _ in range(n)]
    inner = [[] for _ in range(n)]
    targets = [0] * n  # a's targets as a bitset: bit c is factor c
    for a, b in edge_set:
        listed[a].append(b)
        targets[a] |= 1 << b
        if big[b]:
            inner[a].append(b)

    added = []  # the edges the closure adds

    def extend(a, new):
        # adds the targets in bitset `new` to a's
        while new:
            low = new & -new
            c = low.bit_length() - 1
            listed[a].append(c)
            if big[c]:
                inner[a].append(c)
            added.append((a, c))
            new ^= low

    sizes = [len(s) for s in scope_sets]
    order = sorted(filter(big.__getitem__, range(n)), key=sizes.__getitem__)
    # the factors a round visits whether or not a target grew: all (None) in
    # the first round, then those that grew after their sources' visit
    pending = None
    while pending is None or pending:
        grown = set()  # factors whose targets grew in this round
        revisit = set()  # factors that grew after their sources' visit
        for a in order:
            t = targets[a]
            if not (t and (pending is None or a in pending) or not grown.isdisjoint(inner[a])):
                continue
            for b in inner[a]:
                t |= targets[b]
            if t != targets[a]:
                extend(a, t ^ targets[a])
                targets[a] = t
            elif pending is not None and a not in pending:
                continue
            if pending is not None:  # a round visiting all needs no `grown`
                grown.add(a)
            for b in inner[a]:
                s = inside[b]
                if s is None:
                    s = inside_of(b)
                share = t & s
                tb = targets[b]
                if share & tb != share:
                    extend(b, share & ~tb)
                    targets[b] = tb | share
                    revisit.add(b)
        pending = revisit

    closed = edge_set.union(added) if added else edge_set
    separators = frozenset().union(*listed)
    outer = frozenset(range(n)).difference(separators)
    locals_ = {a: frozenset([a, *bs]) for a, bs in enumerate(listed)}
    return JStructure(
        scopes=scopes,
        edges=edge_set,
        closed_edges=closed,
        outer=outer,
        separators=separators,
        locals=locals_,
    )


def message_edges(jstructure):
    """Every closed edge out of an outer factor, unlike
    `Decomposition.message_edges`, which holds only the edges into each
    outer factor's window."""
    return frozenset(
        (a, b) for (a, b) in jstructure.closed_edges if a in jstructure.outer
    )


def reparameterized_costs(model, jstructure, messages):
    """Apply messages to the original costs.

    Every outer factor loses the sum of its outgoing messages; every separator
    gains the sum of the incoming ones.  Any labeling's total cost is
    unchanged, which is the whole point.
    """
    allowed = message_edges(jstructure)
    out = [f.table.copy() for f in model.factors]
    for (a, b), m in messages.items():
        if (a, b) not in allowed:
            raise InvalidMessageEdge(f"({a}, {b}) is not an outer-to-separator edge")
        m = np.asarray(m, dtype=float)
        scope_b = jstructure.scope(b)
        if m.size != math.prod(table_shape(scope_b, model.label_counts)):
            raise TableShapeMismatch(f"message on ({a}, {b}) has wrong length")
        if not np.isfinite(m).all():
            raise NonFiniteCost(f"message on ({a}, {b}) is not finite")
        m = m.reshape(table_shape(scope_b, model.label_counts))
        out[a] -= embed(m, scope_b, jstructure.scope(a))
        out[b] += m
    return out
