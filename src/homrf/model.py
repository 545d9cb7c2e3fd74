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
from collections import deque
from dataclasses import dataclass, field
from functools import wraps

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
)


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
    """
    label_counts = tuple([_as_int(c, "label count") for c in node_label_counts])
    if any(c < 1 for c in label_counts):
        raise ValueError("every node needs at least one label")
    n = len(label_counts)

    factors = []
    seen = {}
    # (id of a given table, its shape, its axis order) -> (that table, its
    # copy); holding the given table keeps its id from being reused
    copies = {}
    for k, (scope_in, table_in) in enumerate(factor_list):
        scope_in = tuple([_as_int(v, "node") for v in scope_in])
        if not scope_in:
            raise ValueError(f"factor {k}: empty scope")
        if len(set(scope_in)) != len(scope_in):
            raise DuplicateNodeInScope(f"factor {k}: scope {scope_in} repeats a node")
        if min(scope_in) < 0 or max(scope_in) >= n:
            raise ValueError(f"factor {k}: scope {scope_in} references an unknown node")
        scope = tuple(sorted(scope_in))
        if scope in seen:
            raise DuplicateFactor(
                f"factors {seen[scope]} and {k} share scope {scope}"
            )
        seen[scope] = k

        shape_in = table_shape(scope_in, label_counts)
        axes = None if scope == scope_in else tuple(np.argsort(scope_in).tolist())
        key = (id(table_in), shape_in, axes)
        copy = copies.get(key)
        if copy is None:
            table = np.array(table_in, dtype=float)
            want = math.prod(shape_in)
            if table.size != want:
                raise TableShapeMismatch(
                    f"factor {k}: table has {table.size} entries, scope {scope_in} needs {want}"
                )
            if not np.isfinite(table).all():
                raise NonFiniteCost(f"factor {k}: non-finite cost entry")
            table = table.reshape(shape_in)
            if axes is not None:
                table = np.transpose(table, axes)
            table = np.ascontiguousarray(table)
            table.setflags(write=False)
            copy = copies[key] = (table_in, table)
        factors.append(Factor(scope, copy[1]))

    return Model(label_counts, factors)


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


def close_j(scopes, edges):
    """Saturate an edge set under transitivity and nested-target completion.

    Starting from edges (A, B), repeatedly add (A, C) whenever (A, B), (B, C)
    are present, and (B, C) whenever (A, B), (A, C) are present with
    scope(C) strictly inside scope(B), until nothing changes.
    """
    return _close(tuple(tuple(s) for s in scopes), edges, ())


def _close(scopes, edges, given):
    # `close_j` of `edges`, given edges of their closure that are closed
    # already, such as the closure of a subset of `edges`.  Only the edges
    # outside `given` are propagated.
    scope_sets = [frozenset(s) for s in scopes]
    n = len(scopes)

    edge_list = []
    for a, b in edges:
        a, b = _as_int(a, "factor id"), _as_int(b, "factor id")
        if a < 0 or a >= n or b < 0 or b >= n:
            raise ValueError(f"edge ({a}, {b}) references an unknown factor")
        if not scope_sets[b] < scope_sets[a]:
            raise NotNested(
                f"edge ({a}, {b}): scope {scopes[b]} is not strictly inside {scopes[a]}"
            )
        edge_list.append((a, b))

    closed = set(edge_list)
    queue = deque(closed.difference(given) if given else closed)
    closed.update(given)
    targets = {}
    sources = {}
    for a, b in closed:
        targets.setdefault(a, set()).add(b)
        sources.setdefault(b, set()).add(a)

    def add(a, b):
        if (a, b) not in closed:
            closed.add((a, b))
            targets.setdefault(a, set()).add(b)
            sources.setdefault(b, set()).add(a)
            queue.append((a, b))

    while queue:
        a, b = queue.popleft()
        for c in list(targets.get(b, ())):
            add(a, c)
        for z in list(sources.get(a, ())):
            add(z, b)
        for c in list(targets.get(a, ())):
            if c == b:
                continue
            if scope_sets[c] < scope_sets[b]:
                add(b, c)
            elif scope_sets[b] < scope_sets[c]:
                add(c, b)

    incoming = {b for _, b in closed}
    outer = frozenset(i for i in range(n) if i not in incoming)
    separators = frozenset(range(n)) - outer
    locals_ = {
        a: frozenset(targets.get(a, ())) | {a} for a in range(n)
    }
    return JStructure(
        scopes=scopes,
        edges=frozenset(edge_list),
        closed_edges=frozenset(closed),
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
