"""The marginalization-edge closure one edge pair at a time, with a worklist
over edges and source and target maps: the reference the bitset closure of
`homrf.model` is checked against, field by field and error by error."""

from collections import deque

from homrf import decomposition
from homrf.errors import NotNested
from homrf.model import JStructure, _as_int


def close_j(scopes, edges):
    """Saturate an edge set under transitivity and nested-target completion.

    Starting from edges (A, B), repeatedly add (A, C) whenever (A, B), (B, C)
    are present, and (B, C) whenever (A, B), (A, C) are present with
    scope(C) strictly inside scope(B), until nothing changes.
    """
    scopes = tuple(tuple(s) for s in scopes)
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
    queue = deque(closed)
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


calls = 0  # closures `build_monotonic_chains` here made with `close_j`


def build_monotonic_chains(model, jstructure, node_order=None):
    """`homrf.build_monotonic_chains` with its closure call made to `close_j`
    here, counted in `calls`: a builder that stopped closing through
    `decomposition.close_j` would leave it at 0."""

    def counted(scopes, edges):
        global calls
        calls += 1
        return close_j(scopes, edges)

    real = decomposition.close_j
    decomposition.close_j = counted
    try:
        return decomposition.build_monotonic_chains(model, jstructure, node_order)
    finally:
        decomposition.close_j = real
