"""Sweep plan: what the message-form sweep and its bound look up that depends
on the decomposition alone.

Storage.  A message-form state keeps its messages and separator caches as
rows of stacked arrays, one stack per separator table shape (`Layout`).  A
message edge's row is its rank among the edges of its shape in
`message_edges`, a separator's its rank among the separators of its shape in
`separator_order`, so the layout follows from the decomposition alone and a
state needs no plan to be set up.

Schedule.  A sweep in one direction under one reuse mode compiles into a
level schedule, a tuple of `Level`s.  Which update each message edge takes
(skip, the `after` or `before` nested reuse, the no-op that consumes a
preemptive refresh, or a fresh message) is fixed per mode and direction, up
to one choice made per pass: a `lead` edge, whose window neighbour swept just
before it is its trailing bound, may take `after` only once a sweep in the
other direction has completed.  Such an edge gets both variants, as sibling
groups whose `cond` says which pass runs them.

A separator step reads messages and separator caches and writes its
messages (a preemptive `(a, p)` one included) and its cache.  Each step goes
to the first level after every earlier step it conflicts with (read after
write, write after read, write after write) under either variant, so the
steps of one level commute.  Within a level, the message updates of one
recipe shape run as one `Group`: gather the source tables and the stacked
rows they read, subtract, add, minimize and scatter, with the elementwise
operations of a one-edge update in the same order, so the results are
byte-identical to a sweep one separator at a time.  The separator caches of
one shape and in-degree are then rebuilt as one `CacheGroup`.  A group reads
a single row by its index, rows that step evenly by a basic slice and other
rows by an index array; a batch of g rows adds a leading axis of length g to
every shape and reduce axis.

Besides the schedules, the plan holds each chain's dynamic-programming
stages, each outer factor's messages (for its reparameterized table) and the
end separators that the bound after a sweep is read off (see
`homrf.trws`).  `Decomposition` builds the plan on first use and caches it,
and the plan compiles a reuse mode's two schedules the first time a pass
runs that mode, so everything lives exactly as long as the decomposition.
Every state on the decomposition shares the schedules; each binds them to
its own stacks (see `homrf.trws`) and keeps the binding in its `Bindings`.
"""

import gc
from functools import wraps
from operator import is_
from typing import NamedTuple

import numpy as np

from ._tables import drop_axes, embed_shape, table_shape
from .errors import UnconsumedPreemptiveMessage

FRESH, AFTER, BEFORE = "fresh", "after", "before"


class Layout(NamedTuple):
    """Where a solver state keeps each message and separator cache."""

    shapes: tuple  # separator table shape of each stack
    edges: tuple  # per stack: its message edges (a, b), in row order
    separators: tuple  # per stack: its separators, in row order
    edge_row: dict  # (a, b) -> (stack, row)
    sep_row: dict  # b -> (stack, row)


class Bracket(NamedTuple):
    """Fresh messages of a group's edges (a, b): each a's table net of its
    other window messages, plus the weighted caches of the separators b
    lacks, minimized onto b."""

    sources: tuple  # the table of each a, in edge order
    subtract: tuple  # (stack, rows, shape in a) per other window message
    extra: tuple  # (coefficients, stack, rows, shape in a) per separator cache added
    axes: tuple  # axes of a minimized out


class Fold(NamedTuple):
    """Nested read-off toward b from the superset p next to it in a's window:
    the weighted caches of p's locals outside b's, added to a table over p
    and minimized onto b."""

    shape: tuple  # table shape of p
    terms: tuple  # (coefficients, stack, rows, shape in p)
    axes: tuple  # axes of p minimized out


class Group(NamedTuple):
    """The message updates of one recipe shape at one level."""

    kind: str  # FRESH, AFTER or BEFORE
    cond: object  # None: every pass; True / False: only when a lead edge may / may not take AFTER
    edges: tuple  # the edges (a, b) it updates
    cells: int  # joint states it minimizes over
    bracket: Bracket  # FRESH: the messages; BEFORE: the refreshed (a, p) messages; AFTER: None
    fold: Fold  # AFTER and BEFORE: the increment of the (a, b) messages; FRESH: None
    out: tuple  # (stack, rows) of the (a, b) messages
    sup: tuple  # BEFORE: (stack, rows, shape of b in p) of the (a, p) messages; else None


class CacheGroup(NamedTuple):
    """Separator caches of one shape and in-degree at one level: each
    separator's original table plus its incoming messages, in sigma order of
    their sources."""

    sources: tuple  # the separators' original tables, in row order
    stack: int
    incoming: tuple  # rows of the k-th incoming messages, k = 0, 1, ...
    rows: object  # rows of the caches


class Level(NamedTuple):
    messages: tuple  # Groups; they commute
    caches: tuple  # CacheGroups, run after the messages; they commute


class Stage(NamedTuple):
    """One chain member in the chain's dynamic program."""

    shape: tuple  # table shape of the member
    terms: tuple  # (c, shape of c in the member) for locals first covered here
    carry_axes: tuple  # axes minimized out to the joint separator; None on the last
    carry_shape: tuple  # shape of the joint separator in the next member
    pick: tuple  # per scope node: the node if a later member labels it, else None
    free: tuple  # (node, label count) per scope node no later member labels: the argmin's


class PassBound(NamedTuple):
    """What the bound after a sweep in one direction is read off: the sum of
    each chain's probability times its minimum, which the unnormalized sweep
    leaves in the cached table of the chain's far end separator."""

    ends: tuple  # per cache stack: (stack, rows, table axes, rho_t / rho_e per row), e far ends
    cells: int  # cells of the end separators' tables
    const: float  # rho_t * min(table) / rho summed over one-singleton-factor chains


class SweepPlan(NamedTuple):
    """What sweeps and bounds look up."""

    sweeps: dict  # reuse mode -> (forward levels, backward levels), compiled on first use
    net: tuple  # per factor: ((a, c), shape) of an outer factor's messages, None for separators
    stages: tuple  # per chain: its Stages
    forward_bound: PassBound
    backward_bound: PassBound
    fallback: tuple  # chains with a member that is not an outer factor: the bound re-solves them


class Bindings(dict):
    """A solver state's operands bound to its own arrays, keyed by what they
    were bound for.  Every copy of it is empty, so a deep copy or a pickle of
    a state binds its own arrays instead of running on the original's."""

    def __reduce__(self):
        return Bindings, ()


def same_objects(xs, ys):
    """Whether two sequences hold the same objects in the same order: the
    arrays a binding was made for are still those it would run on."""
    return len(xs) == len(ys) and all(map(is_, xs, ys))


def _gc_paused(build):
    # Compiling allocates many small tuples, which set off the cyclic
    # collector again and again although they form no cycles.
    @wraps(build)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args)
        finally:
            if enabled:
                gc.enable()

    return paused


def storage_layout(decomp):
    """The `Layout` of a decomposition's messages and separator caches."""
    table = decomp.model.table
    stack_of = {}  # table shape -> stack
    edges, seps, sep_row, edge_row = [], [], {}, {}
    for b in decomp.separator_order:
        shape = table(b).shape
        s = stack_of.get(shape)
        if s is None:
            s = stack_of[shape] = len(seps)
            seps.append([])
            edges.append([])
        sep_row[b] = (s, len(seps[s]))
        seps[s].append(b)
    for key in decomp.message_edges:
        s = sep_row[key[1]][0]
        edge_row[key] = (s, len(edges[s]))
        edges[s].append(key)
    return Layout(
        tuple(stack_of), tuple(map(tuple, edges)), tuple(map(tuple, seps)), edge_row, sep_row
    )


def _shape_in(decomp):
    # memoized shape_in(c, a): the broadcast shape of factor c inside factor a
    scopes = decomp.jstructure.scopes
    counts = decomp.model.label_counts
    memo, shapes = {}, {}

    def shape_in(c, a):
        shape = memo.get((c, a))
        if shape is None:
            shape = embed_shape(scopes[c], scopes[a], counts)
            shape = memo[(c, a)] = shapes.setdefault(shape, shape)
        return shape

    return shape_in


def _index(rows):
    """One row by its index, rows that step evenly upward by a basic slice,
    other rows by an index array."""
    first = rows[0]
    if len(rows) == 1:
        return first
    step = rows[1] - first
    if step > 0 and rows == list(range(first, rows[-1] + 1, step)):
        return slice(first, rows[-1] + 1, step)
    return np.array(rows, dtype=np.intp)


def sweep_schedule(decomp, reuse):
    """The forward and backward level schedules of a reuse mode, compiled on
    first use."""
    sweeps = decomp._sweep_plan.sweeps
    pair = sweeps.get(reuse)
    if pair is None:
        pair = sweeps[reuse] = _compile_sweeps(decomp, reuse)
    return pair


@_gc_paused
def _compile_sweeps(decomp, reuse):
    d = decomp
    js = d.jstructure
    scopes, locals_, separators = js.scopes, js.locals, js.separators
    table = d.model.table
    rho = d.rho_factor
    windows = d.local_separators
    layout = d._layout
    edge_row, sep_row = layout.edge_row, layout.sep_row
    counts = d.model.label_counts
    use_after = reuse in ("after", "before-after")
    use_before = reuse == "before-after"

    # Message edges are numbered by their index in `message_edges` and
    # separator b by n + b; these numbers name what a step reads and writes.
    edges = d.message_edges
    n = len(edges)
    sep_id = list(range(n, n + len(scopes)))
    eid = {key: i for i, key in enumerate(edges)}
    erow = [edge_row[key] for key in edges]
    source = [a for a, _ in edges]
    incoming = {}  # b -> its edges, sources in sigma order (message_edges are)
    for i, (a, b) in enumerate(edges):
        incoming.setdefault(b, []).append(i)

    def nested(p, b):
        # whether b is a strict subset of the window neighbour p
        return p is not None and set(scopes[b]) < set(scopes[p])

    # per edge (a, b): a's window neighbours before and after b, each
    # followed by whether b nests in it
    around = []
    for a, b in edges:
        window = windows[a]
        k = window.index(b)
        before_b = window[k - 1] if k else None
        after_b = window[k + 1] if k + 1 < len(window) else None
        around.append((before_b, nested(before_b, b), after_b, nested(after_b, b)))

    # A recipe is an update of one edge as a one-edge group runs it, with
    # single rows read by their index, plus its class: what the members of a
    # batched group share, numbered.  Shapes are interned.
    shared, classes = {}, {}

    def canon(x):
        return shared.setdefault(x, x)

    def class_id(x):
        return classes.setdefault(x, len(classes))

    def fresh_recipes(a, bs):
        # (class, Bracket, cells, reads) of the fresh message on each (a, b):
        # a's table net of its other window messages, plus the weighted
        # caches of the separators b lacks
        t = table(a)
        sources, size = (t,), t.size  # shared by a's recipes
        ra = rho[a]
        seps = []  # (c, class part, extra term, read) per separator local c
        terms = {}  # c -> (class part, subtract term) for the window's c
        for c in sorted(locals_[a]):
            if c in separators:
                s, row = sep_row[c]
                sh = canon(embed_shape(scopes[c], scopes[a], counts))
                part = class_id((s, sh))
                seps.append((c, part, (ra / rho[c], s, row, sh), sep_id[c]))
                terms[c] = (part, sh)
        window = []  # (c, edge, class part, subtract term) per window separator c
        for c in windows[a]:
            i = eid[(a, c)]
            part, sh = terms[c]
            window.append((c, i, part, (erow[i][0], erow[i][1], sh)))
        for b in bs:
            below = locals_[b]
            others = [w for w in window if w[0] != b]
            lack = [x for x in seps if x[0] not in below]
            axes = canon(drop_axes(scopes[a], scopes[b]))
            parts = (tuple([w[2] for w in others]), tuple([x[1] for x in lack]))
            cls = class_id((t.shape, *parts, axes))
            bracket = Bracket(
                sources, tuple([w[3] for w in others]), tuple([x[2] for x in lack]), axes
            )
            yield cls, bracket, size, tuple([w[1] for w in others] + [x[3] for x in lack])

    by_source = {}
    for a, b in edges:
        by_source.setdefault(a, []).append(b)
    fresh = [None] * n
    for a, bs in by_source.items():
        for b, rec in zip(bs, fresh_recipes(a, bs)):
            fresh[eid[(a, b)]] = rec
    folds = {}

    def fold_recipe(a, p, b):
        # (class, Fold, cells, reads, shape of b in p) of the read-off toward
        # b from p
        rec = folds.get((a, p, b))
        if rec is None:
            below = locals_[b]
            t = table(p)
            terms, parts, reads = [], [], []
            for c in sorted(locals_[p]):
                if c not in below:
                    s, row = sep_row[c]
                    sh = canon(embed_shape(scopes[c], scopes[p], counts))
                    terms.append((rho[a] / rho[c], s, row, sh))
                    parts.append(class_id((s, sh)))
                    reads.append(sep_id[c])
            axes = canon(drop_axes(scopes[p], scopes[b]))
            b_in_p = canon(embed_shape(scopes[b], scopes[p], counts))
            cls = class_id((t.shape, tuple(parts), axes, b_in_p))
            rec = folds[(a, p, b)] = (
                cls,
                Fold(t.shape, tuple(terms), axes),
                t.size,
                tuple(reads),
                b_in_p,
            )
        return rec

    def batched(terms, g, ndim):
        # the k-th terms of g recipes as one batched read
        coef, s, _, sh = terms[0]
        coefs = np.array([term[0] for term in terms]).reshape((g,) + (1,) * ndim)
        return coefs, s, _index([term[2] for term in terms]), (g,) + sh

    def finish_bracket(ids):
        if len(ids) == 1:
            return fresh[ids[0]][1]
        brackets = [fresh[i][1] for i in ids]
        g = len(brackets)
        first = brackets[0]
        ndim = table(edges[ids[0]][0]).ndim
        return Bracket(
            tuple([br.sources[0] for br in brackets]),
            tuple(
                (s, _index([br.subtract[k][1] for br in brackets]), (g,) + sh)
                for k, (s, _, sh) in enumerate(first.subtract)
            ),
            tuple(
                batched([br.extra[k] for br in brackets], g, ndim) for k in range(len(first.extra))
            ),
            tuple(x + 1 for x in first.axes),
        )

    def finish_fold(recs):
        if len(recs) == 1:
            return recs[0][1]
        folds_ = [rec[1] for rec in recs]
        g = len(folds_)
        first = folds_[0]
        return Fold(
            (g,) + first.shape,
            tuple(
                batched([f.terms[k] for f in folds_], g, len(first.shape))
                for k in range(len(first.terms))
            ),
            tuple(x + 1 for x in first.axes),
        )

    singles = {}  # one-update groups and one-separator cache groups, shared by both directions

    def finish(key, placed):
        kind, cond = key[0], key[-1]
        if len(placed) == 1:
            _, i, j, f = placed[0][1]
            single = (kind, i, j, id(f), cond)
            if single in singles:
                return singles[single]
        placed.sort()
        ops = [op for _, op, _ in placed]
        cells = sum([c for _, _, c in placed])
        out = (key[1], _index([row for row, _, _ in placed]))
        ids = [i for _, i, _, _ in ops]
        written = tuple([edges[i] for i in ids])
        if kind is FRESH:
            group = Group(kind, cond, written, cells, finish_bracket(ids), None, out, None)
        elif kind is AFTER:
            fold = finish_fold([f for _, _, _, f in ops])
            group = Group(kind, cond, written, cells, None, fold, out, None)
        else:
            fold = finish_fold([f for _, _, _, f in ops])
            sup_ids = [j for _, _, j, _ in ops]
            b_in_p = ops[0][3][4]
            sup = (
                erow[sup_ids[0]][0],
                _index([erow[j][1] for j in sup_ids]),
                b_in_p if len(ops) == 1 else (len(ops),) + b_in_p,
            )
            group = Group(kind, cond, written, cells, finish_bracket(sup_ids), fold, out, sup)
        if len(placed) == 1:
            singles[single] = group
        return group

    def finish_cache(key, seps):
        if len(seps) == 1 and seps[0][1] in singles:
            return singles[seps[0][1]]
        seps.sort()
        bs = [b for _, b in seps]
        group = CacheGroup(
            tuple([table(b) for b in bs]),
            key[0],
            tuple(_index([erow[incoming[b][k]][1] for b in bs]) for k in range(key[1])),
            _index([row for row, _ in seps]),
        )
        if len(bs) == 1:
            singles[bs[0]] = group
        return group

    def sweep(forward):
        order = d.separator_order if forward else d.separator_order[::-1]
        trailing = d.sep_minus if forward else d.sep_plus
        pending = (set(), set())  # edges refreshed preemptively, per variant
        last_write = [-1] * (n + len(scopes))
        last_read = [-1] * (n + len(scopes))
        levels = []
        for b in order:
            reads, writes = [], [n + b]
            placed = []
            for i in incoming.get(b, ()):
                reads.append(i)  # the cache rebuild
                a = source[i]
                if b == trailing[a]:
                    continue
                if forward:
                    pred, after, succ, before = around[i]
                else:
                    succ, before, pred, after = around[i]
                lead = pred == trailing[a]
                after = use_after and after
                before = use_before and before
                variants = []  # the update without, then with, lead edges taking AFTER
                for v in (False, True):
                    if i in pending[v]:
                        pending[v].discard(i)
                        variants.append(None)
                    elif after and (v or not lead):
                        variants.append((AFTER, i, None, fold_recipe(a, pred, b)))
                    elif before:
                        j = eid[(a, succ)]
                        pending[v].add(j)
                        variants.append((BEFORE, i, j, fold_recipe(a, succ, b)))
                    else:
                        variants.append((FRESH, i, None, None))
                if variants[0] == variants[1]:
                    variants = [(None, variants[0])]
                else:
                    variants = [(False, variants[0]), (True, variants[1])]
                for cond, op in variants:
                    if op is None:
                        continue
                    kind, _, j, f = op
                    stack, row = erow[i]
                    if kind is FRESH:
                        rec = fresh[i]
                        key = (kind, stack, rec[0], cond)
                        reads += rec[3]
                        cells = rec[2]
                    elif kind is AFTER:
                        key = (kind, stack, f[0], cond)
                        reads += f[3]
                        cells = f[2]
                    else:
                        rec = fresh[j]
                        key = (kind, stack, erow[j][0], rec[0], f[0], cond)
                        reads += rec[3]
                        reads += f[3]
                        reads.append(j)
                        writes.append(j)
                        cells = rec[2] + f[2]
                    writes.append(i)
                    placed.append((key, (row, op, cells)))

            level = 0
            for x in reads:
                if last_write[x] >= level:
                    level = last_write[x] + 1
            for x in writes:
                if last_write[x] >= level:
                    level = last_write[x] + 1
                if last_read[x] >= level:
                    level = last_read[x] + 1
            for x in reads:
                if last_read[x] < level:
                    last_read[x] = level
            for x in writes:
                last_write[x] = level

            if level == len(levels):
                levels.append(({}, {}))
            messages, caches = levels[level]
            for key, entry in placed:
                messages.setdefault(key, []).append(entry)
            stack, row = sep_row[b]
            caches.setdefault((stack, len(incoming.get(b, ()))), []).append((row, b))

        left = pending[0] | pending[1]
        if left:
            raise UnconsumedPreemptiveMessage(
                f"preemptive messages left unconsumed: {sorted(edges[j] for j in left)}"
            )
        return tuple(
            Level(
                tuple(finish(key, placed) for key, placed in messages.items()),
                tuple(finish_cache(key, seps) for key, seps in caches.items()),
            )
            for messages, caches in levels
        )

    return sweep(True), sweep(False)


@_gc_paused
def build_sweep_plan(decomp):
    """Compile the plan of a decomposition; see the module docstring."""
    d = decomp
    js = d.jstructure
    model = d.model
    counts = model.label_counts
    scopes = js.scopes
    shape_in = _shape_in(d)

    net = tuple(
        tuple(((f, c), shape_in(c, f)) for c in d.local_separators[f])
        if f in js.outer
        else None
        for f in range(len(scopes))
    )

    stages = []
    for chain in d.chains:
        labelled = [set()]  # per member, from the last: nodes later members hold
        for a in reversed(chain[1:]):
            labelled.append(labelled[-1] | set(scopes[a]))
        labelled.reverse()
        attributed = set()
        members = []
        for i, a in enumerate(chain):
            terms = []
            for c in sorted(js.locals[a]):
                if c not in attributed:
                    attributed.add(c)
                    terms.append((c, shape_in(c, a)))
            carry_axes = carry_shape = None
            if i + 1 < len(chain):
                s = d.sep_plus[a]
                carry_axes = drop_axes(scopes[a], scopes[s])
                carry_shape = shape_in(s, chain[i + 1])
            later = labelled[i]
            members.append(
                Stage(
                    table_shape(scopes[a], counts),
                    tuple(terms),
                    carry_axes,
                    carry_shape,
                    tuple(v if v in later else None for v in scopes[a]),
                    tuple((v, counts[v]) for v in scopes[a] if v not in later),
                )
            )
        stages.append(tuple(members))

    fallback = tuple(
        t for t, chain in enumerate(d.chains) if any(a not in js.outer for a in chain)
    )

    sep_row = d._layout.sep_row

    def pass_bound(far, member):
        # far: each member's far window end; member: index of the chain's far member
        ends, const, cells = {}, 0.0, 0
        for t, chain in enumerate(d.chains):
            if t in fallback:
                continue
            e = far[chain[member]]
            if e is None:  # one singleton outer factor: no messages, a constant minimum
                a = chain[0]
                const += d.rho[t] * float((model.table(a) / d.rho_factor[a]).min())
                continue
            s, row = sep_row[e]
            ends.setdefault(s, []).append((row, d.rho[t] / d.rho_factor[e]))
            cells += model.table(e).size
        batched = []
        for s, end in ends.items():
            rows = [row for row, _ in end]
            batched.append(
                (
                    s,
                    _index(rows) if len(rows) > 1 else slice(rows[0], rows[0] + 1),
                    tuple(range(1, 1 + len(d._layout.shapes[s]))),
                    tuple([coef for _, coef in end]),
                )
            )
        return PassBound(tuple(batched), cells, const)

    return SweepPlan(
        {},
        net,
        tuple(stages),
        pass_bound(d.sep_plus, -1),
        pass_bound(d.sep_minus, 0),
        fallback,
    )
