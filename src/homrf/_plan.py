"""Sweep plan and sweep programs: what the message-form sweep and its bound
look up.

Storage.  A message-form state keeps its messages and separator caches as
rows of stacked arrays, one stack per separator table shape (`Layout`).  A
message edge's row is its rank among the edges of its shape in
`message_edges`, a separator's its rank among the separators of its shape in
`separator_order`, so the layout follows from the decomposition alone and a
state needs no plan to be set up.

Program.  A sweep in one direction under one reuse mode compiles into a
program on one state's stacks (`compile_sweeps`).  Which update each message
edge takes (skip, the `after` or `before` nested reuse, the no-op that
consumes a preemptive refresh, or a fresh message) is fixed per mode and
direction, up to one choice made per pass: a `lead` edge, whose window
neighbour swept just before it is its trailing bound, may take `after` only
once a sweep in the other direction has completed.  The program holds one
run of phases per choice, its lead variant.

A separator step reads messages and separator caches and writes its
messages (a preemptive `(a, p)` one included) and its cache.  Each step goes
to the first level after every earlier step it conflicts with (read after
write, write after read, write after write) under either variant, so the
steps of one level commute.  Within a level, the message updates of one
recipe class run as one group: gather the source tables and the stacked rows
they read, subtract, add, minimize and scatter, with the elementwise
operations of a one-edge update in the same order, so the results are
byte-identical to a sweep one separator at a time.  The separator caches of
one shape and in-degree are then rebuilt as one group.  A batch of g rows
adds a leading axis of length g to every shape and reduce axis.

Each group compiles to a short run of numpy calls on fixed operands.  Rows
named by an index or by a basic slice (rows that step evenly) are read as
views of their stack, reshaped to the shape they broadcast in; fresh minima
are written with `out=` straight into their message rows, `after` and
`before` increments are added in place and caches are rebuilt into their
rows.  Rows that only an index array can name cannot be views: they are
staged in scratch, read in with `take` before the group's arithmetic and
stored back after it.  A program keeps its level boundaries: each level
runs in two phases, its message groups and then its cache groups, and the
groups of one phase commute.

The sweep plan (`SweepPlan`) holds each chain's dynamic-programming stages, each outer
factor's messages (for its reparameterized table) and the end separators
that the bound after a sweep is read off (see `homrf.trws`).
`Decomposition` builds the plan on first use and caches it, so it lives
exactly as long as the decomposition.  Programs are compiled per state, on
its first pass in a reuse mode, and kept in its `Bindings`.
"""

import gc
import math
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


class SweepProgram(NamedTuple):
    """A reuse mode's forward and backward sweeps compiled onto one state's
    stacks.  The last three fields are indexed by direction (forward first)
    and then by lead variant (False, True)."""

    arrays: tuple  # the message and cache stacks it runs on
    phases: tuple  # per phase, its groups, each a tuple of (function, arguments); they commute
    ops: tuple  # message operations a sweep runs
    cells: tuple  # joint states a sweep minimizes over


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


def _lead(g, shape):
    # `shape` with the leading batch axis of a group of g rows
    return shape if g == 1 else (g,) + shape


def _rows(terms, pos):
    # the rows a group's terms read, at `pos` in each term
    return terms[0][pos] if len(terms) == 1 else _index([t[pos] for t in terms])


def _rows_shape(stack, rows):
    return (len(rows),) + stack.shape[1:] if isinstance(rows, np.ndarray) else stack[rows].shape


class _Emitter:
    """Collects the numpy calls of one group at a time on a state's message
    and cache stacks M and T.

    Every operand is bound once: views of stack rows are shared by the
    groups that read them, and so are the 0-d arrays of single
    coefficients, cheaper in a ufunc call than a Python float and giving
    the same product.  Rows named by an index array are staged in scratch
    (`read`, `write`).  Groups never run at the same time, so each group's
    scratch starts at the start of one shared scratch buffer; a group that
    outgrows the buffer moves on to a new one twice as large."""

    def __init__(self, M, T):
        self.M, self.T = M, T
        self.buffer = np.empty(0)
        self.top = 0  # scratch cells of the buffer the current group uses
        self.calls = []  # (function, arguments) of the current group
        self.stores = []  # staged rows the group writes, stored back when it ends
        self.regions = {}  # (offset, shape) -> view of the buffer
        self.views = {}  # operands already bound

    def scratch(self, shape):
        n = math.prod(shape)
        if self.top + n > len(self.buffer):
            self.buffer = np.empty(max(2 * len(self.buffer), n))
            self.regions = {}
            self.top = 0
        view = self.regions.get((self.top, shape))
        if view is None:
            view = self.buffer[self.top : self.top + n].reshape(shape)
            self.regions[(self.top, shape)] = view
        self.top += n
        return view

    def emit(self, f, *args):
        self.calls.append((f, args))

    def read(self, stack, rows, shape=None):
        # `rows` of `stack` in `shape` (their own by default)
        if isinstance(rows, np.ndarray):
            staged = self.scratch(_rows_shape(stack, rows))
            self.emit(stack.take, rows, 0, staged)
            return staged if shape is None else staged.reshape(shape)
        at = rows if isinstance(rows, int) else (rows.start, rows.stop, rows.step)
        key = (id(stack), at, shape)
        view = self.views.get(key)
        if view is None:
            view = stack[rows] if shape is None else stack[rows].reshape(shape)
            self.views[key] = view
        return view

    def write(self, stack, rows, load):
        # `rows` of `stack` for the group to write, read first if `load`
        if not isinstance(rows, np.ndarray):
            return self.read(stack, rows)
        staged = self.read(stack, rows) if load else self.scratch(_rows_shape(stack, rows))
        self.stores.append((stack.__setitem__, (rows, staged)))
        return staged

    def weighted(self, terms):
        # scratch holding the weighted caches of the k-th terms (coefficient,
        # stack, row, shape) of a group's updates
        g = len(terms)
        _, s, _, shape = terms[0]
        product = self.scratch(_lead(g, shape))
        if g > 1:
            coef = np.array([t[0] for t in terms]).reshape((g,) + (1,) * len(shape))
        else:
            coef = self.views.get(("coef", terms[0][0]))
            if coef is None:
                coef = self.views[("coef", terms[0][0])] = np.array(terms[0][0])
        caches = self.read(self.T[s], _rows(terms, 2), product.shape)
        self.emit(np.multiply, coef, caches, product)
        return product

    def stacked(self, tables):
        # scratch holding the tables stacked along a new leading axis, filled
        # by concatenating them along their first axis
        shape = tables[0].shape
        stack = self.scratch((len(tables),) + shape)
        self.emit(np.concatenate, tables, 0, stack.reshape((len(tables) * shape[0],) + shape[1:]))
        return stack

    def fresh(self, brackets, out):
        """Fresh messages of a group's edges (a, b) into `out`: each a's table
        net of its other window messages, plus the weighted caches of the
        separators b lacks, minimized onto b.  A bracket is (a's table, the
        (stack, row, shape in a) of each other window message, the
        (coefficient, stack, row, shape in a) of each cache added, the axes
        of a minimized out)."""
        g = len(brackets)
        table, _, _, axes = brackets[0]
        terms = []
        for ks in zip(*[br[1] for br in brackets]):  # the k-th term of each bracket
            s, _, sh = ks[0]
            messages = self.read(self.M[s], _rows(ks, 1), _lead(g, sh))
            terms.append((np.subtract, messages))
        for ks in zip(*[br[2] for br in brackets]):
            terms.append((np.add, self.weighted(ks)))
        if g == 1:
            net = table  # read-only: the first term writes into scratch
            work = self.scratch(table.shape) if terms else None
        else:
            net = work = self.stacked([br[0] for br in brackets])
            axes = tuple(x + 1 for x in axes)
        for ufunc, operand in terms:
            self.emit(ufunc, net, operand, work)
            net = work
        self.emit(np.minimum.reduce, net, axes, None, out)

    def fold(self, folds, total, delta):
        """Nested read-off toward b from the superset p next to it in a's
        window: add the weighted caches of p's locals outside b's to `total`,
        a table over p, and minimize onto b into `delta`.  With `total` None
        the sum starts from zero: that is the `reuse="after"` increment;
        while (a, p) holds this sweep's message, the stored (a, b) message
        plus it equals the direct update, scanning only p.  p's own cache is
        always a term.  A fold is (p's table shape, the (coefficient, stack,
        row, shape in p) of each term, the axes of p minimized out, the shape
        of b in p)."""
        g = len(folds)
        shape, _, axes, _ = folds[0]
        acc = 0.0 if total is None else total
        if total is None:
            total = self.scratch(_lead(g, shape))
        for ks in zip(*[f[1] for f in folds]):  # the k-th term of each fold
            self.emit(np.add, acc, self.weighted(ks), total)
            acc = total
        if g > 1:
            axes = tuple(x + 1 for x in axes)
        self.emit(np.minimum.reduce, total, axes, None, delta)

    def group(self):
        # the calls emitted since the last group, staged rows stored last
        calls = tuple(self.calls + self.stores)
        self.calls, self.stores, self.top = [], [], 0
        return calls


@_gc_paused
def compile_sweeps(decomp, reuse, M, T):
    """The `SweepProgram` of a reuse mode on a state's message and cache
    stacks M and T; see the module docstring."""
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

    # A recipe is an update of one edge (a bracket or a fold, see
    # `_Emitter`) plus its class: what the members of a batched group share,
    # numbered.  Shapes are interned.
    shared, classes = {}, {}

    def canon(x):
        return shared.setdefault(x, x)

    def class_id(x):
        return classes.setdefault(x, len(classes))

    def fresh_recipes(a, bs):
        # (class, bracket, cells, reads) of the fresh message on each (a, b)
        t = table(a)
        ra = rho[a]
        seps = []  # (c, class part, extra term, read) per separator local c
        terms = {}  # c -> (class part, shape in a) for the window's c
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
            bracket = (t, tuple([w[3] for w in others]), tuple([x[2] for x in lack]), axes)
            yield cls, bracket, t.size, tuple([w[1] for w in others] + [x[3] for x in lack])

    by_source = {}
    for a, b in edges:
        by_source.setdefault(a, []).append(b)
    fresh = [None] * n
    for a, bs in by_source.items():
        for b, rec in zip(bs, fresh_recipes(a, bs)):
            fresh[eid[(a, b)]] = rec
    folds = {}

    def fold_recipe(a, p, b):
        # (class, fold, cells, reads) of the read-off toward b from p
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
            fold = (t.shape, tuple(terms), axes, b_in_p)
            rec = folds[(a, p, b)] = (cls, fold, t.size, tuple(reads))
        return rec

    em = _Emitter(M, T)
    # op or separator -> calls of its one-update or one-separator group,
    # which the forward and the backward sweep mostly share
    singles = {}

    def message_group(key, placed):
        # the calls of the updates `placed` at one level under one key
        if len(placed) == 1 and placed[0][1] in singles:
            return singles[placed[0][1]]
        placed.sort()
        kind, s = key[0], key[1]
        ops = [op for _, op, _ in placed]
        rows = _rows(placed, 0)
        if kind is FRESH:
            em.fresh([fresh[i][1] for _, i, _, _ in ops], em.write(M[s], rows, load=False))
        else:
            delta = em.scratch(_rows_shape(M[s], rows))
            fds = [folds[f][1] for _, _, _, f in ops]
            if kind is AFTER:
                em.fold(fds, None, delta)
            else:  # BEFORE: refresh (a, p) and fold its increment toward b in
                sup = [j for _, _, j, _ in ops]
                sp, rows_p = erow[sup[0]][0], _index([erow[j][1] for j in sup])
                m_new = em.scratch(_rows_shape(M[sp], rows_p))
                em.fresh([fresh[j][1] for j in sup], m_new)
                old = em.write(M[sp], rows_p, load=True)
                total = em.scratch(_lead(len(ops), fds[0][0]))
                em.emit(np.subtract, m_new, old, total)
                em.fold(fds, total, delta)
                em.emit(np.subtract, m_new, delta.reshape(_lead(len(ops), fds[0][3])), old)
            out = em.write(M[s], rows, load=True)
            em.emit(np.add, out, delta, out)
        calls = em.group()
        if len(ops) == 1:
            singles[ops[0]] = calls
        return calls

    def cache_group(key, seps):
        # each separator's original table plus its incoming messages, in
        # sigma order of their sources, into its cache
        if len(seps) == 1 and seps[0][1] in singles:
            return singles[seps[0][1]]
        seps.sort()
        s, indegree = key
        bs = [b for _, b in seps]
        out = em.write(T[s], _rows(seps, 0), load=False)
        acc = table(bs[0]) if len(bs) == 1 else em.stacked([table(b) for b in bs])
        if not indegree:
            em.emit(np.copyto, out, acc)
        for k in range(indegree):
            em.emit(np.add, acc, em.read(M[s], _index([erow[incoming[b][k]][1] for b in bs])), out)
            acc = out
        calls = em.group()
        if len(bs) == 1:
            singles[bs[0]] = calls
        return calls

    def sweep(forward):
        # (phases, message operations, cells) per lead variant
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
                        variants.append((AFTER, i, None, (a, pred, b)))
                    elif before:
                        j = eid[(a, succ)]
                        pending[v].add(j)
                        variants.append((BEFORE, i, j, (a, succ, b)))
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
                        rec = fold_recipe(*f)
                        key = (kind, stack, rec[0], cond)
                        reads += rec[3]
                        cells = rec[2]
                    else:
                        rec, fold = fresh[j], fold_recipe(*f)
                        key = (kind, stack, erow[j][0], rec[0], fold[0], cond)
                        reads += rec[3]
                        reads += fold[3]
                        reads.append(j)
                        writes.append(j)
                        cells = rec[2] + fold[2]
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
        phases, ops, cells = ([], []), [0, 0], [0, 0]
        for messages, caches in levels:
            groups = ([], [])
            for key, placed in messages.items():
                calls = message_group(key, placed)
                cond = key[-1]
                for v in (False, True) if cond is None else (cond,):
                    groups[v].append(calls)
                    ops[v] += len(placed)
                    cells[v] += sum([c for _, _, c in placed])
            rebuilt = tuple(cache_group(key, seps) for key, seps in caches.items())
            for v in (0, 1):
                if groups[v]:
                    phases[v].append(tuple(groups[v]))
                phases[v].append(rebuilt)
        return tuple(map(tuple, phases)), tuple(ops), tuple(cells)

    return SweepProgram((*M, *T), *zip(sweep(True), sweep(False)))


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
        net,
        tuple(stages),
        pass_bound(d.sep_plus, -1),
        pass_bound(d.sep_minus, 0),
        fallback,
    )
