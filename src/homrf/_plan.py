"""Sweep programs: everything a message-form pass runs and reads, compiled
for one decomposition onto one state's stacks, and the chain dynamic
program's stages.

Storage.  A message-form state keeps its messages and separator caches as
rows of stacked arrays, one stack per separator table shape (`Layout`).  A
message edge's row is its rank among the edges of its shape in
`message_edges`, a separator's its rank among the separators of its shape in
`separator_order`, so the layout follows from the decomposition alone.  It
needs every outer factor in a chain: one in none has no window, so no
message edges.  A program reads the model's tables as rows too: its table
store holds one read-only stack per table shape, of the distinct tables (by
identity) of the separators in `separator_order`, then of the message edges'
sources in `message_edges` order.

Program.  A reuse mode's sweeps compile into a program for one
decomposition on one state's stacks (`compile_sweeps`), together with what
the bound after a sweep in each direction is read off (`PassBound`) and the
chains the bound re-solves instead (see `homrf.trws`).  Each message edge
takes one update per sweep: it skips its trailing bound, consumes a
preemptive refresh (a no-op), takes the `after` or the `before` nested
reuse, or gets a fresh message.  Which one is fixed per mode and
direction, up to one choice made per pass: a `lead` edge, whose window
neighbour swept just before it is its trailing bound, may take `after` only
once a sweep in the other direction has completed.  Sweeps
alternate from a forward first pass (a state's direction is the parity of
its pass count), so that is the case on every pass but the first, and the
program holds three variants, compiled together: forward with lead edges
not taking `after` (the first pass), forward with lead `after`, and backward
with lead `after`.  Without a lead edge the first two are one variant.

Recipes.  Every update sums terms over a table and minimizes onto b
(`_Emitter.reduce`): a fresh message over a's table, a read-off over the
table of the superset p next to b in a's window.  What it needs besides rows
and coefficients follows from the structure of its source a: a's table
shape, where the scopes of a's separator locals sit in a's scope, and which
of them form a's window.  J is closed: it holds (B, C) wherever it holds
(A, B) and (A, C) with scope(C) inside scope(B).  So p's locals are among
a's, and a separator local c of a is a local of b exactly when c is b or
c's axes in a are among b's.  Each distinct structure is derived once, into
the fresh recipe (`_Recipe`) and the read-offs of every window slot, and per
edge only its rows, coefficients and the numbers it reads remain.

A separator step reads messages and separator caches and writes its
messages (a preemptive `(a, p)` one included) and its cache.  Each step goes
to the first level after every earlier step of its variant it conflicts with
(read after write, write after read, write after write), so the steps of one
level commute.  Within a level, the message updates of one recipe class run
as one group: gather the stored rows they read, the source tables among them,
subtract, add, minimize and scatter, with the elementwise operations of a
one-edge update in the same order, so the results are byte-identical to a
sweep one separator at a time.  The separator caches of one shape and
in-degree are then rebuilt as one group.  Every group, one of a single row
included, is one batch of g >= 1 rows: a leading axis of length g on every
shape, ahead of every reduced axis.

Each group compiles to a short run of numpy calls on fixed operands.  Rows
named by a basic slice (one row, or rows that step evenly) are read as
views of their stack, reshaped to the shape they broadcast in; fresh minima
are written with `out=` straight into their message rows, `after` and
`before` increments are added in place and caches are rebuilt into their
rows.  Rows that only an index array can name cannot be views: they are
staged in scratch, read in with `take` before the group's arithmetic and
stored back after it.  An update's table rows are a read-only operand: its
first term writes into scratch, and an update without terms minimizes them
straight into its rows.  A cache term whose
coefficients are all equal multiplies by that one value, and one whose value
is exactly 1.0 adds the cache rows themselves, with no multiply: x * 1.0 is
x bit for bit.  A program keeps its level boundaries: each level runs in two
phases, its message groups and then its cache groups, and the groups of one
phase commute.  A group that two variants or both directions run is compiled once.

Programs are compiled per state, on its first pass in a reuse mode, and
kept in its `Bindings`.  The chain dynamic program's stages (`chain_stages`)
are the decomposition's alone: `Decomposition` builds them on the first
chain DP, which a pass runs only on the chains its bound re-solves.
"""

import math
from operator import is_, itemgetter
from typing import NamedTuple

import numpy as np

from ._tables import drop_axes, embed_shape, table_shape
from .errors import HomrfError, UnconsumedPreemptiveMessage
from .model import _gc_paused

FRESH, AFTER, BEFORE = "fresh", "after", "before"


class Layout(NamedTuple):
    """Where a solver state keeps each message and separator cache."""

    shapes: tuple  # separator table shape of each stack
    edges: tuple  # per stack: its message edges (a, b), in row order
    separators: tuple  # per stack: its separators, in row order
    edge_row: dict  # (a, b) -> (stack, row)
    sep_row: dict  # b -> (stack, row)


class PassBound(NamedTuple):
    """What the bound after a sweep in one direction is read off: the sum of
    each chain's probability times its minimum, which the unnormalized sweep
    leaves in the cached table of the chain's far end separator."""

    ends: tuple  # per cache stack: (stack, rows, table axes, rho_t / rho_e per row), e far ends
    cells: int  # cells of the end separators' tables
    const: float  # rho_t * min(table) / rho summed over one-singleton-factor chains


class Variant(NamedTuple):
    """A sweep in one direction, with lead edges current or not, compiled."""

    phases: tuple  # per phase, its groups, each a tuple of (function, arguments); they commute
    ops: int  # message operations the sweep runs
    cells: int  # joint states the sweep minimizes over
    read_off: PassBound  # of the bound after the sweep


class SweepProgram(NamedTuple):
    """A reuse mode's sweeps compiled for one decomposition onto one state's
    stacks."""

    decomp: object  # the decomposition it was compiled for
    arrays: tuple  # the message and cache stacks it runs on
    variants: dict  # (forward, lead current) -> its Variant; no (False, False)
    fallback: tuple  # chains with a member that is not an outer factor: the bound re-solves them


class Stage(NamedTuple):
    """One chain member in the chain's dynamic program."""

    shape: tuple  # table shape of the member
    terms: tuple  # (c, shape of c in the member) for locals first covered here
    carry_axes: tuple  # axes minimized out to the joint separator; None on the last
    carry_shape: tuple  # shape of the joint separator in the next member
    pick: tuple  # per scope node: the node if a later member labels it, else None
    free: tuple  # (node, label count) per scope node no later member labels: the argmin's


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


def storage_layout(decomp):
    """The `Layout` of a decomposition's messages and separator caches.
    Raises `HomrfError` for an outer factor in no chain."""
    for a in sorted(decomp.jstructure.outer):
        if a not in decomp.local_separators:
            raise HomrfError(f"outer factor {a} is in no chain")
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


def _index(rows):
    """Rows that step evenly upward, one row included, by a basic slice, other
    rows by an index array."""
    first = rows[0]
    if len(rows) == 1:
        return slice(first, first + 1)
    step, last = rows[1] - first, rows[-1]
    if step > 0 and tuple(rows) == tuple(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return np.array(rows, dtype=np.intp)


class _Recipe(NamedTuple):
    """What the updates of one recipe class share."""

    cls: int
    shape: tuple  # of the table summed over: a's for a fresh message, p's for a read-off
    subtract: tuple  # (stack, shape in the table) per other window message of a
    add: tuple  # (stack, shape in the table) per weighted cache added
    axes: tuple  # of the table minimized out, behind the leading batch axis
    cells: int  # of the table


class _Emitter:
    """Collects the numpy calls of one group at a time on a state's message
    and cache stacks M and T and the program's table store (table shape ->
    its stack).  Every update, fresh message or read-off, is one `reduce`
    over its recipe.

    Every group is a batch: its rows are a tuple, one row included, and every
    shape it reads, writes and reduces has a leading batch axis.  Every
    operand is bound once: views of stack rows are shared by the groups that
    read them, and so are multipliers.  A term whose coefficients are all
    equal multiplies by one 0-d array (cheaper in a ufunc call than a Python
    float, with the same product); only one with distinct coefficients
    multiplies by an array along the batch axis.  Rows that only an index
    array can name are staged in scratch (`read`, `write`).  Groups never
    run at the same time, so each group's scratch starts at the start of one
    shared scratch buffer; a group that outgrows the buffer moves on to a new
    one twice as large."""

    def __init__(self, M, T, store):
        self.M, self.T, self.store = M, T, store
        self.buffer = np.empty(0)
        self.top = 0  # scratch cells of the buffer the current group uses
        self.calls = []  # (function, arguments) of the current group
        self.stores = []  # staged rows the group writes, stored back when it ends
        self.regions = {}  # (offset, shape) -> view of the buffer
        self.index = {}  # rows -> what names them in a stack (`_index`)
        self.views = {}  # (stack id, rows, shape) -> view of those rows
        self.coefs = {}  # the one coefficient, or (coefficients, dimensions) -> multiplier; None for 1.0

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

    def at(self, rows):
        at = self.index.get(rows)
        if at is None:
            at = self.index[rows] = _index(rows)
        return at

    def read(self, stack, rows, shape):
        # `rows` of `stack` in `shape`
        key = (id(stack), rows, shape)
        view = self.views.get(key)
        if view is None:
            at = self.at(rows)
            if type(at) is np.ndarray:
                staged = self.scratch((len(rows),) + stack.shape[1:])
                self.emit(stack.take, at, 0, staged)
                return staged.reshape(shape)
            view = self.views[key] = stack[at].reshape(shape)
        return view

    def write(self, stack, rows, load):
        # `rows` of `stack` for the group to write, read first if `load`
        shape = (len(rows),) + stack.shape[1:]
        at = self.at(rows)
        if type(at) is not np.ndarray:
            return self.read(stack, rows, shape)
        staged = self.read(stack, rows, shape) if load else self.scratch(shape)
        self.stores.append((stack.__setitem__, (at, staged)))
        return staged

    def weighted(self, stack, rows, coefs, shape):
        # the caches at `rows` of `stack` in `shape`, each times its
        # coefficient: one 0-d multiplier when the coefficients are all
        # equal, the caches themselves when that value is exactly 1.0, since
        # x * 1.0 is x bit for bit
        caches = self.read(stack, rows, shape)
        same = coefs.count(coefs[0]) == len(coefs)
        key = coefs[0] if same else (coefs, len(shape))
        coef = self.coefs.get(key, False)
        if coef is False:
            if same:
                coef = None if key == 1.0 else np.array(key)
            else:
                coef = np.array(coefs).reshape((len(coefs),) + (1,) * (len(shape) - 1))
            self.coefs[key] = coef
        if coef is None:
            return caches
        product = self.scratch(shape)
        self.emit(np.multiply, coef, caches, product)
        return product

    def reduce(self, updates, total, out):
        """Each update's terms summed over its table and minimized onto b,
        into `out`.  A fresh message (a, b) starts from a's table, subtracts
        a's other window messages and adds the weighted caches of the
        separators b lacks.  A read-off toward b from the superset p next to
        it in a's window adds the weighted caches of p's locals outside b's
        (p's own cache is always one) to `total`, a table over p, or to zero
        with `total` None: that is the `reuse="after"` increment; while
        (a, p) holds this sweep's message, the stored (a, b) message plus it
        equals the direct update, scanning only p.  An update is (its
        class's `_Recipe`, a's row in the table store or None for a read-off,
        the rows of the messages subtracted, the rows of the caches added,
        their coefficients).  a's tables, read from the store, and zero are
        read-only, so the first term writes into scratch; `total` is the
        caller's scratch, worked in place."""
        rec, row = updates[0][:2]
        batch = (len(updates),)
        subtract = zip(*map(_SUBTRACT_ROWS, updates))
        add, coefs = zip(*map(_ADD_ROWS, updates)), zip(*map(_ADD_COEFS, updates))
        if total is not None:
            acc = work = total
        else:
            rows = tuple(map(_TABLE_ROW, updates))
            acc = 0.0 if row is None else self.read(self.store[rec.shape], rows, batch + rec.shape)
            work = self.scratch(batch + rec.shape) if rec.subtract or rec.add else None
        for (s, shape), rows in zip(rec.subtract, subtract):
            self.emit(np.subtract, acc, self.read(self.M[s], rows, batch + shape), work)
            acc = work
        for (s, shape), rows, coef in zip(rec.add, add, coefs):
            self.emit(np.add, acc, self.weighted(self.T[s], rows, coef, batch + shape), work)
            acc = work
        self.emit(np.minimum.reduce, acc, rec.axes, None, out)

    def group(self):
        # the calls emitted since the last group, staged rows stored last
        calls = tuple(self.calls + self.stores)
        self.calls, self.stores, self.top = [], [], 0
        return calls


_TABLE_ROW, _SUBTRACT_ROWS, _ADD_ROWS, _ADD_COEFS = map(itemgetter, range(1, 5))


@_gc_paused
def compile_sweeps(decomp, reuse, M, T):
    """The `SweepProgram` of a reuse mode for a decomposition on a state's
    message and cache stacks M and T; see the module docstring.  Each
    variant is walked with one update rule per edge; the forward variant
    with lead edges current is the first pass's own where no edge is a lead
    edge."""
    d = decomp
    js = d.jstructure
    scopes, locals_, separators = js.scopes, js.locals, js.separators
    tables = [f.table for f in d.model.factors]
    rho = d.rho_factor
    windows = d.local_separators
    layout = d._layout
    edge_row, sep_row = layout.edge_row, layout.sep_row
    stack_of = {shape: s for s, shape in enumerate(layout.shapes)}
    use_after = reuse in ("after", "before-after")
    use_before = reuse == "before-after"
    orders = {True: d.separator_order, False: d.separator_order[::-1]}
    trailing = {True: d.sep_minus, False: d.sep_plus}

    # Message edges are numbered by their index in `message_edges` and
    # separator b by n + b; these numbers name what a step reads and writes.
    edges = d.message_edges
    n = len(edges)
    eid = {key: i for i, key in enumerate(edges)}
    erow = [edge_row[key] for key in edges]
    source = [a for a, _ in edges]
    incoming = {}  # b -> its edges, sources in sigma order (message_edges are)
    for i, (a, b) in enumerate(edges):
        incoming.setdefault(b, []).append(i)

    # The table store: per table shape, a read-only stack of the distinct
    # tables (by identity: a parsed or generated model shares tables) of the
    # separators in sigma order, then of the message edges' sources.
    store, row_of = {}, {}  # shape -> its tables; table id -> its row
    for t in map(tables.__getitem__, (*d.separator_order, *source)):
        if id(t) not in row_of:
            held = store.setdefault(t.shape, [])
            row_of[id(t)] = len(held)
            held.append(t)
    for shape, held in store.items():
        store[shape] = np.stack(held)
        store[shape].flags.writeable = False

    # A recipe class is what the updates of a batched group share; classes
    # are numbered, and derived once per source structure (see the module
    # docstring).
    classes = {}

    def recipe(shape, subtract, add, axes):
        cls = classes.setdefault((shape, subtract, add, axes), len(classes))
        return _Recipe(cls, shape, subtract, add, axes, math.prod(shape))

    def terms_at(shape, places):
        # per place, (stack, shape in a `shape` table) of a separator over
        # those axes of the table
        terms = []
        for place in places:
            own, sh = [], [1] * len(shape)
            for x in place:
                own.append(shape[x])
                sh[x] = shape[x]
            terms.append((stack_of[tuple(own)], tuple(sh)))
        return tuple(terms)

    def outside(shape, place):
        # the axes of a `shape` table not in `place`, behind the batch axis
        return tuple([x + 1 for x in range(len(shape)) if x not in place])

    def structure(shape, places, slots):
        # per window slot k, with b there: the `_Recipe` of b's fresh update,
        # the separator locals it adds, its group key and, forward and
        # backward, the slot swept just before b and the read-off from it,
        # then the same of the slot swept just after.  A read-off is its
        # `_Recipe` and the locals it adds, None where b does not nest in that
        # slot's separator or the mode takes no read-off.  Locals are numbered
        # by their place in `places`.
        terms = terms_at(shape, places)
        sets = [set(place) for place in places]

        def read_off(w, k):
            # toward slot k from the superset p at slot w: p's locals outside b's
            if not (0 <= w < len(slots) and sets[slots[k]] < sets[slots[w]]):
                return None
            p, b = sets[slots[w]], sets[slots[k]]
            at = {x: y for y, x in enumerate(places[slots[w]])}  # a's axes -> p's
            p_shape = tuple([shape[x] for x in places[slots[w]]])
            cs = tuple([x for x, c in enumerate(sets) if c <= p and not c <= b])
            add = terms_at(p_shape, [[at[x] for x in places[c]] for c in cs])
            place = [at[x] for x in places[slots[k]]]  # b's axes in p
            return recipe(p_shape, (), add, outside(p_shape, place)), cs

        entries = []
        for k, y in enumerate(slots):
            lack = tuple([x for x, c in enumerate(sets) if not c <= sets[y]])
            subtract = tuple(map(terms.__getitem__, slots[:k] + slots[k + 1 :]))
            add = tuple(map(terms.__getitem__, lack))
            rec = recipe(shape, subtract, add, outside(shape, places[y]))
            below = above = None
            if use_after:
                below, above = read_off(k - 1, k), read_off(k + 1, k)
            near = ((k - 1, below, k + 1, above), (k + 1, above, k - 1, below))
            entries.append((rec, lack, (FRESH, terms[y][0], rec.cls), near))
        return entries

    structures = {}  # (table shape, places of the separator locals, window slots) -> `structure`
    fresh = [None] * n  # per edge: (`_Recipe`, a's store row, subtract rows, add rows, coefficients)
    fresh_reads = [None] * n  # per edge: the numbers its fresh update reads
    fresh_placed = [None] * n  # per edge: its fresh update's group key and entry (see `walk`)
    # per direction and edge (a, b): the slot in a's window of the neighbour
    # swept just before b and the read-off from it, the same of the one swept
    # just after b (see `structure`)
    around = {True: [None] * n, False: [None] * n}
    source_of = [None] * n  # per edge (a, b): rows, coefficients and numbers of a's locals
    for a in dict.fromkeys(source):
        t = tables[a]
        at = dict(zip(scopes[a], range(t.ndim)))
        ra = rho[a]
        slot, places, rows, ids, coefs = {}, [], [], [], []
        for c in sorted(locals_[a]):
            if c in separators:
                slot[c] = len(places)
                places.append(tuple(map(at.__getitem__, scopes[c])))
                rows.append(sep_row[c][1])
                ids.append(n + c)
                coefs.append(ra / rho[c])
        window = windows[a]
        key = (t.shape, tuple(places), tuple(map(slot.__getitem__, window)))
        made = structures.get(key)
        if made is None:
            made = structures[key] = structure(*key)
        wids = tuple([eid[(a, c)] for c in window])
        wrows = tuple([erow[i][1] for i in wids])
        of_a = (tuple(rows), tuple(coefs), tuple(ids))
        for k, i in enumerate(wids):
            rec, lack, group, near = made[k]
            lacked = (tuple(map(rows.__getitem__, lack)), tuple(map(coefs.__getitem__, lack)))
            fresh[i] = (rec, row_of[id(t)], wrows[:k] + wrows[k + 1 :], *lacked)
            fresh_reads[i] = (*wids[:k], *wids[k + 1 :], *map(ids.__getitem__, lack))
            fresh_placed[i] = (group, (wrows[k], (FRESH, i, None, None), rec.cells, None))
            around[True][i], around[False][i] = near
            source_of[i] = of_a

    def fold_recipe(i, read_off):
        # (update, reads) of a read-off on edge i, from its source's
        # structure; the update as `_Emitter.reduce` takes it
        (rec, cs), (rows, coefs, ids) = read_off, source_of[i]
        fold = (rec, None, (), tuple(map(rows.__getitem__, cs)), tuple(map(coefs.__getitem__, cs)))
        return fold, tuple(map(ids.__getitem__, cs))

    em = _Emitter(M, T, store)
    # a group's updates or separators -> its calls, for the variants and
    # directions that run the same group
    made_messages, made_caches = {}, {}

    def message_group(key, placed):
        # the calls of the updates `placed` at one level under one key
        placed.sort()
        ops = tuple([e[1] for e in placed])
        calls = made_messages.get(ops)
        if calls is not None:
            return calls
        kind, s = key[0], key[1]
        rows = tuple([e[0] for e in placed])
        if kind is FRESH:
            em.reduce([fresh[op[1]] for op in ops], None, em.write(M[s], rows, load=False))
        else:
            batch = (len(ops),)
            delta = em.scratch(batch + M[s].shape[1:])
            folds = [e[3] for e in placed]
            if kind is AFTER:
                em.reduce(folds, None, delta)
            else:  # BEFORE: refresh (a, p) and fold its increment toward b in
                sup = [op[2] for op in ops]
                sp = erow[sup[0]][0]
                rows_p = tuple([erow[j][1] for j in sup])
                m_new = em.scratch(batch + M[sp].shape[1:])
                em.reduce([fresh[j] for j in sup], None, m_new)
                old = em.write(M[sp], rows_p, load=True)
                rec = folds[0][0]
                total = em.scratch(batch + rec.shape)
                em.emit(np.subtract, m_new, old, total)
                em.reduce(folds, total, delta)
                b_in_p = tuple([1 if x in rec.axes else c for x, c in enumerate(batch + rec.shape)])
                em.emit(np.subtract, m_new, delta.reshape(b_in_p), old)
            out = em.write(M[s], rows, load=True)
            em.emit(np.add, out, delta, out)
        calls = made_messages[ops] = em.group()
        return calls

    inrows = {b: tuple([erow[i][1] for i in ins]) for b, ins in incoming.items()}

    def cache_group(key, seps):
        # each separator's original table plus its incoming messages, in
        # sigma order of their sources, into its cache
        seps.sort()
        bs = tuple([b for _, b in seps])
        calls = made_caches.get(bs)
        if calls is not None:
            return calls
        s, indegree = key
        out = em.write(T[s], tuple([r for r, _ in seps]), load=False)
        shape, messages = (len(bs),) + M[s].shape[1:], zip(*[inrows.get(b, ()) for b in bs])
        acc = em.read(store[shape[1:]], tuple([row_of[id(tables[b])] for b in bs]), shape)
        if not indegree:
            em.emit(np.copyto, out, acc)
        for rows in messages:
            em.emit(np.add, acc, em.read(M[s], rows, shape), out)
            acc = out
        calls = made_caches[bs] = em.group()
        return calls

    def walk(forward, lead_current):
        # the levels of one variant, each its message groups {key: updates
        # placed} and its cache groups {key: separators}, and whether it met
        # a lead edge.  An update placed is (row, op, cells, its read-off or
        # None).
        order, trail, near = orders[forward], trailing[forward], around[forward]
        pending = set()  # edges refreshed preemptively
        led = False
        last_write = [-1] * (n + len(scopes))
        last_access = [-1] * (n + len(scopes))  # the last level that read or wrote it
        levels = []
        for b in order:
            ins = incoming.get(b, ())
            reads, writes = list(ins), [n + b]  # the cache rebuild reads ins
            placed = []
            for i in ins:
                a = source[i]
                if b == trail[a]:
                    continue
                if i in pending:
                    pending.discard(i)
                    continue
                wp, pred, ws, succ = near[i]
                after = use_after and pred is not None
                if after and windows[a][wp] == trail[a]:  # a lead edge
                    led, after = True, lead_current
                stack, row = erow[i]
                if after:
                    fold, fold_reads = fold_recipe(i, pred)
                    op = (AFTER, i, None, windows[a][wp])
                    placed.append(((AFTER, stack, fold[0].cls), (row, op, fold[0].cells, fold)))
                    reads += fold_reads
                elif use_before and succ is not None:
                    j = eid[(a, windows[a][ws])]
                    pending.add(j)
                    rec = fresh[j][0]
                    fold, fold_reads = fold_recipe(i, succ)
                    key = (BEFORE, stack, erow[j][0], rec.cls, fold[0].cls)
                    op = (BEFORE, i, j, windows[a][ws])
                    placed.append((key, (row, op, rec.cells + fold[0].cells, fold)))
                    reads += fresh_reads[j]
                    reads += fold_reads
                    reads.append(j)
                    writes.append(j)
                else:
                    placed.append(fresh_placed[i])
                    reads += fresh_reads[i]
                writes.append(i)

            # the first level after every step this one conflicts with
            level = 0
            for x in reads:
                if last_write[x] >= level:
                    level = last_write[x] + 1
            for x in writes:
                if last_access[x] >= level:
                    level = last_access[x] + 1
            for x in reads:
                if last_access[x] < level:
                    last_access[x] = level
            for x in writes:
                last_write[x] = last_access[x] = level

            if level == len(levels):
                levels.append(({}, {}))
            messages, caches = levels[level]
            for key, entry in placed:
                messages.setdefault(key, []).append(entry)
            stack, row = sep_row[b]
            caches.setdefault((stack, len(ins)), []).append((row, b))

        if pending:
            raise UnconsumedPreemptiveMessage(
                f"preemptive messages left unconsumed: {sorted(edges[j] for j in pending)}"
            )
        return levels, led

    def variant(forward, lead_current, read_off):
        # the compiled variant, and whether it met a lead edge
        levels, led = walk(forward, lead_current)
        phases, ops, cells = [], 0, 0
        for messages, caches in levels:
            if messages:
                groups = []
                for key, group in messages.items():
                    groups.append(message_group(key, group))
                    ops += len(group)
                    cells += sum([e[2] for e in group])
                phases.append(tuple(groups))
            phases.append(tuple([cache_group(key, seps) for key, seps in caches.items()]))
        return Variant(tuple(phases), ops, cells, read_off), led

    fallback = tuple(
        t for t, chain in enumerate(d.chains) if any(a not in js.outer for a in chain)
    )
    forward_bound = _read_off(d, fallback, d.sep_plus, -1)
    first, led = variant(True, False, forward_bound)
    variants = {
        (True, False): first,
        (True, True): variant(True, True, forward_bound)[0] if led else first,
        (False, True): variant(False, True, _read_off(d, fallback, d.sep_minus, 0))[0],
    }
    return SweepProgram(d, (*M, *T), variants, fallback)


def _read_off(decomp, fallback, far, member):
    # the `PassBound` of a sweep whose chains end at their `member` (-1
    # forward, 0 backward), each member's far window end in `far`; the
    # `fallback` chains are left to the chain DP
    d = decomp
    model, layout = d.model, d._layout
    ends, const, cells = {}, 0.0, 0
    for t, chain in enumerate(d.chains):
        if t in fallback:
            continue
        e = far[chain[member]]
        if e is None:  # one singleton outer factor: no messages, a constant minimum
            a = chain[0]
            const += d.rho[t] * float((model.table(a) / d.rho_factor[a]).min())
            continue
        s, row = layout.sep_row[e]
        ends.setdefault(s, []).append((row, d.rho[t] / d.rho_factor[e]))
        cells += model.table(e).size
    batched = []
    for s, end in ends.items():
        rows, coefs = zip(*end)
        batched.append((s, _index(rows), tuple(range(1, 1 + len(layout.shapes[s]))), coefs))
    return PassBound(tuple(batched), cells, const)


@_gc_paused
def chain_stages(decomp):
    """Per chain, the `Stage`s of its dynamic program."""
    d = decomp
    js = d.jstructure
    counts = d.model.label_counts
    scopes = js.scopes
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
                    terms.append((c, embed_shape(scopes[c], scopes[a], counts)))
            carry_axes = carry_shape = None
            if i + 1 < len(chain):
                s = d.sep_plus[a]
                carry_axes = drop_axes(scopes[a], scopes[s])
                carry_shape = embed_shape(scopes[s], scopes[chain[i + 1]], counts)
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
    return tuple(stages)


