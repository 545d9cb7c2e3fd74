"""Sweep plans and programs: everything a message-form pass runs and reads,
and the compiled chain dynamic program.

Storage.  A message-form state keeps its messages and separator caches as
rows of stacked arrays, one stack per separator table shape (`Layout`).  A
message edge's row is its rank among the edges of its shape in
`message_edges`, a separator's its rank among the separators of its shape in
`separator_order`, so the layout follows from the decomposition alone.  It
needs every outer factor in a chain: one in none has no window, so no
message edges.

Plan.  Each compile first derives what its program reads that the
decomposition and the mode alone fix (`sweep_plan`): per edge its update in
each variant of the program (below), what the bound after a sweep in each
direction is read off (`PassBound`, with the chains it re-solves instead,
see `homrf.trws`), and the table store: one read-only stack per table shape
of the distinct tables (by identity) of the separators in `separator_order`,
then of the message edges' sources.

Program.  A program holds three variants of a sweep, compiled together:
backward, forward on the first pass, and forward later.  Sweeps alternate
from a forward first pass (a state's direction is the parity of its pass
count).  The plan picks each message edge's update in each variant: none at
its trailing bound, else the `after` nested reuse from the superset swept
just before it, else the `before` nested reuse of the one swept just after,
else a fresh message.  A `before` refreshes that superset's edge
preemptively, whose pick is then none: a no-op, which refreshes nothing in
turn.  The one exception is a `lead` edge, whose window neighbour swept just
before it is its trailing bound: it may take `after` only once a sweep in
the other direction has completed, so not on the first pass.  The lead edges
are thus where the two forward variants differ, and without one they are one
variant.  A reuse mode's sweeps then compile from the plan onto one state's
stacks (`compile_sweeps`): the walks only place each update by its
conflicts, and the emission binds their numpy calls.

Recipes.  Every update sums terms over a table and minimizes onto b
(`_Emitter.reduce`): a fresh message over a's table, a read-off over the
table of the superset p next to b in a's window.  What it needs besides rows
and coefficients follows from the structure of its source a: a's table
shape, where the scopes of a's separator locals sit in a's scope, which of
them form a's window, and which window slots are a's trailing bounds.  J is
closed: it holds (B, C) wherever it holds (A, B) and (A, C) with scope(C)
inside scope(B).  So p's locals are among a's, and a separator local c of a
is a local of b exactly when c is b or c's axes in a are among b's.  Each
distinct structure is derived once per plan into every window slot's pick
in each variant, recipe (`_Recipe`) included and the consumed no-ops too.
Each source binds as its `_Update`s only the picks a variant takes and the
fresh ones a `before` refreshes; an update is named by the edge it writes.

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
views of their stack, reshaped to the shape they broadcast in, and rows that
all name one row as a stride-0 view of it; fresh minima are written with
`out=` straight into their message rows, `after` and `before` increments are
added in place and caches are rebuilt into their rows.  Other rows are
staged in scratch, read in with `take` before the group's arithmetic and
stored back after it.  An update's table rows are a read-only operand: its
first term writes into scratch, and an update without terms minimizes them
straight into its rows.  A cache term whose coefficients are all equal
multiplies by that one value, and one whose value is exactly 1.0 adds the
cache rows themselves, with no multiply: x * 1.0 is x bit for bit.  A
program keeps its level boundaries: each level runs in two phases, its
message groups and then its cache groups, and the groups of one phase
commute.  A group that two variants or both directions run is compiled once.

Programs are compiled per state, on its first pass in a reuse mode, and
kept in its `Bindings`; the plan is freed once the program is built.

Chain DP.  Every exact chain solve runs a `ChainProgram`: the dynamic
program of the chains it solves, over one flat buffer of their tables,
compiled from each chain's `Stage`s (`chain_stages`) on first use and kept
on the decomposition by the chains it solves (`chain_program`).  The chain
DP one stage at a time it is checked against lives in the tests.
"""

import math
import threading
from operator import is_
from typing import NamedTuple

import numpy as np

from ._tables import drop_axes, embed_shape, table_shape
from .errors import HomrfError
from .model import _gc_paused

FRESH, AFTER, BEFORE = "fresh", "after", "before"
_ALL = slice(None)


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
    fallback: tuple  # chains with a member that is not an outer factor: the chain DP re-solves them


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


class _Update(NamedTuple):
    """A message update, as the walk places it and `_Emitter.reduce` sums it."""

    row: int  # of the message it writes
    op: int  # the number of the edge it writes
    key: tuple  # of its group: kind, message stack, then recipe classes
    rec: _Recipe
    table: object  # a's row in the table store, None for a read-off
    subtract: tuple  # rows of the messages subtracted
    add: tuple  # rows of the caches added
    coefs: tuple  # their coefficients
    reads: tuple  # the numbers of what it reads besides the messages into b
    sup: object = None  # of a `before` update: the fresh update of the superset it refreshes


class _Emitter:
    """Collects the numpy calls of one group at a time on a state's message
    and cache stacks M and T and the plan's table store (table shape -> its
    stack).  Every update, fresh message or read-off, is one `reduce` over
    its recipe.

    Every group is a batch: its rows are a tuple, one row included, and every
    shape it reads, writes and reduces has a leading batch axis.  Every
    operand is bound once: views of stack rows are shared by the groups that
    read them, and so are multipliers.  A term whose coefficients are all
    equal multiplies by one 0-d array (cheaper in a ufunc call than a Python
    float, with the same product); only one with distinct coefficients
    multiplies by an array along the batch axis.  Rows that only an index
    array can name are staged in scratch (`read`, `write`), unless they all
    name one row.  Groups never run at the same time, so each group's scratch
    starts at the start of one shared scratch buffer; a group that outgrows
    the buffer moves on to a new one twice as large."""

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
        # `rows` of `stack` in `shape`: a view, a stride-0 view of the one
        # row they all name, or staged
        key = (id(stack), rows, shape)
        view = self.views.get(key)
        if view is None:
            at = self.at(rows)
            if type(at) is not np.ndarray:
                view = stack[at].reshape(shape)
            elif rows.count(rows[0]) == len(rows):
                view = np.broadcast_to(stack[rows[0]].reshape(shape[1:]), shape)
            else:
                staged = self.scratch((len(rows),) + stack.shape[1:])
                self.emit(stack.take, at, 0, staged)
                return staged.reshape(shape)
            self.views[key] = view
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
        equals the direct update, scanning only p.  The updates are
        `_Update`s of one recipe class.  a's tables, read from the store, and
        zero are read-only, so the first term writes into scratch; `total` is
        the caller's scratch, worked in place."""
        rec, batch = updates[0].rec, (len(updates),)
        subtract = zip(*[u.subtract for u in updates])
        add, coefs = zip(*[u.add for u in updates]), zip(*[u.coefs for u in updates])
        if total is not None:
            acc = work = total
        else:
            rows = tuple([u.table for u in updates])
            acc = 0.0 if rows[0] is None else self.read(self.store[rec.shape], rows, batch + rec.shape)
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


def sweep_plan(decomp, reuse):
    """What a reuse mode's program reads that the decomposition fixes (see
    the module docstring): per separator b, per edge into b (sources in sigma
    order) its number, its message row and its `_Update` backward, forward on
    the first pass and forward later, None where it takes none; the store row
    of each separator's table; the table store (table shape -> read-only
    stack); and the `PassBound` after a sweep backward and forward."""
    use_after, use_before = reuse in ("after", "before-after"), reuse == "before-after"
    d = decomp
    js = d.jstructure
    scopes, locals_, separators = js.scopes, js.locals, js.separators
    tables = [f.table for f in d.model.factors]
    rho = d.rho_factor
    layout = d._layout
    edge_row, sep_row = layout.edge_row, layout.sep_row
    stack_of = {shape: s for s, shape in enumerate(layout.shapes)}

    # Message edges are numbered by their index in `message_edges` and
    # separator b by n + b; these numbers name what a step reads and writes.
    # A source's window edges are consecutive there, in window order.
    edges = d.message_edges
    n = len(edges)
    source = [a for a, _ in edges]

    # the table store: a parsed or generated model shares tables
    store, row_of = {}, {}  # shape -> its tables; table id -> its row
    for t in map(tables.__getitem__, (*d.separator_order, *source)):
        if id(t) not in row_of:
            held = store.setdefault(t.shape, [])
            row_of[id(t)] = len(held)
            held.append(t)
    for shape, held in store.items():
        store[shape] = np.stack(held)
        store[shape].flags.writeable = False
    incoming, table_rows = {}, {b: row_of.get(id(tables[b])) for b in sep_row}

    # a recipe class is what the updates of a batched group share: numbered
    classes = {}

    def recipe(shape, subtract, add, axes):
        cls = classes.setdefault((shape, subtract, add, axes), len(classes))
        return _Recipe(cls, shape, subtract, add, axes, math.prod(shape))

    def structure(shape, places, slots, trail):
        # A source structure's picks, each (kind, slot k, `_Recipe`, separator
        # locals added, group key, the fresh pick a `before` refreshes or
        # None): only those its variants take, each once by its id, a fresh
        # pick ahead of the `before` that refreshes it.  Per slot, the ids of
        # its picks backward, forward on the first pass and forward later,
        # id(None) for none.  `trail` holds the slots of a's trailing bounds
        # backward and forward, None outside the window.  A table's axes are
        # its scope, so a separator local's scope is its places in a's table.
        scope, sets = tuple(range(len(shape))), [set(place) for place in places]
        # per separator local, (stack, shape in a's table)
        own = [(stack_of[table_shape(q, shape)], embed_shape(q, scope, shape)) for q in places]

        def reduced(at, keep):
            # the axes of a table over `at` not in `keep`, behind the batch axis
            return tuple([x + 1 for x in drop_axes(at, keep)])

        fresh = []
        for k, y in enumerate(slots):
            lack = tuple([c for c, s in enumerate(sets) if not s <= sets[y]])
            subtract = tuple(map(own.__getitem__, slots[:k] + slots[k + 1 :]))
            add = tuple(map(own.__getitem__, lack))
            rec = recipe(shape, subtract, add, reduced(scope, places[y]))
            fresh.append((FRESH, k, rec, lack, (FRESH, own[y][0], rec.cls), None))
        # slot k's update read off the superset p at slot w, adding p's
        # locals outside b's
        read_offs = {}  # (kind, k, w) -> its pick
        for k, y in enumerate(slots):
            for w in (k - 1, k + 1) if use_after else ():
                if 0 <= w < len(slots) and sets[y] < sets[slots[w]]:
                    p, ps = places[slots[w]], sets[slots[w]]
                    cs = tuple([c for c, s in enumerate(sets) if s <= ps and not s <= sets[y]])
                    add = tuple([(own[c][0], embed_shape(places[c], p, shape)) for c in cs])
                    rec = recipe(table_shape(p, shape), (), add, reduced(p, places[y]))
                    read_offs[AFTER, k, w] = (AFTER, k, rec, cs, (AFTER, own[y][0], rec.cls), None)
                    if use_before:
                        _, sp, cls = fresh[w][4]  # the group key of slot w's fresh pick
                        key = (BEFORE, own[y][0], sp, cls, rec.cls)
                        read_offs[BEFORE, k, w] = (BEFORE, k, rec, cs, key, fresh[w])

        def chosen(step, t, first):
            # each slot's pick in a sweep of direction `step` with trailing bound t
            picked = []
            for k in range(len(slots)):
                after = not (first and k - step == t) and read_offs.get((AFTER, k, k - step))
                before = read_offs.get((BEFORE, k, k + step))
                picked.append(None if k == t else after or before or fresh[k])
            # a `before` refreshes the slot swept just after it, whose own
            # update is then a no-op that refreshes nothing
            for k in range(len(slots))[::step] if use_before else ():
                if picked[k] is not None and picked[k][0] is BEFORE:
                    picked[k + step] = None
            return picked

        # the forward variants differ only where a lead slot, next after the
        # trailing bound, takes `after` later but not on the first pass
        lead = trail[1] is not None and (AFTER, trail[1] + 1, trail[1]) in read_offs
        backward, later = chosen(-1, trail[0], False), chosen(1, trail[1], False)
        variants = (backward, chosen(1, trail[1], True) if lead else later, later)
        taken = {}  # id of a pick -> the pick
        for pick in (pick for picked in variants for pick in picked if pick is not None):
            if pick[5] is not None:
                taken.setdefault(id(pick[5]), pick[5])
            taken.setdefault(id(pick), pick)
        return tuple(taken.items()), tuple(zip(*[list(map(id, picked)) for picked in variants]))

    structures = {}  # (table shape, separator locals' places, window slots, trail) -> `structure`
    offset = 0  # the number of a's first window edge
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
        window = d.local_separators[a]
        # the window holds a's trailing bounds, if at all, at its ends
        back = len(window) - 1 if window[-1] == d.sep_plus[a] else None
        trail = (back, 0 if window[0] == d.sep_minus[a] else None)
        key = (t.shape, tuple(places), tuple(map(slot.__getitem__, window)), trail)
        made = structures.get(key)
        if made is None:
            made = structures[key] = structure(*key)
        picks, picked = made
        wids = tuple(range(offset, offset + len(window)))
        offset += len(window)
        wrows = tuple([edge_row[(a, c)][1] for c in window])
        # bind: each pick as a's `_Update`, by the pick's id; id(None) binds none
        bound, a_row = {id(None): None}, row_of[id(t)]
        for i, (kind, k, rec, cs, group, sup) in picks:
            added = (tuple(map(rows.__getitem__, cs)), tuple(map(coefs.__getitem__, cs)))
            reads = tuple(map(ids.__getitem__, cs))
            if kind is FRESH:
                others, reads = wrows[:k] + wrows[k + 1 :], (*wids[:k], *wids[k + 1 :], *reads)
                bound[i] = _Update(wrows[k], wids[k], group, rec, a_row, others, *added, reads)
                continue
            sup = bound[id(sup)]  # of a `before`: the superset edge's fresh update it refreshes
            if sup is not None:
                reads = (*sup.reads, *reads, sup.op)
            bound[i] = _Update(wrows[k], wids[k], group, rec, None, (), *added, reads, sup)
        for k, c in enumerate(window):
            back, first, later = picked[k]
            updates = (bound[back], bound[first], bound[later])
            incoming.setdefault(c, []).append((wids[k], wrows[k], updates))

    # the `PassBound` after a sweep backward, then forward
    fallback = tuple(t for t, chain in enumerate(d.chains) if any(a not in js.outer for a in chain))
    bounds = []
    for far, member in ((d.sep_minus, 0), (d.sep_plus, -1)):
        ends, const, cells = {}, 0.0, 0
        for t, chain in enumerate(d.chains):
            if t in fallback:
                continue
            e = far[chain[member]]
            if e is None:  # one singleton outer factor: no messages, a constant minimum
                a = chain[0]
                const += d.rho[t] * float((tables[a] / rho[a]).min())
                continue
            s, row = sep_row[e]
            ends.setdefault(s, []).append((row, d.rho[t] / rho[e]))
            cells += tables[e].size
        batched = []
        for s, end in ends.items():
            rows, coefs = zip(*end)
            batched.append((s, _index(rows), tuple(range(1, 1 + len(layout.shapes[s]))), coefs))
        bounds.append(PassBound(tuple(batched), cells, const, fallback))
    return incoming, table_rows, store, tuple(bounds)


@_gc_paused
def compile_sweeps(decomp, reuse, M, T):
    """The `SweepProgram` of a reuse mode for a decomposition on a state's
    message and cache stacks M and T, from its `sweep_plan`; see the module
    docstring.  The walks place each edge's update the plan picked for the
    variant.  Every edge a `before` refreshes is swept, and so consumed by its
    no-op: a window holds only separators, and `separator_order` holds every
    separator of the frozen decomposition.  The forward variant with lead
    edges current is the first pass's own where no edge is a lead edge."""
    incoming, table_rows, store, bounds = sweep_plan(decomp, reuse)
    n, sep_row = len(decomp.message_edges), decomp._layout.sep_row

    em = _Emitter(M, T, store)
    # a group's updates (their ids) or separators -> its calls, for the
    # variants and directions that run the same group
    made_messages, made_caches = {}, {}

    def message_group(key, placed):
        # the calls of the `_Update`s `placed` at one level under one key
        placed.sort()
        ids = tuple(map(id, placed))
        calls = made_messages.get(ids)
        if calls is not None:
            return calls
        kind, s = key[0], key[1]
        rows = tuple([e.row for e in placed])
        if kind is FRESH:
            em.reduce(placed, None, em.write(M[s], rows, load=False))
        else:
            batch = (len(ids),)
            delta = em.scratch(batch + M[s].shape[1:])
            if kind is AFTER:
                em.reduce(placed, None, delta)
            else:  # BEFORE: refresh (a, p) and fold its increment toward b in
                sup, sp = [e.sup for e in placed], key[2]
                m_new = em.scratch(batch + M[sp].shape[1:])
                em.reduce(sup, None, m_new)
                old = em.write(M[sp], tuple([e.row for e in sup]), load=True)
                rec = placed[0].rec
                total = em.scratch(batch + rec.shape)
                em.emit(np.subtract, m_new, old, total)
                em.reduce(placed, total, delta)
                b_in_p = tuple([1 if x in rec.axes else c for x, c in enumerate(batch + rec.shape)])
                em.emit(np.subtract, m_new, delta.reshape(b_in_p), old)
            out = em.write(M[s], rows, load=True)
            em.emit(np.add, out, delta, out)
        calls = made_messages[ids] = em.group()
        return calls

    def cache_group(key, rebuilt):
        # each separator's original table plus its incoming messages, in
        # sigma order of their sources, into its cache
        rebuilt.sort()
        bs = tuple([b for _, b in rebuilt])
        calls = made_caches.get(bs)
        if calls is not None:
            return calls
        s, indegree = key
        out = em.write(T[s], tuple([r for r, _ in rebuilt]), load=False)
        shape = (len(bs),) + M[s].shape[1:]
        acc = em.read(store[shape[1:]], tuple([table_rows[b] for b in bs]), shape)
        if not indegree:
            em.emit(np.copyto, out, acc)
        for rows in zip(*[[row for _, row, _ in incoming.get(b, ())] for b in bs]):
            em.emit(np.add, acc, em.read(M[s], rows, shape), out)
            acc = out
        calls = made_caches[bs] = em.group()
        return calls

    def walk(v):
        # the levels of variant v (0 backward, 1 forward on the first pass,
        # 2 forward later), each its message groups {key: `_Update`s placed}
        # and its cache groups {key: separators}
        last_write = [-1] * (n + len(decomp.jstructure.scopes))
        last_access = last_write[:]  # the last level that read or wrote it
        levels = []
        for b in decomp.separator_order if v else decomp.separator_order[::-1]:
            ins = incoming.get(b, ())
            reads, writes, placed = [], [n + b], []
            for i, _, updates in ins:
                reads.append(i)  # the cache rebuild reads every message into b
                update = updates[v]
                if update is None:
                    continue
                placed.append(update)
                reads += update.reads
                writes.append(i)
                if update.sup is not None:  # `before` refreshes the superset's edge now
                    writes.append(update.sup.op)

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
            for update in placed:
                messages.setdefault(update.key, []).append(update)
            stack, row = sep_row[b]
            caches.setdefault((stack, len(ins)), []).append((row, b))
        return levels

    def variant(v):
        # variant v of `walk`, compiled
        phases, ops, cells = [], 0, 0
        for messages, caches in walk(v):
            if messages:
                groups = []
                for key, group in messages.items():
                    groups.append(message_group(key, group))
                    ops += len(group)
                    head = group[0]  # the updates of a group share their recipes
                    cells += len(group) * (head.rec.cells + (head.sup.rec.cells if head.sup else 0))
                phases.append(tuple(groups))
            phases.append(tuple([cache_group(key, group) for key, group in caches.items()]))
        return Variant(tuple(phases), ops, cells, bounds[v > 0])

    # lead edges are those whose two forward updates differ
    first = variant(1)
    lead = any(picked[1] is not picked[2] for ins in incoming.values() for _, _, picked in ins)
    variants = {(True, False): first, (True, True): variant(2) if lead else first, (False, True): variant(0)}
    return SweepProgram(decomp, (*M, *T), variants)


def chain_stages(decomp, t):
    """The `Stage`s of chain t's dynamic program."""
    d = decomp
    js = d.jstructure
    counts = d.model.label_counts
    scopes = js.scopes
    chain = d.chains[t]
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
    return tuple(members)


def chain_program(decomp, chains=None):
    """The decomposition's `ChainProgram` of `chains` (a tuple of chain
    indices; all chains when None), compiled on first use."""
    programs = decomp._chain_programs
    program = programs.get(chains)
    if program is None:
        every = range(len(decomp.chains)) if chains is None else chains
        program = programs[chains] = ChainProgram(decomp, tuple(every))
    return program


_PAD = np.zeros(1)
_PAD.flags.writeable = False


class _Space(NamedTuple):
    """One thread's stage buffer of a `ChainProgram`, with its views."""

    h: np.ndarray  # the stage buffer, then one +inf cell: the argmin matrix's pad
    rounds: tuple  # per term rank, up to its reach: (its reads, scratch, what it adds to, stage buffer)
    views: tuple  # per chain, its stage tables
    links: tuple  # per carry: (stage, axes minimized out, carry, carry in the next stage, next stage)
    last: np.ndarray  # every chain's last stage
    single: np.ndarray  # the argmin matrix of the chains of one member


class ChainProgram:
    """The dynamic program of some of a decomposition's chains, compiled
    onto one flat table buffer.

    The table buffer holds each chain's factor tables, per chain in `chains`
    and then in factor order (`layout`), and one +0.0 cell last.  `run`
    fills one flat stage buffer: every stage's terms as one gather-add per
    term rank, which runs up to the last stage with that many terms (a stage
    before it with fewer terms reads the +0.0 cell), the first rank's over
    every stage, then the carries of the chains of several members in stage
    order.  Every chain's
    last stage sits at the end of the stage buffer, in chain order, so one
    `np.minimum.reduceat` gives every chain's minimum.  Each cell's sum
    starts from +0.0 and adds its terms and then its carry in the order a
    chain at a time adds them, so the stage tables, minima and argmins are
    byte-identical to one stage at a time; a sum from +0.0 is never -0.0, so
    adding the +0.0 cell changes nothing.

    After a run, the stage tables stay in place for `single_argmins` (the
    first argmin of every chain of one member, from one `argmin` over a
    +inf-padded matrix) and `labeling` (any chain's minimizing labeling, by
    backtracking its stages).  Each thread runs on a stage buffer of its
    own, so a program, like its decomposition, is safe to share.
    """

    @_gc_paused
    def __init__(self, decomp, chains):
        scopes, counts = decomp.jstructure.scopes, decomp.model.label_counts
        at, layout, size = {}, [], 0
        for t in chains:
            row = []
            for f in sorted(decomp.tree_factors[t]):
                shape = table_shape(scopes[f], counts)
                n = math.prod(shape)
                row.append((f, size, n, shape))
                at[t, f] = size
                size += n
            layout.append(tuple(row))
        self.chains = chains
        # per chain: (factor, buffer offset, cells, table shape) per factor
        self.layout = tuple(layout)
        self.size = size + 1
        self.stages = stages = tuple([chain_stages(decomp, t) for t in chains])
        self.cells = sum([math.prod(s.shape) for st in stages for s in st])

        # stage buffer: every stage but each chain's last, those with more
        # terms first, then the last ones in chain order; a term rank's
        # gather-add runs up to the last stage that has that many terms, and
        # the first rank's over the whole buffer, so that it also starts the
        # stages without terms
        inner = [(i, k) for i, st in enumerate(stages) for k in range(len(st) - 1)]
        inner.sort(key=lambda ik: -len(stages[ik[0]][ik[1]].terms))
        start, reach, n_h = {}, [], 0
        for i, k in inner + [(i, len(st) - 1) for i, st in enumerate(stages)]:
            start[i, k] = n_h
            n_h += math.prod(stages[i][k].shape)
            m = len(stages[i][k].terms)
            reach[:m] = [n_h] * m
        if n_h:
            reach[:1] = [n_h]
        read_at = np.cumsum([0] + reach).tolist()
        # per term rank, the table buffer cell each stage cell up to its
        # reach reads, all ranks' in one flat array from `read_at[rank]` on
        self.reads = np.full(read_at[-1], size, dtype=np.intp)
        self.read_at = tuple(read_at[:-1])
        reads = [self.reads[a : a + n] for a, n in zip(read_at, reach)]
        for (i, k), p in start.items():
            stage = stages[i][k]
            q = p + math.prod(stage.shape)
            for r, (c, shape) in enumerate(stage.terms):
                o = at[chains[i], c]
                cell = np.arange(o, o + math.prod(shape)).reshape(shape)
                reads[r][p:q].reshape(stage.shape)[...] = cell
        self._reads = tuple(reads)
        self.starts = start  # (chain index, stage) -> its first stage buffer cell
        self._n_h = n_h
        ends = [start[i, len(st) - 1] for i, st in enumerate(stages)]
        self._first_end = ends[0] if ends else 0
        self._ends = np.array(ends, dtype=np.intp) - self._first_end

        single = [i for i, st in enumerate(stages) if len(st) == 1]
        # chain -> its row of `single_argmins`, for the chains of one member
        self.single_row = {i: row for row, i in enumerate(single)}
        sizes = [math.prod(stages[i][0].shape) for i in single]
        src = np.full((len(single), max(sizes, default=1)), n_h, dtype=np.intp)
        for row, (i, n) in enumerate(zip(single, sizes)):
            src[row, :n] = np.arange(start[i, 0], start[i, 0] + n)
        self._single_src = src
        self._local = threading.local()

    def _space(self):
        # the calling thread's stage buffer, made on its first run
        space = getattr(self._local, "space", None)
        if space is None:
            n_h, start = self._n_h, self.starts
            h = np.empty(n_h + 1)
            h[n_h] = np.inf
            views = tuple(
                [
                    tuple([h[start[i, k] : start[i, k] + math.prod(s.shape)].reshape(s.shape) for k, s in enumerate(st)])
                    for i, st in enumerate(self.stages)
                ]
            )
            links = []
            for st, hs in zip(self.stages, views):
                for s, h_s, h_next in zip(st, hs, hs[1:]):
                    carry = np.empty([n for ax, n in enumerate(s.shape) if ax not in s.carry_axes])
                    links.append((h_s, s.carry_axes, carry, carry.reshape(s.carry_shape), h_next))
            scratch = np.empty(n_h)
            rounds = tuple(
                [
                    (reads, scratch[: reads.size], h[: reads.size] if r else 0.0, h[: reads.size])
                    for r, reads in enumerate(self._reads)
                ]
            )
            space = self._local.space = _Space(
                h, rounds, views, tuple(links), h[self._first_end : n_h], np.empty(self._single_src.shape)
            )
        return space

    def gather(self, tables):
        """A table buffer of `tables[i]`, chain `chains[i]`'s mapping of
        factor to table.  Raises `ValueError` for tables of other sizes."""
        parts = [np.ravel(tables[i][f]) for i, row in enumerate(self.layout) for f, _, _, _ in row]
        buffer = np.concatenate(parts + [_PAD])
        if buffer.size != self.size:
            raise ValueError(f"the tables hold {buffer.size - 1} cells, not {self.size - 1}")
        return buffer

    def run(self, buffer):
        """Every chain's minimum over a table buffer, as an array in chain
        order."""
        space = self._space()
        take, add = buffer.take, np.add
        for reads, scratch, sum_from, body in space.rounds:
            take(reads, None, scratch, "clip")
            add(sum_from, scratch, body)
        reduce = np.minimum.reduce
        for h, axes, carry, into, h_next in space.links:
            reduce(h, axes, None, carry)
            add(h_next, into, h_next)
        return np.minimum.reduceat(space.last, self._ends)

    def single_argmins(self):
        """After a run, the flat index of the first minimum of each chain of
        one member, in its `single_row`."""
        space = self._space()
        space.h.take(self._single_src, None, space.single, "clip")
        return space.single.argmin(1)

    def labeling(self, i):
        """After a run, a minimizing labeling of chain `chains[i]`: its last
        stage's first argmin, then each earlier stage's given the labels of
        the later ones."""
        labeling = {}
        for stage, h in zip(reversed(self.stages[i]), reversed(self._space().views[i])):
            if stage.free:
                sub = h[tuple([_ALL if v is None else labeling[v] for v in stage.pick])]
                flat = int(sub.argmin())
                coords = []
                for v, size in reversed(stage.free):  # unravel the flat index
                    flat, c = divmod(flat, size)
                    coords.append((v, c))
                labeling.update(reversed(coords))
        return labeling
