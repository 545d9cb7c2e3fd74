"""Sweep plan: what the message-form sweep and its bound look up that depends
on the decomposition alone.

The window neighbours and skip flags of every message edge, the tables each
update reads with the broadcast shapes and reduce axes that align them, each
chain's dynamic-programming stages, and the end separators that the bound
after a sweep is read off (see `homrf.trws`) are worked out once per
decomposition instead of on every pass.  A plan is immutable; `Decomposition`
builds it on first use and caches it, so it lives exactly as long as the
decomposition.
"""

from typing import NamedTuple

from ._tables import drop_axes, embed_shape, table_shape


class MessageRecipe(NamedTuple):
    """Fresh message on an outer-to-separator edge (a, b)."""

    source: object  # original cost table of a
    subtract: tuple  # ((a, c), shape of c in a) for a's other window separators c
    extra: tuple  # (rho_a / rho_c, c, shape of c in a) for separators b lacks
    axes: tuple  # axes of a minimized out to reach b


class NestedRecipe(NamedTuple):
    """Message toward b read off the superset p next to it in a's window."""

    key_p: tuple  # (a, p)
    key_b: tuple  # (a, b)
    shape: tuple  # table shape of p
    terms: tuple  # (rho_a / rho_c, c, shape of c in p) for locals of p outside b's
    axes: tuple  # axes of p minimized out to reach b
    b_in_p: tuple  # shape of b in p


class EdgeStep(NamedTuple):
    """One message edge (a, b) at its separator's step of a sweep."""

    a: int
    key: tuple
    skip: bool  # b is a's trailing window bound: the message stays as it is
    pred: object  # window neighbour processed just before b, or None
    fresh: MessageRecipe
    after: NestedRecipe  # b nested in pred, else None
    before: NestedRecipe  # b nested in the next window neighbour, else None


class SeparatorStep(NamedTuple):
    b: int
    source: object  # original cost table of b
    edges: tuple  # EdgeStep per incoming window edge, sources in sigma order


class Stage(NamedTuple):
    """One chain member in the chain's dynamic program."""

    shape: tuple  # table shape of the member
    terms: tuple  # (c, shape of c in the member) for locals first covered here
    carry_axes: tuple  # axes minimized out to the joint separator; None on the last
    carry_shape: tuple  # shape of the joint separator in the next member


class PassBound(NamedTuple):
    """What the bound after a sweep in one direction is read off: the sum of
    each chain's probability times its minimum, which the unnormalized sweep
    leaves in the cached table of the chain's far end separator."""

    ends: tuple  # (rho_t / rho_e, e) per read-off chain t, e its far end separator
    const: float  # rho_t * min(table) / rho summed over one-singleton-factor chains


class SweepPlan(NamedTuple):
    forward: tuple  # SeparatorStep per separator, in sweep order
    backward: tuple
    fresh: dict  # (a, b) -> MessageRecipe
    net: tuple  # per factor: ((a, c), shape) of an outer factor's messages, None for separators
    stages: tuple  # per chain: its Stages
    forward_bound: PassBound
    backward_bound: PassBound
    fallback: tuple  # chains with a member that is not an outer factor: the bound re-solves them


def _shape_in(decomp):
    # memoized shape_in(c, a): the broadcast shape of factor c inside factor a
    scopes = decomp.jstructure.scopes
    counts = decomp.model.label_counts
    memo = {}

    def shape_in(c, a):
        shape = memo.get((c, a))
        if shape is None:
            shape = memo[(c, a)] = embed_shape(scopes[c], scopes[a], counts)
        return shape

    return shape_in


def _nested_recipe(decomp, a, p, b, shape_in):
    """Recipe for reusing the (a, p) message toward b, with b nested in p."""
    js = decomp.jstructure
    scope_p = js.scope(p)
    ra = decomp.rho_factor[a]
    below = js.locals[b]
    terms = tuple(
        (ra / decomp.rho_factor[c], c, shape_in(c, p))
        for c in sorted(js.locals[p])
        if c not in below
    )
    return NestedRecipe(
        (a, p),
        (a, b),
        table_shape(scope_p, decomp.model.label_counts),
        terms,
        drop_axes(scope_p, js.scope(b)),
        shape_in(b, p),
    )


def build_sweep_plan(decomp):
    """Compile the plan of a decomposition; see the module docstring."""
    d = decomp
    js = d.jstructure
    model = d.model
    counts = model.label_counts
    scopes = js.scopes
    sets = [frozenset(s) for s in scopes]
    shape_in = _shape_in(d)

    net = tuple(
        tuple(((f, c), shape_in(c, f)) for c in d.local_separators[f])
        if f in js.outer
        else None
        for f in range(len(scopes))
    )

    fresh = {}
    sources = {b: [] for b in d.separator_order}  # message_edges are in sigma order
    for a, b in d.message_edges:
        ra = d.rho_factor[a]
        fresh[(a, b)] = MessageRecipe(
            model.table(a),
            tuple(term for term in net[a] if term[0][1] != b),
            tuple(
                (ra / d.rho_factor[c], c, shape_in(c, a))
                for c in sorted(js.locals[a] - js.locals[b])
                if c in js.separators
            ),
            drop_axes(scopes[a], sets[b]),
        )
        sources[b].append(a)

    nested = {}  # one recipe per (a, p, b), shared by the two directions

    def reuse(a, p, b):
        if p is None or not sets[b] < sets[p]:
            return None
        rec = nested.get((a, p, b))
        if rec is None:
            rec = nested[(a, p, b)] = _nested_recipe(d, a, p, b, shape_in)
        return rec

    around = {}
    for a, window in d.local_separators.items():
        for i, b in enumerate(window):
            pred = window[i - 1] if i > 0 else None
            succ = window[i + 1] if i + 1 < len(window) else None
            around[(a, b)] = (pred, succ)

    def sweep(forward):
        order = d.separator_order if forward else d.separator_order[::-1]
        steps = []
        for b in order:
            edges = []
            for a in sources[b]:
                key = (a, b)
                trailing = d.sep_minus[a] if forward else d.sep_plus[a]
                if b == trailing:
                    edges.append(EdgeStep(a, key, True, None, None, None, None))
                    continue
                pred, succ = around[key] if forward else around[key][::-1]
                edges.append(
                    EdgeStep(a, key, False, pred, fresh[key], reuse(a, pred, b), reuse(a, succ, b))
                )
            steps.append(SeparatorStep(b, model.table(b), tuple(edges)))
        return tuple(steps)

    stages = []
    for chain in d.chains:
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
                carry_axes = drop_axes(scopes[a], sets[s])
                carry_shape = shape_in(s, chain[i + 1])
            members.append(Stage(table_shape(scopes[a], counts), tuple(terms), carry_axes, carry_shape))
        stages.append(tuple(members))

    fallback = tuple(
        t for t, chain in enumerate(d.chains) if any(a not in js.outer for a in chain)
    )

    def pass_bound(far, member):
        # far: each member's far window end; member: index of the chain's far member
        ends, const = [], 0.0
        for t, chain in enumerate(d.chains):
            if t in fallback:
                continue
            e = far[chain[member]]
            if e is None:  # one singleton outer factor: no messages, a constant minimum
                a = chain[0]
                const += d.rho[t] * float((model.table(a) / d.rho_factor[a]).min())
                continue
            ends.append((d.rho[t] / d.rho_factor[e], e))
        return PassBound(tuple(ends), const)

    return SweepPlan(
        sweep(True),
        sweep(False),
        fresh,
        net,
        tuple(stages),
        pass_bound(d.sep_plus, -1),
        pass_bound(d.sep_minus, 0),
        fallback,
    )
