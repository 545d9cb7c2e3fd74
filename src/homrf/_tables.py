"""Dense table arithmetic over sorted node scopes.

Tables are C-ordered numpy arrays with one axis per scope node, axes sorted by
node id.  Because a subset of a sorted scope is again sorted, a table over
B <= A maps onto A's axes by inserting length-1 axes, and numpy broadcasting
does the rest.
"""

import itertools

import numpy as np


def table_shape(scope, label_counts):
    return tuple([label_counts[v] for v in scope])


def embed_shape(scope, target_scope, label_counts):
    """Shape under which a `scope` table broadcasts against a `target_scope`
    table: `embed` as a reshape known before the table exists."""
    return tuple([label_counts[v] if v in scope else 1 for v in target_scope])


def embed(table, scope, target_scope):
    """View of `table` (over `scope`) broadcastable against a `target_scope` table.

    `scope` is a subset of `target_scope` and both are sorted, so the table's
    sizes come in target order."""
    if scope == target_scope:
        return table
    sizes = iter(table.shape)
    return table.reshape(tuple([next(sizes) if v in scope else 1 for v in target_scope]))


def drop_axes(scope, keep_scope):
    """Axes of a `scope` table that are not in `keep_scope`."""
    return tuple([i for i, v in enumerate(scope) if v not in keep_scope])


def min_over(table, axes):
    """Minimize out `axes` (all of them when None); a fresh copy when there
    are none.

    Calls the ufunc reduction that `ndarray.min` dispatches to, without its
    Python wrapper: this runs on every message and every chain stage."""
    return np.minimum.reduce(table, axis=axes)


def reduce_min(table, scope, keep_scope):
    """Minimize out the axes of `scope` that are not in `keep_scope`."""
    return min_over(table, drop_axes(scope, keep_scope))


def accumulate(pairs, target_scope, label_counts):
    """Sum tables over sub-scopes of `target_scope` into one dense table."""
    out = np.zeros(table_shape(target_scope, label_counts))
    for scope, table in pairs:
        out += embed(table, scope, target_scope)
    return out


def assignments(scope, label_counts):
    """Iterate joint states of `scope` in row-major (lowest-index-first) order."""
    return itertools.product(*(range(label_counts[v]) for v in scope))


def restrict(labeling, scope):
    """Joint state of `scope` under a full labeling (index tuple for its table)."""
    return tuple(labeling[v] for v in scope)
