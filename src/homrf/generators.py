"""Synthetic problem generators on pixel grids.

Both generators lay nodes out row-major on a width x height grid, attach
seeded uniform unaries to singleton factors, and return the model together
with its marginalization structure.  Separators are singletons by default;
the pair mode additionally materializes the overlap pairs used by chain
decompositions as explicit zero-cost factors with their own edges.
"""

import math

import numpy as np

from ._tables import assignments
from .model import build_model, close_j


def _grid_nodes(width, height):
    return [[y * width + x for x in range(width)] for y in range(height)]


def _unaries(source, n, labels, seed, high):
    if source is None:
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, high, size=(n, labels))
    return np.asarray(source, dtype=float).reshape(n, labels)


def _finish(unaries, blocks, separators):
    # the model of a grid's unaries, one row per node, and its blocks, each a
    # (scope, table, overlap pairs), with the J structure that ties every
    # block to its singletons and, in pair mode, to its pairs, which become
    # zero-cost factors the first time a block names them
    n, labels = unaries.shape
    factors = [((v,), unaries[v]) for v in range(n)]
    pair_edges = []
    seen = set()
    for scope, table, pairs in blocks:
        factors.append((scope, table))
        if separators == "pair":
            for pair in pairs:
                pair_edges.append((scope, pair))
                if pair not in seen:
                    seen.add(pair)
                    factors.append((pair, np.zeros((labels, labels))))
    model = build_model([labels] * n, factors)
    edges = set()
    for fid, scope in enumerate(model.scopes):
        if len(scope) >= 2:
            for v in scope:
                edges.add((fid, model.factor_id((v,))))
    edges.update((model.factor_id(a), model.factor_id(b)) for a, b in pair_edges)
    return model, close_j(model.scopes, edges)


def second_order_table(labels, smooth_weight):
    """Ternary curvature cost over three aligned pixels.

    Zero when both neighboring steps stay within one level and match; the
    base weight when they stay within one level and differ by one; three
    times the weight otherwise.
    """
    table = np.empty((labels, labels, labels))
    for l1, l2, l3 in assignments((0, 1, 2), (labels, labels, labels)):
        d1, d2 = l1 - l2, l2 - l3
        if abs(d1) <= 1 and abs(d2) <= 1 and abs(d1 - d2) == 0:
            table[l1, l2, l3] = 0.0
        elif abs(d1) <= 1 and abs(d2) <= 1 and abs(d1 - d2) == 1:
            table[l1, l2, l3] = smooth_weight
        else:
            table[l1, l2, l3] = 3.0 * smooth_weight
    return table


def gen_stereo_second_order(
    width,
    height,
    labels=8,
    smooth_weight=15.0,
    unary_source=None,
    seed=0,
    separators="singleton",
):
    """Disparity-style grid with ternary second-difference factors along rows
    and columns.  Unaries default to seeded noise in [0, 3 * weight], which
    needs a non-negative weight.  A weight whose ternary table would hold a
    non-finite cost raises `ValueError`."""
    if labels < 2 or width < 3 or height < 3:
        raise ValueError("need labels >= 2 and a grid of at least 3x3")
    if not math.isfinite(3.0 * smooth_weight):  # the table's largest entry
        raise ValueError(f"smoothness weight {smooth_weight} gives non-finite costs")
    if unary_source is None and smooth_weight < 0:
        raise ValueError(
            f"smoothness weight must be non-negative to draw unaries, not {smooth_weight}"
        )
    unaries = _unaries(unary_source, width * height, labels, seed, 3.0 * smooth_weight)
    tern = second_order_table(labels, smooth_weight)
    nodes = _grid_nodes(width, height)
    triplets = []
    for y in range(height):
        for x in range(width - 2):
            triplets.append((nodes[y][x], nodes[y][x + 1], nodes[y][x + 2]))
    for x in range(width):
        for y in range(height - 2):
            triplets.append((nodes[y][x], nodes[y + 1][x], nodes[y + 2][x]))
    blocks = [(t, tern, ((t[0], t[1]), (t[1], t[2]))) for t in triplets]
    return _finish(unaries, blocks, separators)


def potts_block_table(labels, block_weight, variant="all-equal"):
    """Cost of a 2x2 pixel block: zero iff all four labels agree, else the
    block weight; the pairwise variant charges per disagreeing adjacent pair."""
    shape = (labels,) * 4
    table = np.empty(shape)
    for ls in assignments((0, 1, 2, 3), shape):
        if variant == "all-equal":
            table[ls] = 0.0 if len(set(ls)) == 1 else block_weight
        else:
            a, b, c, d = ls  # block order: (x, y), (x+1, y), (x, y+1), (x+1, y+1)
            edges = ((a, b), (c, d), (a, c), (b, d))
            table[ls] = block_weight * sum(u != v for u, v in edges)
    return table


def gen_potts_2x2(
    width,
    height,
    labels=4,
    block_weight=5000.0,
    unary_source=None,
    seed=0,
    separators="singleton",
    variant="all-equal",
):
    """Segmentation-style grid with one 4-ary factor per 2x2 pixel block.

    Unaries default to seeded noise in [0, 1).  A weight whose block table
    would hold a non-finite cost raises `ValueError`."""
    if width < 2 or height < 2:
        raise ValueError("need a grid of at least 2x2")
    unaries = _unaries(unary_source, width * height, labels, seed, 1.0)
    block = potts_block_table(labels, block_weight, variant)
    if not np.isfinite(block).all():
        raise ValueError(f"block weight {block_weight} gives non-finite costs")
    nodes = _grid_nodes(width, height)
    blocks = []
    for y in range(height - 1):
        for x in range(width - 1):
            a, b = nodes[y][x], nodes[y][x + 1]
            c, d = nodes[y + 1][x], nodes[y + 1][x + 1]
            blocks.append(((a, b, c, d), block, ((a, b), (c, d), (a, c), (b, d))))
    return _finish(unaries, blocks, separators)
