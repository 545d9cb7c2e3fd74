"""Line-oriented text format for models with explicit marginalization edges.

Layout:

    HOMRF
    <node count>
    <label counts, one line>
    <factor count>
    for each factor:
        <scope size> <node ids...>
        <table values, row-major over the sorted scope>
    J
    <edge count>
    <source factor index> <target factor index>   (one line per edge)
    ORDER                                          (optional section)
    <node ids in processing order>

Values are written with 17 significant digits so a serialize/parse round trip
reproduces every double bit-exactly.
"""

import math

from .errors import ParseError
from .model import build_model, close_j


class _Tokens:
    def __init__(self, text):
        self.items = []
        for ln, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((ln, tok))
        self.i = 0
        self.last_line = 0

    def next(self, what):
        if self.i >= len(self.items):
            raise ParseError(f"line {self.last_line}: unexpected end of file, expected {what}")
        ln, tok = self.items[self.i]
        self.i += 1
        self.last_line = ln
        return ln, tok

    def next_int(self, what):
        ln, tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"line {ln}: expected {what}, got {tok!r}") from None

    def next_float(self, what):
        ln, tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"line {ln}: expected {what}, got {tok!r}") from None

    def peek(self):
        if self.i >= len(self.items):
            return None
        return self.items[self.i][1]

    @property
    def exhausted(self):
        return self.i >= len(self.items)


def parse_model_file(text):
    """Parse the text format; returns (model, jstructure, node order or None)."""
    toks = _Tokens(text)
    ln, magic = toks.next("header")
    if magic != "HOMRF":
        raise ParseError(f"line {ln}: expected HOMRF header, got {magic!r}")
    n = toks.next_int("node count")
    if n <= 0:
        raise ParseError(f"line {toks.last_line}: node count must be positive")
    label_counts = [toks.next_int(f"label count of node {v}") for v in range(n)]
    for v, c in enumerate(label_counts):
        if c <= 0:
            raise ParseError(f"line {toks.last_line}: node {v} has label count {c}")

    k = toks.next_int("factor count")
    factors = []
    for f in range(k):
        size = toks.next_int(f"scope size of factor {f}")
        if size <= 0:
            raise ParseError(f"line {toks.last_line}: factor {f} has scope size {size}")
        scope = tuple(toks.next_int(f"node id in factor {f}") for _ in range(size))
        for v in scope:
            if v < 0 or v >= n:
                raise ParseError(f"line {toks.last_line}: factor {f} references node {v}")
        cells = math.prod(label_counts[v] for v in scope)
        values = []
        for _ in range(cells):
            if toks.exhausted:
                raise ParseError(
                    f"line {toks.last_line}: table of factor {f} is truncated"
                )
            values.append(toks.next_float(f"table value of factor {f}"))
        factors.append((scope, values))

    model = build_model(label_counts, factors)

    edges = set()
    node_order = None
    while not toks.exhausted:
        ln, section = toks.next("section name")
        if section == "J":
            m = toks.next_int("edge count")
            for e in range(m):
                a = toks.next_int(f"source of edge {e}")
                b = toks.next_int(f"target of edge {e}")
                if not (0 <= a < k and 0 <= b < k):
                    raise ParseError(f"line {toks.last_line}: edge {e} references factor {a} or {b}")
                edges.add((a, b))
        elif section == "ORDER":
            node_order = tuple(toks.next_int("node id in order") for _ in range(n))
            if sorted(node_order) != list(range(n)):
                raise ParseError(f"line {toks.last_line}: ORDER is not a permutation")
        else:
            raise ParseError(f"line {ln}: unknown section {section!r}")

    jstructure = close_j(model.scopes, edges)
    return model, jstructure, node_order


def serialize_model(model, jstructure, node_order=None):
    """Write a model back out; inverse of parse_model_file up to closure."""
    lines = ["HOMRF", str(model.node_count)]
    lines.append(" ".join(str(c) for c in model.label_counts))
    lines.append(str(len(model.factors)))
    for f in model.factors:
        lines.append(f"{len(f.scope)} " + " ".join(str(v) for v in f.scope))
        lines.append(" ".join(f"{x:.17g}" for x in f.table.ravel()))
    edges = sorted(jstructure.edges)
    lines.append("J")
    lines.append(str(len(edges)))
    for a, b in edges:
        lines.append(f"{a} {b}")
    if node_order is not None:
        lines.append("ORDER")
        lines.append(" ".join(str(v) for v in node_order))
    return "\n".join(lines) + "\n"
