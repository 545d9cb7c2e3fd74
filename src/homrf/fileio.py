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

The parser walks the text with a cursor that holds one line's tokens at a
time, so the line an error names is the line the cursor is on.  Counts, ids
and scopes are read token by token; each table is converted with one numpy
call per line it spans, which accepts and rejects exactly the strings
`float()` does.
"""

import math

import numpy as np

from .errors import ParseError
from .model import build_model, close_j


class _Tokens:
    """Cursor over the lines of a text, holding one line's tokens at a time.

    `line` is the number of the line the held tokens came from: the line of
    the last token read, or 0 before the first.
    """

    def __init__(self, text):
        self._lines = enumerate(text.splitlines(), start=1)
        self.line = 0
        self._toks = []
        self._i = 0

    def at_end(self):
        """True when no token is left; otherwise moves onto the next line
        holding one if the current line is used up."""
        while self._i >= len(self._toks):
            for ln, line in self._lines:
                toks = line.split()
                if toks:
                    self.line, self._toks, self._i = ln, toks, 0
                    break
            else:
                return True
        return False

    def next(self, what):
        if self.at_end():
            raise ParseError(f"line {self.line}: unexpected end of file, expected {what}")
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def next_int(self, what):
        tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"line {self.line}: expected {what}, got {tok!r}") from None

    def floats(self, count, what, truncated):
        """The next `count` tokens as a float array, converted one line's
        slice at a time; the first token `float()` rejects is reported as
        not being `what`, running out of tokens as `truncated`."""
        parts = []
        while count:
            if self.at_end():
                raise ParseError(f"line {self.line}: {truncated}")
            toks = self._toks[self._i : self._i + count]
            self._i += len(toks)
            count -= len(toks)
            try:
                parts.append(np.array(toks, dtype=float))
            except ValueError:
                for tok in toks:
                    try:
                        float(tok)
                    except ValueError:
                        raise ParseError(
                            f"line {self.line}: expected {what}, got {tok!r}"
                        ) from None
                raise
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def parse_model_file(text):
    """Parse the text format; returns (model, jstructure, node order or None)."""
    toks = _Tokens(text)
    magic = toks.next("header")
    if magic != "HOMRF":
        raise ParseError(f"line {toks.line}: expected HOMRF header, got {magic!r}")
    n = toks.next_int("node count")
    if n <= 0:
        raise ParseError(f"line {toks.line}: node count must be positive")
    label_counts = [toks.next_int(f"label count of node {v}") for v in range(n)]
    for v, c in enumerate(label_counts):
        if c <= 0:
            raise ParseError(f"line {toks.line}: node {v} has label count {c}")

    k = toks.next_int("factor count")
    if k < 0:
        raise ParseError(f"line {toks.line}: factor count must be non-negative")
    factors = []
    for f in range(k):
        size = toks.next_int(f"scope size of factor {f}")
        if size <= 0:
            raise ParseError(f"line {toks.line}: factor {f} has scope size {size}")
        scope = tuple(toks.next_int(f"node id in factor {f}") for _ in range(size))
        for v in scope:
            if v < 0 or v >= n:
                raise ParseError(f"line {toks.line}: factor {f} references node {v}")
        cells = math.prod(label_counts[v] for v in scope)
        values = toks.floats(
            cells, f"table value of factor {f}", f"table of factor {f} is truncated"
        )
        factors.append((scope, values))

    model = build_model(label_counts, factors)

    edges = set()
    node_order = None
    while not toks.at_end():
        section = toks.next("section name")
        if section == "J":
            m = toks.next_int("edge count")
            if m < 0:
                raise ParseError(f"line {toks.line}: edge count must be non-negative")
            for e in range(m):
                a = toks.next_int(f"source of edge {e}")
                b = toks.next_int(f"target of edge {e}")
                if not (0 <= a < k and 0 <= b < k):
                    raise ParseError(f"line {toks.line}: edge {e} references factor {a} or {b}")
                edges.add((a, b))
        elif section == "ORDER":
            node_order = tuple(toks.next_int("node id in order") for _ in range(n))
            if sorted(node_order) != list(range(n)):
                raise ParseError(f"line {toks.line}: ORDER is not a permutation")
        else:
            raise ParseError(f"line {toks.line}: unknown section {section!r}")

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
