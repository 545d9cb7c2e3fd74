"""Line-oriented text format for models with explicit marginalization edges.

Layout:

    HOMRF
    <node count>
    <label counts, one line>
    <factor count>
    for each factor:
        <scope size> <node ids...>
        <table values, row-major over the sorted scope>
    J                                              (at most once)
    <edge count>
    <source factor index> <target factor index>   (one line per edge)
    ORDER                                          (optional, at most once)
    <node ids in processing order>

Values are written with 17 significant digits so a serialize/parse round trip
reproduces every double bit-exactly.

The parser walks the text with a cursor that holds one line's tokens at a
time, so the line an error names is the line the cursor is on.  The header,
the section names and the node, factor and edge counts are read token by
token.  The three long sections are read as blocks when they sit in exactly
the lines the serializer writes: the label counts on one line, a scope line
and then a table line per factor, and one edge per line.  The label counts,
the J section's 2m factor ids and the scope lines' ids each take one
`map(int, ...)`, and each distinct table line one numpy call, which accepts
and rejects exactly the strings `float()` does.  A table line repeated later
in the section is not split again: its factor gets the first one's read-only
array.  Grid models, whose pairwise or higher-order factors all carry one
potential, repeat one line thousands of times.  A section laid out otherwise,
or one with a fault, is read by the cursor token by token, which gives the
message and line of its first fault, and so is a J section whose closure
finds an edge that is not nested, to name the first such edge and its line.
The cursor converts a table with one numpy call per line it spans and shares
no table between factors.
"""

import math
from itertools import chain

import numpy as np

from .errors import NotNested, ParseError
from .model import _gc_paused, build_model, close_j

_MAX_DIM = np.iinfo(np.intp).max  # the largest numpy dimension


class _Tokens:
    """Cursor over the lines of a text, holding one line's tokens at a time.

    `line` is the number of the line the held tokens came from: the line of
    the last token read, or 0 before the first.
    """

    def __init__(self, text):
        self._texts = text.splitlines()
        self.line = 0
        self._toks = ()
        self._i = 0

    def mark(self):
        """The cursor's place, for `reset`."""
        return self.line, self._toks, self._i

    def reset(self, mark):
        self.line, self._toks, self._i = mark

    def at_end(self):
        """True when no token is left; otherwise moves onto the next line
        holding one if the current line is used up."""
        if self._i < len(self._toks):
            return False
        # line `line` is at index `line` - 1, so index `line` is the next one
        texts = self._texts
        for ln in range(self.line, len(texts)):
            toks = texts[ln].split()
            if toks:
                self.line, self._toks, self._i = ln + 1, toks, 0
                return False
        return True

    def next(self, what, arg=None):
        """The next token.  `what` names it in an error message, formatted
        with `arg` only when a message is made."""
        if self._i >= len(self._toks) and self.at_end():
            raise ParseError(
                f"line {self.line}: unexpected end of file, expected {what.format(arg)}"
            )
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def next_int(self, what, arg=None):
        tok = self.next(what, arg)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(
                f"line {self.line}: expected {what.format(arg)}, got {tok!r}"
            ) from None

    def table(self, count, f):
        """The next `count` tokens as factor f's table, a float array
        converted one line's slice at a time; the first token `float()`
        rejects is reported as not a table value, running out of tokens as a
        truncated table."""
        parts = []
        while count:
            if self.at_end():
                raise ParseError(f"line {self.line}: table of factor {f} is truncated")
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
                            f"line {self.line}: expected table value of factor {f}, got {tok!r}"
                        ) from None
                raise
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def ids(self, count, below, per_line):
        """The next `count` tokens as ints in [0, below), read as one block
        from the lines the serializer writes them on: the count over
        `per_line`, rounded up, after a held line whose tokens are all used.
        The cursor is left on the block's last line.  None, with the cursor
        unmoved, unless those lines hold exactly `count` integers in range: a
        read one token at a time then reads them, naming any fault and its
        line."""
        start = self.line  # the index of the line after the held one
        end = start - (-count // per_line)
        if self._i < len(self._toks) or end > len(self._texts):
            return None
        try:
            ids = list(map(int, " ".join(self._texts[start:end]).split()))
        except ValueError:
            return None
        if len(ids) != count or (ids and (min(ids) < 0 or max(ids) >= below)):
            return None
        self.line, self._toks, self._i = end, (), 0
        return ids

    def factors(self, k, label_counts):
        """The next k factors as (scope, table) pairs, read as blocks from the
        layout the serializer writes: one scope line and then one table line
        per factor.  The scopes' ids take one conversion, and each distinct
        table line one numpy call; a table line repeated later gives its
        factor the first one's read-only array, the one table sharing in the
        parser.  None, with the cursor unmoved, if the lines are laid out
        otherwise or hold a fault: a read one token at a time then reads
        them, naming the fault and its line."""
        start = self.line  # the index of the line after the held one
        end = start + 2 * k
        if self._i < len(self._toks) or end > len(self._texts):
            return None
        heads = [text.split() for text in self._texts[start:end:2]]
        filled = {}
        factors = []
        try:
            ids = list(map(int, chain.from_iterable(heads)))  # sizes and nodes
            if ids and min(ids) < 0:
                return None
            i = 0
            for head, text in zip(heads, self._texts[start + 1 : end : 2]):
                size = len(head) - 1
                if size <= 0 or ids[i] != size:
                    return None
                scope = tuple(ids[i + 1 : i + 1 + size])
                i += 1 + size
                cells = math.prod([label_counts[v] for v in scope])  # IndexError past the last node
                table = filled.get(text)
                if table is None:
                    table = filled[text] = np.array(text.split(), dtype=float)
                    table.setflags(write=False)
                if table.size != cells:
                    return None
                factors.append((scope, table))
        except (ValueError, IndexError):
            return None
        self.line, self._toks, self._i = end, (), 0
        return factors


@_gc_paused
def parse_model_file(text):
    """Parse the text format; returns (model, jstructure, node order or None)."""
    toks = _Tokens(text)
    magic = toks.next("header")
    if magic != "HOMRF":
        raise ParseError(f"line {toks.line}: expected HOMRF header, got {magic!r}")
    n = toks.next_int("node count")
    if n <= 0:
        raise ParseError(f"line {toks.line}: node count must be positive")
    label_counts = toks.ids(n, _MAX_DIM + 1, n)
    if label_counts is None:
        label_counts = [toks.next_int("label count of node {}", v) for v in range(n)]
    for v, c in enumerate(label_counts):
        if not 0 < c <= _MAX_DIM:
            raise ParseError(f"line {toks.line}: node {v} has label count {c}")

    k = toks.next_int("factor count")
    if k < 0:
        raise ParseError(f"line {toks.line}: factor count must be non-negative")
    factors = toks.factors(k, label_counts)
    if factors is None:
        factors = _read_factors(toks, k, label_counts)

    model = build_model(label_counts, factors)

    edges = None
    node_order = None
    while not toks.at_end():
        section = toks.next("section name")
        if section == "J":
            if edges is not None:
                raise ParseError(f"line {toks.line}: second J section")
            m = toks.next_int("edge count")
            if m < 0:
                raise ParseError(f"line {toks.line}: edge count must be non-negative")
            j_mark = toks.mark()
            edges = _edges(toks, m, k)
        elif section == "ORDER":
            if node_order is not None:
                raise ParseError(f"line {toks.line}: second ORDER section")
            node_order = tuple(toks.next_int("node id in order") for _ in range(n))
            if sorted(node_order) != list(range(n)):
                raise ParseError(f"line {toks.line}: ORDER is not a permutation")
        else:
            raise ParseError(f"line {toks.line}: unknown section {section!r}")

    del toks  # frees the text's lines; only an edge that is not nested reads them again
    try:
        jstructure = close_j(model.scopes, edges or ())
    except NotNested:
        toks = _Tokens(text)
        toks.reset(j_mark)
        _read_edges(toks, m, k, model.scopes)
        raise
    return model, jstructure, node_order


def _read_factors(toks, k, label_counts):
    # the k factors one token at a time, for a section `_Tokens.factors`
    # does not read: one laid out otherwise, or one with a fault, whose
    # message and line this read gives
    n = len(label_counts)
    factors = []
    for f in range(k):
        size = toks.next_int("scope size of factor {}", f)
        if size <= 0:
            raise ParseError(f"line {toks.line}: factor {f} has scope size {size}")
        scope = tuple([toks.next_int("node id in factor {}", f) for _ in range(size)])
        for v in scope:
            if v < 0 or v >= n:
                raise ParseError(f"line {toks.line}: factor {f} references node {v}")
        cells = math.prod([label_counts[v] for v in scope])
        factors.append((scope, toks.table(cells, f)))
    return factors


def _edges(toks, m, k):
    # the J section's m edges as a set, from one block of 2m ids, or one
    # token at a time when the block does not read so
    ids = toks.ids(2 * m, k, 2)
    if ids is None:
        return _read_edges(toks, m, k)
    pairs = iter(ids)
    return set(zip(pairs, pairs))


def _read_edges(toks, m, k, scopes=None):
    # the J section's m edges as a set, read one token at a time: for a
    # section laid out otherwise, and for the message and line of its first
    # fault, a missing or non-integer token, an unknown factor or, given the
    # factors' scopes, an edge that is not nested
    edges = set()
    for e in range(m):
        a = toks.next_int("source of edge {}", e)
        b = toks.next_int("target of edge {}", e)
        if not (0 <= a < k and 0 <= b < k):
            raise ParseError(f"line {toks.line}: edge {e} references factor {a} or {b}")
        if scopes is not None and not set(scopes[b]) < set(scopes[a]):
            raise NotNested(
                f"line {toks.line}: edge {e} ({a}, {b}): "
                f"scope {scopes[b]} is not strictly inside {scopes[a]}"
            )
        edges.add((a, b))
    return edges


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
