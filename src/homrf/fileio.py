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
time, so the line an error names is the line the cursor is on.  Counts, ids
and scopes are read token by token, except the J section's 2m factor ids:
they are split from the lines they fill and converted with one `map(int,
...)`.  A section that fails that read is read again token by token for its
message, and so is a section whose closure finds an edge that is not nested,
to name the first such edge and its line.  Each table is converted with one
numpy call per line it spans, which accepts and rejects exactly the strings
`float()` does.  A table that starts a line and fills it exactly is converted
once per distinct line text: a later line of the same text is not split
again, and its factor gets the first one's read-only array.  Grid models,
whose pairwise or higher-order factors all carry one potential, repeat one
line thousands of times.
"""

import math

import numpy as np

from .errors import NotNested, ParseError
from .model import _gc_paused, build_model, close_j


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
        self._filled = {}  # text of a line one table filled -> that table

    def mark(self):
        """The cursor's place, for `reset`."""
        return self.line, self._toks, self._i

    def reset(self, mark):
        self.line, self._toks, self._i = mark

    def _next_line(self):
        # moves onto the next line holding a token, with none of its tokens
        # taken out yet, and returns its text; None at the end of the text.
        # Line `line` is at index `line` - 1, so index `line` is the next one.
        texts, ln = self._texts, self.line
        while ln < len(texts):
            text = texts[ln]
            ln += 1
            if text and not text.isspace():
                self.line, self._toks, self._i = ln, (), 0
                return text
        return None

    def at_end(self):
        """True when no token is left; otherwise moves onto the next line
        holding one if the current line is used up."""
        if self._i < len(self._toks):
            return False
        text = self._next_line()
        if text is None:
            return True
        self._toks = text.split()
        return False

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
        truncated table.  A table that starts a line and fills it exactly is
        the array of the earlier table that filled a line of the same text,
        if any, read-only."""
        text = self._next_line() if self._i >= len(self._toks) else None
        if text is not None:
            shared = self._filled.get(text)
            if shared is not None and shared.size == count:
                return shared
            self._toks = text.split()
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
        if len(parts) > 1:
            return np.concatenate(parts)
        if text is not None and self._i == len(self._toks):
            parts[0].setflags(write=False)
            self._filled[text] = parts[0]
        return parts[0]

    def ids(self, count, below):
        """The next `count` tokens as ints in [0, below), in one conversion of
        the lines they fill, the cursor left on the line of the last one.
        None, with the cursor unmoved, if a token is missing, not an integer
        or out of range: a read one token at a time names it and its line."""
        words = list(self._toks[self._i :])
        texts = self._texts
        pos = start = self.line  # the index of the line after the held one
        while len(words) < count and pos < len(texts):
            # as many lines as the serializer fills with the ids still wanted
            end = min(pos + (count - len(words) + 1) // 2, len(texts))
            words += " ".join(texts[pos:end]).split()
            pos = end
        if len(words) < count:
            return None
        try:
            ids = list(map(int, words[:count]))
        except ValueError:
            return None
        if ids and (min(ids) < 0 or max(ids) >= below):
            return None
        if pos == start:
            self._i += count
            return ids
        surplus = len(words) - count
        while True:  # back over the lines read past the last id
            toks = texts[pos - 1].split()
            if len(toks) > surplus:
                break
            surplus -= len(toks)
            pos -= 1
        self.line, self._toks, self._i = pos, toks, len(toks) - surplus
        return ids


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
    label_counts = [toks.next_int("label count of node {}", v) for v in range(n)]
    for v, c in enumerate(label_counts):
        if not 0 < c <= np.iinfo(np.intp).max:  # a numpy dimension
            raise ParseError(f"line {toks.line}: node {v} has label count {c}")

    k = toks.next_int("factor count")
    if k < 0:
        raise ParseError(f"line {toks.line}: factor count must be non-negative")
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


def _edges(toks, m, k):
    # the J section's m edges as a set, from one block of 2m ids; a block
    # that does not read so is read again one token at a time, which raises
    # naming the token and its line
    ids = toks.ids(2 * m, k)
    if ids is None:
        _read_edges(toks, m, k)
    pairs = iter(ids)
    return set(zip(pairs, pairs))


def _read_edges(toks, m, k, scopes=None):
    # the J section's m edges one token at a time, for the message and line
    # of its first fault: a missing or non-integer token, an unknown factor,
    # or, given the factors' scopes, an edge that is not nested
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
