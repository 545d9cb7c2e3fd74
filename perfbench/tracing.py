"""In-memory spans around the benchmark's calls into each homrf layer.

A span records its name, start, end, parent span and instance id.  The layer
is the part of the name before the first dot.  Spans flagged `extra` wrap
work that only the traced run does (re-evaluating the bound, re-closing the
edges); they are reported on their own and left out of layer self times and
of the traced pipeline total.
"""

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    instance: str
    parent: int  # -1 for a root span
    start: float
    end: float = 0.0
    extra: bool = False

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise every `span` is a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.instance = ""

    def span(self, name, extra=False):
        if not self.enabled:
            return nullcontext()
        return self._record(name, extra)

    @contextmanager
    def _record(self, name, extra):
        parent = self._stack[-1].id if self._stack else -1
        s = Span(len(self.spans), name, self.instance, parent, 0.0, extra=extra)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def total(self, name):
        return sum((s.duration for s in self.spans if s.name == name), 0.0)

    def self_times(self):
        """Per layer: span durations minus the time their children cover,
        summed over the non-extra spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        out = {}
        for s in self.spans:
            if not s.extra:
                out[s.layer] = out.get(s.layer, 0.0) + s.duration - covered[s.id]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
