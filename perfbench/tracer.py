"""Span tracing of calls between the package's layer modules.

The tracer wraps selected package functions from outside: while it is
active, every module attribute that refers to a selected function is
replaced by a wrapper that records a span (name, start, end, parent span,
op id), and the originals are restored afterwards.  Nothing inside the
package changes.  Spans stay in memory until the run writes them out.
"""

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<layer>.<function>", the layer being the defining module
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: str

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans for calls into the functions it is given."""

    def __init__(self, functions, package="brownian_transport", keep=()):
        self.functions = tuple(functions)
        self.package = package
        self.keep = frozenset(keep)  # span names whose return value is kept
        self.spans = []
        self.results = {}  # span index -> return value, for names in keep
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        keep = name in self.keep

        def traced(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
            if keep:
                self.results[idx] = out
            return out

        return traced

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    @contextmanager
    def active(self, op):
        """Trace calls made inside the block, tagged with ``op``."""
        wrappers = {id(fn): self._wrap(fn) for fn in self.functions}
        prefix = self.package + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == self.package or key.startswith(prefix))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        self.op = op
        try:
            yield self
        finally:
            self.op = None
            while self._restore:
                module, attr, value = self._restore.pop()
                setattr(module, attr, value)

    def children(self):
        out = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                out[s.parent].append(i)
        return out

    def descendants(self, root):
        kids = self.children()
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids[i])
        return out

    def self_times(self):
        """Span duration minus the time covered by its child spans."""
        kids = self.children()
        return [s.duration - sum(self.spans[k].duration for k in kids[i])
                for i, s in enumerate(self.spans)]

    def write(self, path, origin):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start - origin, "end": s.end - origin,
                }) + "\n")


def _noop():
    pass


def span_cost(calls=20_000):
    """Seconds a span adds to one call, from timing a wrapped no-op."""
    wrapped = Tracer(())._wrap(_noop)
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    return (traced - (time.perf_counter() - start)) / calls
