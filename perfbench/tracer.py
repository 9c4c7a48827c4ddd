"""Span tracing around the calls into each layer, from outside ``src/``.

The tracer wraps the names the pipeline's callers actually look up
(module globals for the analysis passes, class attributes for the
collection and simulator methods) for the duration of one traced
iteration, and restores the originals afterwards, so untraced
iterations run the unmodified program.

Spans are kept in memory as ``(id, name, start, end, parent, run_id)``
tuples and written out once, at the end of a run.  A span's self time
is its duration minus the time its child spans cover.  Calls made once
per sample (``Driver.record``) would swamp a span list, so they are
accumulated as a count plus total time, charged to the enclosing span.
"""

import contextlib
import functools
import inspect
import json
import time


class Tracer:
    """In-memory span recorder plus the monkey-patching that feeds it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self._stack = []
        self._next_id = 1
        self.run_id = 0
        #: (run_id, name) -> [calls, total seconds] for accumulated calls.
        self.totals = {}
        #: span id -> seconds of accumulated calls made inside it.
        self._accumulated_in = {}

    @contextlib.contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               self.run_id))

    def _accumulate(self, name, seconds):
        entry = self.totals.setdefault((self.run_id, name), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if self._stack:
            parent = self._stack[-1]
            self._accumulated_in[parent] = (
                self._accumulated_in.get(parent, 0.0) + seconds)

    def _wrapper(self, original, name, accumulate):
        if accumulate:
            clock = self.clock

            @functools.wraps(original)
            def accumulated(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._accumulate(name, clock() - start)
            return accumulated
        if inspect.isgeneratorfunction(original):
            # Materialize inside the span so it covers the whole scan,
            # not just the creation of the generator.
            @functools.wraps(original)
            def drained(*args, **kwargs):
                with self.span(name):
                    items = list(original(*args, **kwargs))
                return iter(items)
            return drained

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)
        return spanned

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, span name, accumulate)``
        target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, accumulate in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrapper(original, name, accumulate))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived views ---------------------------------------------------

    def self_times(self, run_id):
        """{span name: (calls, summed self seconds)} for one run."""
        children = {}
        for span_id, _, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
        result = {}
        for span_id, name, start, end, _, rid in self.spans:
            if rid != run_id:
                continue
            own = (end - start - children.get(span_id, 0.0)
                   - self._accumulated_in.get(span_id, 0.0))
            calls, total = result.get(name, (0, 0.0))
            result[name] = (calls + 1, total + own)
        for (rid, name), (calls, total) in self.totals.items():
            if rid == run_id:
                result[name] = (calls, total)
        return result

    def write(self, path):
        """Write every span (and accumulated totals) as JSON lines."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "run": rid}) + "\n")
            for (rid, name), (calls, total) in sorted(self.totals.items()):
                handle.write(json.dumps({
                    "name": name, "run": rid, "calls": calls,
                    "total_s": total}) + "\n")
