"""Spans around calls into mvlogic's modules, recorded from outside the
package by replacing module and class attributes with timing wrappers.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, ``op`` the id of the benchmark operation that
caused it.  Spans stay in memory; :meth:`Tracer.totals` sums them.
"""

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.absent = []
        self.bookkeeping_s = 0.0

    def wrap(self, owner, attr, name, after=None):
        """Time every call of ``owner.attr`` as a span called ``name``; then
        run ``after(tracer, args, result, outermost)`` outside the span.  A
        missing attribute is recorded as absent, not an error."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outermost = not any(spans[i][0] == name for i in stack)
            spans.append((name,))  # completed when the call returns
            stack.append(idx)
            start = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                b0 = perf_counter()
                after(self, args, out, outermost)
                self.bookkeeping_s += perf_counter() - b0
            return out

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)

    def per_span_overhead(self, calls=20000):
        """Traced minus untraced cost of one call, from a no-op function
        timed both ways; the calibration spans are discarded."""

        class Probe:
            @staticmethod
            def noop():
                return None

        plain = Probe.noop
        t0 = perf_counter()
        for _ in range(calls):
            plain()
        untraced = perf_counter() - t0
        keep = len(self.spans)
        self.wrap(Probe, "noop", "calibration")
        traced = Probe.noop
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        with_spans = perf_counter() - t0
        del self.spans[keep:]
        return max(0.0, (with_spans - untraced) / calls)

    def totals(self):
        """Per span name: inclusive time of its outermost spans (a span
        nested in one of the same name is not counted twice), self time
        (duration minus the time covered by direct children) and count."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        count = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_time[name] += dur - child_time[i]
            count[name] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += dur
        return inclusive, self_time, count
