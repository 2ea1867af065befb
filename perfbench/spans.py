"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces riplab functions at the module attributes their
callers resolve (``riplab.cli.exact_rip``, ``riplab.reduction.cholesky_psd``,
...) with wrappers that record one span per call while an op is open.  A
span is ``[name, start_ns, end_ns, parent, op, cpu_s, error, info]``: parent
is the index of the enclosing span (or None), op the id of the CLI op that
caused it, cpu_s the process-plus-reaped-children CPU seconds spent in it
(only for spans asked to measure it), and info a dict of counts taken from
the call's arguments and result after the span has closed.  Spans stay in
memory until the run writes them out.
"""

import os
import time
from contextlib import contextmanager


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []

    def patch(self, module, attr, name, info=None, cpu=False):
        """Record a span ``name`` around every call of ``module.attr``."""
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._op is None:
                return orig(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else None, self._op,
                   _cpu_s() if cpu else None, None, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if cpu:
                    rec[5] = _cpu_s() - rec[5]
            if info is not None:
                rec[7] = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def unpatch(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    @contextmanager
    def op(self, op_id):
        """Attribute the spans recorded inside the block to op ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None


def summarise(spans):
    """Per span name: calls, busy (summed duration) and self time in ns.

    Self time is a span's duration minus the time covered by its direct
    children; children of one span never overlap, since spans come from a
    single thread.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_ns[rec[3]] += rec[2] - rec[1]
    out = {}
    for i, rec in enumerate(spans):
        s = out.setdefault(rec[0], {"calls": 0, "busy_ns": 0, "self_ns": 0, "errors": 0})
        dur = rec[2] - rec[1]
        s["calls"] += 1
        s["busy_ns"] += dur
        s["self_ns"] += dur - child_ns[i]
        s["errors"] += rec[6] is not None
    return out


def layer_busy_ns(spans):
    """Per layer (the span name's prefix): time inside its outermost spans."""
    layer = [rec[0].split(".", 1)[0] for rec in spans]
    out = {}
    for i, rec in enumerate(spans):
        p = rec[3]
        while p is not None and layer[p] != layer[i]:
            p = spans[p][3]
        if p is None:
            out[layer[i]] = out.get(layer[i], 0) + rec[2] - rec[1]
    return out


def wrapper_cost_ns(samples=20000):
    """Median extra ns one traced call costs over a direct call of a no-op."""
    class Holder:
        @staticmethod
        def noop():
            return None

    plain = Holder.noop
    tracer = Tracer()
    tracer.patch(Holder, "noop", "calibrate.noop")
    direct, traced = [], []
    clock = time.perf_counter_ns
    with tracer.op(-1):
        for _ in range(5):
            t0 = clock()
            for _ in range(samples):
                plain()
            t1 = clock()
            for _ in range(samples):
                Holder.noop()
            t2 = clock()
            direct.append(t1 - t0)
            traced.append(t2 - t1)
            tracer.spans.clear()
    tracer.unpatch()
    direct.sort()
    traced.sort()
    return max(0.0, (traced[2] - direct[2]) / samples)
