"""Tracing and metrics primitives.

A :class:`Tracer` collects three kinds of telemetry during a session run:

* a **span tree** — nested wall-clock timers opened with
  :meth:`Tracer.span`, each carrying free-form attributes (e.g. the
  simulated seconds a block accounted for);
* **counters and gauges** — named scalars; counters accumulate
  (``incr``), gauges overwrite (``gauge``);
* **structured events** — a bounded ring buffer of dicts (``event``),
  used for per-decision records such as optimizer grid points or
  migration decisions, where unbounded growth would be a liability.

The module keeps one *active* tracer in a module-global slot.  The
default is :data:`NULL_TRACER`, a null object whose methods are no-ops,
so instrumented call sites cost one global read plus an empty method
call when tracing is off.  :func:`use_tracer` installs a real tracer for
the duration of a ``with`` block (this is how
``ElasticMLSession(trace=True)`` scopes collection to one run).

Everything here is dependency-free (stdlib only) and importable from
any layer of the stack without cycles.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager

#: default capacity of the structured-event ring buffer
DEFAULT_EVENT_CAPACITY = 4096


class Span:
    """One node of the span tree: a named, attributed wall-clock timer."""

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name, attrs=None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start = None
        self.end = None
        self.children = []

    @property
    def duration(self):
        """Wall-clock seconds, or None while the span is still open."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def set(self, key, value):
        """Attach/overwrite one attribute."""
        self.attrs[key] = value

    def to_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data):
        span = cls(data["name"], data.get("attrs"))
        span.start = data.get("start")
        span.end = data.get("end")
        span.children = [
            cls.from_dict(child) for child in data.get("children", [])
        ]
        return span

    def __repr__(self):
        dur = self.duration
        timing = f"{dur:.4f}s" if dur is not None else "open"
        return f"Span({self.name!r}, {timing}, {len(self.children)} children)"


class _NullSpan:
    """Shared do-nothing span; its own (reentrant) context manager."""

    __slots__ = ()

    def set(self, key, value):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def _is_nan(value):
    return isinstance(value, float) and value != value


def merge_gauge_values(current, incoming):
    """Deterministic, order-independent merge of two gauge values.

    Comparable values keep the larger (for the usual numeric gauges this
    is max, a commutative/associative fold); incomparable types fall
    back to a total order over ``(type name, repr)``.  NaN always loses,
    so it cannot poison the comparison asymmetrically.
    """
    if _is_nan(incoming):
        return current
    if _is_nan(current):
        return incoming
    try:
        return current if current >= incoming else incoming
    except TypeError:
        pass

    def order(value):
        return (type(value).__name__, repr(value))

    return current if order(current) >= order(incoming) else incoming


class Tracer:
    """Collects spans, counters, gauges, and events for one run."""

    #: instrumentation sites may consult this to skip building labels
    enabled = True

    def __init__(self, event_capacity=DEFAULT_EVENT_CAPACITY,
                 clock=time.perf_counter):
        self.roots = []
        self.counters = {}
        self.gauges = {}
        self.events = deque(maxlen=event_capacity)
        self._stack = []
        self._clock = clock

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name, **attrs):
        """Open a nested span for the duration of the ``with`` block."""
        span = Span(name, attrs)
        span.start = self._clock()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    @property
    def current_span(self):
        return self._stack[-1] if self._stack else None

    # -- metrics -------------------------------------------------------------

    def incr(self, name, value=1):
        """Add ``value`` to the named counter (creates it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name, value):
        """Set the named gauge to ``value`` (last write wins)."""
        self.gauges[name] = value

    def event(self, name, **fields):
        """Append a structured event to the ring buffer."""
        record = {"event": name}
        record.update(fields)
        self.events.append(record)

    def counter(self, name, default=0):
        """Read one counter (0 when it never fired)."""
        return self.counters.get(name, default)

    def absorb(self, other, spans=True):
        """Fold another tracer's telemetry into this one.

        Counters accumulate, gauges merge deterministically (max for
        numeric values — see :func:`merge_gauge_values` — so the result
        is independent of absorb order), events append, and (with
        ``spans``) the other tracer's root spans become roots here.  The
        serving layer runs every submission under its own tracer —
        concurrent tenants would otherwise interleave one span stack —
        and absorbs each finished submission into the server-level
        tracer; tenant completion order varies across runs, which is why
        gauges must not merge last-write-wins."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            if name in self.gauges:
                self.gauges[name] = merge_gauge_values(
                    self.gauges[name], value
                )
            else:
                self.gauges[name] = value
        self.events.extend(other.events)
        if spans:
            self.roots.extend(other.roots)
        return self

    # -- export --------------------------------------------------------------

    def to_dict(self):
        return {
            "spans": [span.to_dict() for span in self.roots],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "events": list(self.events),
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, default=str)

    @classmethod
    def from_dict(cls, data):
        tracer = cls()
        tracer.roots = [Span.from_dict(s) for s in data.get("spans", [])]
        tracer.counters = dict(data.get("counters", {}))
        tracer.gauges = dict(data.get("gauges", {}))
        tracer.events.extend(data.get("events", []))
        return tracer

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def render(self):
        """Human-readable span tree + counters table."""
        from repro.obs.render import render_trace

        return render_trace(self)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) is the default active
    tracer, so instrumentation adds near-zero overhead when tracing is
    off.
    """

    enabled = False

    def __init__(self):
        super().__init__(event_capacity=0)

    def span(self, name, **attrs):
        return _NULL_SPAN

    def incr(self, name, value=1):
        pass

    def gauge(self, name, value):
        pass

    def event(self, name, **fields):
        pass


NULL_TRACER = NullTracer()

#: process-wide default, overridable per thread (concurrent serving
#: submissions each activate their own tracer without clobbering each
#: other's span stacks or counters)
_default = NULL_TRACER
_active = threading.local()


def get_tracer():
    """The active tracer: this thread's override if one is installed
    (:func:`use_tracer`), else the process-wide default
    (:data:`NULL_TRACER` unless :func:`set_tracer` changed it)."""
    tracer = getattr(_active, "tracer", None)
    return tracer if tracer is not None else _default


def set_tracer(tracer):
    """Install ``tracer`` as the process-wide default; ``None`` restores
    the null tracer.  Threads with a :func:`use_tracer` override are
    unaffected."""
    global _default
    _default = tracer if tracer is not None else NULL_TRACER
    return _default


@contextmanager
def use_tracer(tracer):
    """Activate ``tracer`` on *this thread* for the ``with`` block.

    Thread-local by design: each serving worker activates its
    submission's tracer without disturbing other threads.  Helper
    threads spawned inside the block must re-enter ``use_tracer``
    themselves — thread locals do not inherit."""
    previous = getattr(_active, "tracer", None)
    _active.tracer = tracer if tracer is not None else NULL_TRACER
    try:
        yield get_tracer()
    finally:
        _active.tracer = previous
