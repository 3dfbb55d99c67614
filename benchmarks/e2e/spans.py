"""Harness-side spans: recorded in memory, dumped as JSONL, summarized.

The traced run wraps every call it makes into a layer's public function
in a span.  A span is ``(id, name, start, end, parent, request,
workload)``; spans of one request share its request id.  Nothing is
written until the run ends.  A layer's *self time* is its span's
duration minus its direct children's; the self time of the per-request
root span is what the harness could not attribute to any layer.

Summarize a dump::

    python benchmarks/e2e/spans.py benchmarks/e2e/out/serve_warm-seed20150531.jsonl
"""

from __future__ import annotations

import json
import sys
import time

#: name of the per-request root span every layer span hangs under
REQUEST = "request"


class _OpenSpan:
    """Context manager for one span of a :class:`SpanRecorder`."""

    __slots__ = ("recorder", "record")

    def __init__(self, recorder, record):
        self.recorder = recorder
        self.record = record

    def __enter__(self):
        self.recorder._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.recorder._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """In-memory span sink for the single-threaded by-hand replay."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []

    def span(self, name, request=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": None,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "workload": self.workload,
        }
        self.spans.append(record)
        return _OpenSpan(self, record)

    def dump(self, path):
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        return path


class NullRecorder:
    """Spans off: the same replay code, costing one method call each.
    The traced-vs-null difference is ``bench.span_overhead_pct``."""

    def span(self, name, request=None):
        return _NULL_SPAN


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def durations_by_name(spans):
    """name -> list of span durations (seconds), in recording order."""
    table = {}
    for record in spans:
        table.setdefault(record["name"], []).append(
            record["end"] - record["start"]
        )
    return table


def self_times(spans):
    """name -> summed self time: duration minus direct children."""
    child_time = {}
    for record in spans:
        parent = record["parent"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (
                record["end"] - record["start"]
            )
    totals = {}
    for record in spans:
        own = (record["end"] - record["start"]
               - child_time.get(record["id"], 0.0))
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def request_total(spans):
    """Summed duration of the per-request root spans."""
    return sum(
        record["end"] - record["start"]
        for record in spans if record["name"] == REQUEST
    )


def layer_shares(spans):
    """name -> self time as a percentage of all request time; the
    ``request`` entry is the unattributed remainder."""
    total = request_total(spans)
    if total <= 0:
        return {}
    return {
        name: 100.0 * seconds / total
        for name, seconds in self_times(spans).items()
    }


def unattributed_pct(spans):
    """Share of request wall clock no layer span covers
    (``bench.unattributed_pct``)."""
    return layer_shares(spans).get(REQUEST, 0.0)


def render_summary(spans):
    shares = layer_shares(spans)
    times = self_times(spans)
    counts = {name: len(v) for name, v in durations_by_name(spans).items()}
    lines = [f"{'span':32} {'calls':>7} {'self s':>10} {'share %':>8}"]
    for name in sorted(times, key=times.get, reverse=True):
        lines.append(
            f"{name:32} {counts[name]:7d} {times[name]:10.4f} "
            f"{shares.get(name, 0.0):8.2f}"
        )
    lines.append(f"bench.unattributed_pct = {unattributed_pct(spans):.2f}")
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    print(render_summary(load(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
