"""Multi-tenant load traces: generation, recording, JSON persistence.

A trace is a list of :class:`TraceEntry` arrivals — (tenant, script,
data-scenario recipe, arrival offset).  Entries carry input *recipes*
(script, size, cols) rather than file paths, so replaying a trace
re-prepares identical deterministic input data (datagen is seeded) and a
saved JSON trace is fully self-contained: the same trace replayed on the
same cluster reproduces admissions and outputs byte-for-byte (see
:class:`repro.elastic.simulator.TraceSimulator`).

:class:`TraceRecorder` hooks an :class:`~repro.serving.ElasticMLServer`
(``recorder=`` constructor knob) and captures every accepted submission
with its wall-clock arrival offset — turning any live serving session
into a replayable regression scenario.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.chaos.faults import ALL_FAULT_KINDS


@dataclass(frozen=True)
class TraceEntry:
    """One arrival in a multi-tenant load trace."""

    tenant: str
    script: str
    #: seconds since trace start
    arrival_s: float = 0.0
    #: data-scenario recipe (repro.workloads.scenario)
    size: str = "XS"
    cols: int = 100
    #: interpreter kernel-sampling seed for the run
    seed: int = 0
    #: runtime resource adaptation on/off for the run
    adapt: bool = False
    #: chaos fault-plan seed (None = no fault injection)
    chaos_seed: int | None = None
    #: uniform per-kind fault rate of the plan (``FaultPlan.from_rate``)
    fault_rate: float = 0.1


@dataclass
class ElasticTrace:
    """An ordered multi-tenant trace, JSON-serializable."""

    entries: list = field(default_factory=list)
    name: str = "trace"

    def __post_init__(self):
        self.entries = sorted(
            self.entries, key=lambda e: (e.arrival_s, e.tenant, e.script)
        )

    def __len__(self):
        return len(self.entries)

    def tenants(self):
        return sorted({entry.tenant for entry in self.entries})

    def workloads(self):
        """Distinct (script, size, cols) input recipes, first-seen order."""
        seen = []
        for entry in self.entries:
            key = (entry.script, entry.size, entry.cols)
            if key not in seen:
                seen.append(key)
        return seen

    # -- persistence ---------------------------------------------------------

    def to_payload(self):
        return {
            "name": self.name,
            "entries": [asdict(entry) for entry in self.entries],
        }

    @classmethod
    def from_payload(cls, payload):
        return cls(
            name=payload.get("name", "trace"),
            entries=[TraceEntry(**entry) for entry in payload["entries"]],
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_payload(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_payload(json.load(fh))


def bursty_trace(seed=0, tenants=24, bursts=3, burst_gap_s=480.0,
                 intra_gap_s=3.0, tenant_pool=8,
                 mix=(("LinregDS", "XS", 100), ("LinregCG", "XS", 100))):
    """A seeded bursty multi-tenant trace: ``bursts`` waves of arrivals
    ``burst_gap_s`` apart, each wave packing its share of ``tenants``
    submissions a jittered ``intra_gap_s`` apart.  Deterministic given
    the seed — the scenario the elasticity benchmark drives."""
    if tenants < 1 or bursts < 1:
        raise ValueError(
            f"bursty_trace needs tenants >= 1 and bursts >= 1, got "
            f"tenants={tenants}, bursts={bursts}"
        )
    rng = random.Random(seed)
    per_burst = int(math.ceil(tenants / bursts))
    entries = []
    index = 0
    for burst in range(bursts):
        start = burst * burst_gap_s
        for slot in range(per_burst):
            if index >= tenants:
                break
            script, size, cols = mix[index % len(mix)]
            jitter = rng.uniform(0.0, intra_gap_s)
            entries.append(TraceEntry(
                tenant=f"tenant-{index % tenant_pool:02d}",
                script=script,
                arrival_s=round(start + slot * intra_gap_s + jitter, 3),
                size=size,
                cols=cols,
            ))
            index += 1
    return ElasticTrace(name=f"bursty-{seed}", entries=entries)


def _uniform_rate(plan):
    """The one rate ``FaultPlan.from_rate(plan.seed, rate)`` rebuilds
    ``plan`` from; ValueError for a plan it cannot rebuild (scripted
    faults, or per-kind rates that differ)."""
    rates = {plan.rates.get(kind, 0.0) for kind in ALL_FAULT_KINDS}
    if plan.scripted_faults or len(rates) != 1:
        raise ValueError(
            f"cannot record {plan!r}: a trace entry replays only a "
            "uniform-rate FaultPlan.from_rate plan"
        )
    return rates.pop()


class TraceRecorder:
    """Records accepted server submissions as a replayable trace.

    ``workloads`` maps script name -> (size, cols) — the input recipe
    each script's arguments were prepared with, which is what makes the
    recorded trace self-contained.  Thread-safe: the server calls
    :meth:`record` from :meth:`~repro.serving.ElasticMLServer.submit`.
    """

    def __init__(self, workloads, clock=None):
        self.workloads = dict(workloads)
        self._clock = clock if clock is not None else time.monotonic
        self._start = None
        self._entries = []
        self._lock = threading.Lock()

    def record(self, submission):
        if submission.script not in self.workloads:
            raise KeyError(
                f"no input recipe registered for script "
                f"{submission.script!r}; pass it in TraceRecorder(workloads=...)"
            )
        size, cols = self.workloads[submission.script]
        chaos = getattr(submission, "chaos", None)
        fault_rate = (
            _uniform_rate(chaos) if chaos is not None
            else TraceEntry.fault_rate
        )
        now = self._clock()
        with self._lock:
            if self._start is None:
                self._start = now
            self._entries.append(TraceEntry(
                tenant=submission.tenant,
                script=submission.script,
                arrival_s=round(now - self._start, 6),
                size=size,
                cols=cols,
                seed=submission.seed,
                adapt=submission.adapt,
                chaos_seed=getattr(chaos, "seed", None),
                fault_rate=fault_rate,
            ))

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def trace(self, name="recorded"):
        """Snapshot the recording as an :class:`ElasticTrace`."""
        with self._lock:
            return ElasticTrace(name=name, entries=list(self._entries))
