"""LRU buffer pool of the control program.

SystemML pins operation inputs/outputs in a buffer pool sized relative to
the heap budget; when the pool overflows, least-recently-used matrices
are evicted to local disk (dirty ones are written first).  The paper
identifies buffer-pool evictions as a runtime cost the optimizer's model
only partially captures — so evictions are charged *here*, in the
runtime, and intentionally not in :mod:`repro.cost.model`.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter

from repro.common import RunningTotal
from repro.cost import io_model
from repro.cost.calibrate import NULL_COLLECTOR
from repro.obs import get_tracer

#: the re-sum is nearly all of an evicting insert: read sizes in C
_MEMORY_SIZE = attrgetter("memory_size")


class BufferPool(RunningTotal):
    """Tracks in-memory matrices of one CP process and charges IO.

    ``charge`` is a callable(seconds, category) advancing the virtual
    clock; categories are "eviction", "restore", and "read".
    ``collector`` is an optional calibration sample sink
    (:class:`repro.cost.calibrate.CalibrationCollector`).

    ``total`` is the running sum of the entries' ``memory_size``, kept
    by every residency change, so :meth:`_make_room` re-sums
    :attr:`used_bytes` only when :meth:`fits` cannot rule out an
    eviction.  An entry's size must not change while it is pooled (a
    :class:`~repro.runtime.matrix.MatrixObject` fixes it at
    construction).
    """

    def __init__(self, capacity_bytes, params, charge, collector=None):
        self.capacity = float(capacity_bytes)
        self.params = params
        self.charge = charge
        self.collector = collector if collector is not None else NULL_COLLECTOR
        self._entries = OrderedDict()  # id(obj) -> obj
        self.anchor(0, 0, 0)
        self.evictions = 0
        self.restores = 0
        self.bytes_evicted = 0.0

    def __len__(self):
        return len(self._entries)

    @property
    def used_bytes(self):
        """The occupancy, re-summed in LRU order: what evictions are
        decided from (``total`` only says when that is unnecessary)."""
        return sum(map(_MEMORY_SIZE, self._entries.values()))

    def set_capacity(self, capacity_bytes):
        """Resize the pool (CP migration); evicts down to the new size."""
        self.capacity = float(capacity_bytes)
        self._make_room(0.0)

    def contains(self, obj):
        return id(obj) in self._entries

    # -- core operations -----------------------------------------------------

    def pin(self, obj):
        """Ensure ``obj`` is in memory, charging restore IO if needed."""
        tracer = get_tracer()
        key = id(obj)
        if key in self._entries:
            self._entries.move_to_end(key)
            tracer.incr("bufferpool.hits")
            return
        if not obj.in_memory:
            tracer.incr("bufferpool.misses")
            size = obj.memory_size
            if obj.local_copy:
                seconds = io_model.local_read_time(size, self.params)
                self.charge(seconds, "restore")
                self.collector.add("local_disk", size, seconds)
                self.restores += 1
                tracer.incr("bufferpool.restores")
            elif obj.hdfs_path is not None:
                mc = obj.mc
                seconds = io_model.hdfs_read_time(mc, self.params, obj.fmt)
                self.charge(seconds, "read")
                self.collector.add(
                    "hdfs_read", seconds * self.params.hdfs_read_bw, seconds
                )
                if tracer.enabled:
                    tracer.incr(
                        f"hdfs.bytes_read.{obj.fmt.name.lower()}",
                        io_model.serialized_bytes(mc, obj.fmt),
                    )
            obj.in_memory = True
        else:
            tracer.incr("bufferpool.hits")
        self._insert(obj)

    def put(self, obj):
        """Register a freshly produced in-memory matrix."""
        obj.in_memory = True
        obj.dirty = True
        self._insert(obj)

    def release_all(self):
        """Drop all entries without IO (end of application)."""
        self._entries.clear()
        self.anchor(0, 0, 0)

    def retain_only(self, live_ids):
        """Discard every pooled matrix not in ``live_ids`` (rmvar sweep
        at block boundaries): dead data needs no writeback."""
        for key in [k for k in self._entries if k not in live_ids]:
            victim = self._entries.pop(key)
            victim.in_memory = False
            self._count(-victim.memory_size)

    def evict_all(self):
        """Flush everything (used before CP migration): dirty matrices
        are written to HDFS by the migration logic, so this only clears
        residency state."""
        for obj in self._entries.values():
            obj.in_memory = False
        self.release_all()

    # -- internals ---------------------------------------------------------

    def _insert(self, obj):
        key = id(obj)
        if key in self._entries:
            # a re-put of a pooled matrix is an LRU touch: its size is
            # in the occupancy already and must not evict anything
            self._entries.move_to_end(key)
            return
        size = obj.memory_size
        if size > self.capacity:
            # too large to retain: operations stream it; charge nothing
            # extra here (the access itself was already charged)
            obj.in_memory = False
            return
        self._make_room(size)
        self._entries[key] = obj
        self._count(size)

    def _make_room(self, needed):
        if self.fits(self.capacity, needed):
            return  # the re-sum below could not come out over capacity
        tracer = get_tracer()
        # track the occupancy incrementally: recomputing used_bytes per
        # victim made eviction storms quadratic in the pool population
        used = resummed = self.used_bytes
        pooled = len(self._entries)
        while self._entries and used + needed > self.capacity:
            _, victim = self._entries.popitem(last=False)
            size = victim.memory_size
            used -= size
            if victim.dirty:
                seconds = io_model.local_write_time(size, self.params)
                self.charge(seconds, "eviction")
                self.collector.add("local_disk", size, seconds)
                victim.local_copy = True
                self.bytes_evicted += size
                tracer.incr("bufferpool.writebacks")
                tracer.incr("bufferpool.bytes_evicted", size)
            self.evictions += 1
            tracer.incr("bufferpool.evictions")
            victim.in_memory = False
        # ``used`` took one addition per size summed and one subtraction
        # per victim, and none of them came out above the first sum
        evicted = pooled - len(self._entries)
        self.anchor(used, pooled + evicted, resummed)
