"""Exactness oracle for the buffer pool's running occupancy.

``BufferPool`` keeps a running total of its entries' sizes so that
``_make_room`` can skip re-summing them; the claim is that no charge, no
eviction, no residency flag and no LRU position moves.  The oracle here
is the pool as it was before that change — ``used_bytes``, ``_insert``
and ``_make_room`` verbatim, re-deriving every size from the object's
characteristics on every insert.  Both pools are driven over the same
generated call streams (twin object sets) and compared after every call,
and real programs are run end to end under both.

A stream never ``put``s an object that is still pooled: there the oracle
evicts the object to make room for itself, which is the bug
``tests/runtime/test_bufferpool.py`` pins the fix of.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ElasticMLSession, prepare_inputs, scenario
from repro.cost import io_model
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.obs import get_tracer
from repro.runtime import interpreter as interpreter_mod
from repro.runtime.bufferpool import BufferPool
from repro.runtime.matrix import MatrixObject
from tests.cost.test_cost_state_oracle import (
    TB,
    dense,
    dense_mcs,
    huge_mcs,
    nudged,
    sparse,
    sparse_mcs,
)

SETTINGS = settings(deadline=None, derandomize=True, max_examples=200)

#: a capacity that holds every generated object at once, ``huge_mcs``
#: (up to 8e14 bytes) included, and stays below 2**53
ROOMY = 2.0 ** 52


# -- the oracle ----------------------------------------------------------------


def _size(obj):
    """``MatrixObject.memory_size`` as it was: a property evaluating the
    estimate on every read (the oracle does not trust the stored one)."""
    return obj.mc.memory_estimate()


class OraclePool(BufferPool):
    """The pool before the running total; its three methods verbatim,
    ``memory_size`` spelled as the property it then was."""

    @property
    def used_bytes(self):
        return sum(_size(obj) for obj in self._entries.values())

    def _insert(self, obj):
        size = _size(obj)
        if size > self.capacity:
            # too large to retain: operations stream it; charge nothing
            # extra here (the access itself was already charged)
            obj.in_memory = False
            return
        self._make_room(size)
        self._entries[id(obj)] = obj
        self._entries.move_to_end(id(obj))

    def _make_room(self, needed):
        tracer = get_tracer()
        # track the occupancy incrementally: recomputing used_bytes per
        # victim made eviction storms quadratic in the pool population
        used = self.used_bytes
        while self._entries and used + needed > self.capacity:
            _, victim = self._entries.popitem(last=False)
            size = _size(victim)
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


# -- driving both pools and watching them --------------------------------------


class WatchedPool(BufferPool):
    """The shipped pool; every early return of ``_make_room`` is checked
    against the comparison it skipped, and every object ever inserted is
    remembered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fast = self.exact = 0
        self.held = []

    def _insert(self, obj):
        self.held.append(obj)
        super()._insert(obj)

    def _make_room(self, needed):
        if self.fits(self.capacity, needed):
            assert not self.used_bytes + needed > self.capacity
            self.fast += 1
        else:
            self.exact += 1
        super()._make_room(needed)


def assert_within_slack(pool):
    gap = abs(Fraction(pool.total) - Fraction(pool.used_bytes))
    slack = pool.slack()
    assert gap <= Fraction(slack), (
        f"running {pool.total!r} vs re-summed {pool.used_bytes!r}: "
        f"gap {float(gap)!r} > declared slack {slack!r}"
    )


class Twins:
    """The shipped pool and the oracle, each over its own copy of the
    same objects, called in lockstep and compared after every call.
    Objects listed in ``on_hdfs`` start like ``createvar`` leaves them:
    clean, not in memory, backed by an HDFS file."""

    def __init__(self, capacity, mcs, on_hdfs=()):
        self.logs = [], []
        self.pools = tuple(
            cls(capacity, DEFAULT_PARAMETERS,
                lambda seconds, category, log=log:
                    log.append((seconds, category)))
            for cls, log in zip((WatchedPool, OraclePool), self.logs)
        )
        self.objects = tuple(
            [
                MatrixObject(
                    np.zeros((1, 1)), mc,
                    hdfs_path=f"data/{i}" if i in on_hdfs else None,
                    in_memory=i not in on_hdfs, dirty=i not in on_hdfs,
                )
                for i, mc in enumerate(mcs)
            ]
            for _ in self.pools
        )

    shipped = property(lambda self: self.pools[0])
    oracle = property(lambda self: self.pools[1])

    def size(self, index):
        return _size(self.objects[1][index])

    def pooled(self, index):
        return self.shipped.contains(self.objects[0][index])

    def call(self, method, *args):
        for pool in self.pools:
            getattr(pool, method)(*args)
        self.check()

    def on_object(self, method, index):
        for pool, objects in zip(self.pools, self.objects):
            getattr(pool, method)(objects[index])
        self.check()

    def retain_only(self, indices):
        for pool, objects in zip(self.pools, self.objects):
            pool.retain_only({id(objects[i]) for i in indices})
        self.check()

    def lru(self, side):
        index = {id(obj): i for i, obj in enumerate(self.objects[side])}
        return [index[key] for key in self.pools[side]._entries]

    def check(self):
        shipped, oracle = self.pools
        assert self.logs[0] == self.logs[1]
        assert shipped.evictions == oracle.evictions
        assert shipped.restores == oracle.restores
        assert shipped.bytes_evicted == oracle.bytes_evicted
        assert self.lru(0) == self.lru(1)
        flags = [
            [(o.in_memory, o.dirty, o.local_copy) for o in objects]
            for objects in self.objects
        ]
        assert flags[0] == flags[1]
        assert_within_slack(shipped)
        assert len(shipped) == len(shipped._entries)


# -- strategies ----------------------------------------------------------------

capacities = st.one_of(
    st.floats(1e3, 3e7),
    st.sampled_from([0.0, 1e12, float(4 * TB), math.inf]),
)
ulps = st.integers(-4, 4)
picks = st.integers(0, 10**6)


def streams(mcs):
    """(object characteristics, HDFS-backed indices, first capacity,
    calls).  ``near`` puts the capacity ``ulps`` from the occupancy;
    ``near_put`` puts it ``ulps`` from what the occupancy would be with
    one more object, and then inserts that object."""
    calls = st.one_of(
        st.tuples(st.sampled_from(["put", "pin", "pin"]), picks),
        st.tuples(st.just("retain_only"), st.sets(st.integers(0, 11))),
        st.tuples(st.just("set_capacity"), capacities),
        st.tuples(st.just("near"), ulps),
        st.tuples(st.just("near_put"), picks, ulps),
        st.tuples(st.sampled_from(["evict_all", "release_all"])),
    )
    return st.tuples(
        st.lists(mcs, min_size=3, max_size=12),
        st.sets(st.integers(0, 11), max_size=4),
        capacities,
        st.lists(calls, min_size=1, max_size=40),
    )


def drive(stream):
    mcs, on_hdfs, capacity, calls = stream
    twins = Twins(capacity, mcs, on_hdfs)
    for name, *args in calls:
        if name in ("put", "pin"):
            index = args[0] % len(mcs)
            # a pooled object is never put again (see the module docstring)
            twins.on_object(
                "pin" if twins.pooled(index) else name, index
            )
        elif name == "retain_only":
            twins.retain_only([i for i in args[0] if i < len(mcs)])
        elif name == "near":
            twins.call(
                "set_capacity", nudged(float(twins.oracle.used_bytes), *args)
            )
        elif name == "near_put":
            index = args[0] % len(mcs)
            if not twins.pooled(index):
                full = twins.oracle.used_bytes + twins.size(index)
                twins.call("set_capacity", nudged(float(full), args[1]))
                twins.on_object("put", index)
        else:
            twins.call(name, *args)
    return twins


# -- the properties ------------------------------------------------------------


class TestGeneratedStreams:
    @SETTINGS
    @given(streams(dense_mcs))
    def test_dense_integer_sizes(self, stream):
        twins = drive(stream)
        # int sizes below 2**53 add exactly, as ints or as floats
        assert twins.shipped.total == twins.shipped.used_bytes

    @SETTINGS
    @given(streams(sparse_mcs))
    def test_sparse_non_integer_sizes(self, stream):
        drive(stream)

    @SETTINGS
    @given(streams(st.one_of(dense_mcs, sparse_mcs, sparse_mcs)))
    def test_mixed_sizes(self, stream):
        drive(stream)

    @SETTINGS
    @given(
        st.lists(st.one_of(sparse_mcs, dense_mcs), min_size=3, max_size=12),
        ulps, st.one_of(st.none(), huge_mcs),
    )
    def test_occupancy_within_four_ulp_of_the_capacity(self, mcs, ulps, huge):
        """All objects but the last are put, then pinned in reverse, so
        the running total and the LRU-order re-sum round differently;
        then the capacity drops to ``ulps`` from what the last object
        brings the occupancy to, and it is put.  With ``huge``, a
        terabyte is inserted and dropped first: it leaves an absolute
        error in the running total that dwarfs the occupancy's own ulp,
        and the insert that is too close to call still sees it."""
        last = len(mcs) - 1
        twins = Twins(ROOMY, mcs + ([huge] if huge else []))
        for index in range(last):
            twins.on_object("put", index)
        if huge:
            twins.on_object("put", last + 1)
            assert twins.pooled(last + 1)
        for index in reversed(range(last)):
            twins.on_object("pin", index)
        twins.retain_only(range(last))
        full = twins.oracle.used_bytes + twins.size(last)
        twins.call("set_capacity", nudged(float(full), ulps))
        twins.on_object("put", last)

    @SETTINGS
    @given(st.lists(sparse_mcs, min_size=2, max_size=8), capacities)
    def test_object_larger_than_the_capacity_is_never_retained(self, mcs,
                                                               capacity):
        twins = Twins(capacity, mcs + [dense(10**7, 10**6)])
        for index in range(len(mcs)):
            twins.on_object("put", index)
        before = twins.lru(0)
        twins.on_object("put", len(mcs))
        if capacity < 8e13:
            assert twins.lru(0) == before
            assert not twins.objects[0][-1].in_memory
        twins.on_object("pin", len(mcs))


class TestRunningTotal:
    def test_terabyte_inserted_and_dropped_leaves_an_error_the_slack_covers(
            self):
        mcs = [sparse(1000 + i, 37, 4001.37 + 13.11 * i) for i in range(9)]
        twins = Twins(ROOMY, mcs + [dense(10**6, 10**6)])
        for index in range(len(mcs) + 1):
            twins.on_object("put", index)
        twins.retain_only(range(len(mcs)))
        pool = twins.shipped
        gap = abs(pool.total - pool.used_bytes)
        assert gap > 4 * math.ulp(pool.used_bytes)
        assert pool.peak >= TB and gap <= pool.slack()
        assert pool.exact == 0  # and nothing has re-anchored it yet

    def test_exact_path_re_anchors_to_what_its_loop_ended_with(self):
        mcs = [sparse(3000, 41, 20011.3)] * 5
        twins = Twins(ROOMY, mcs + [dense(10**6, 10**6)])
        for index in (0, 1, 2, 3, 5, 4):
            twins.on_object("put", index)
        twins.retain_only(range(5))
        pool = twins.shipped
        # one ulp of room is too close to call: re-sum, evict nothing
        twins.call("set_capacity", nudged(pool.used_bytes, 1))
        assert (pool.fast, pool.exact) == (6, 1)
        assert pool.total == pool.peak == pool.used_bytes
        assert pool.ops == 5 and pool.evictions == 0
        # one ulp short: the oldest entry goes, and the total is what
        # the loop's subtraction left, not a second re-sum
        resummed = pool.used_bytes
        twins.call("set_capacity", nudged(resummed, -1))
        assert pool.evictions == 1 and pool.exact == 2
        assert pool.total == resummed - twins.size(0)
        assert (pool.ops, pool.peak) == (5 + 1, resummed)

    def test_fast_path_leaves_the_total_alone(self):
        twins = Twins(1e9, [dense(100, 100)] * 3)
        for index in range(3):
            twins.on_object("put", index)
        pool = twins.shipped
        assert (pool.fast, pool.exact, pool.ops) == (3, 0, 3)
        assert pool.total == 3 * (44 + 100 * 100 * 8)

    def test_emptying_the_pool_resets_the_total(self):
        for method in ("evict_all", "release_all"):
            twins = Twins(ROOMY, [sparse(3000, 41, 20011.3)] * 3)
            for index in range(3):
                twins.on_object("put", index)
            twins.call(method)
            pool = twins.shipped
            assert (pool.total, pool.ops, pool.peak) == (0, 0, 0)


# -- real programs ---------------------------------------------------------------

SCRIPTS = ("LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM", "KMeans", "PCA")


def _run(script, size, sparse_input, pool_class):
    pools = []

    def make_pool(*args, **kwargs):
        pools.append(pool_class(*args, **kwargs))
        return pools[-1]

    session = ElasticMLSession(sample_cap=64, seed=11)
    args = prepare_inputs(
        session.hdfs, script, scenario(size, cols=1000, sparse=sparse_input),
        seed=11,
    )
    with mock.patch.object(interpreter_mod, "BufferPool", make_pool):
        result = session.run(script, args).result
    return pools, (
        result.total_time.hex(),
        sorted((k, v.hex()) for k, v in result.breakdown.items()),
        result.evictions, result.buffer_restores, result.migrations,
        result.mr_jobs, list(result.prints),
    )


@pytest.mark.parametrize("sparse_input", [False, True],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("size", ["XS", "M", "L"])
@pytest.mark.parametrize("script", SCRIPTS)
def test_run_equals_run_on_the_oracle_pool(script, size, sparse_input):
    (pool,), shipped = _run(script, size, sparse_input, WatchedPool)
    _, oracle = _run(script, size, sparse_input, OraclePool)
    assert shipped == oracle
    assert pool.fast + pool.exact > 0
    assert_within_slack(pool)
    # the invariant that lets a size be stored: nothing resized an
    # object the pool has held
    assert pool.held
    for obj in pool.held:
        assert obj.memory_size == obj.mc.memory_estimate()
