"""Unit tests for the CP buffer pool (LRU + eviction accounting)."""

import numpy as np
import pytest

from repro.cost.constants import DEFAULT_PARAMETERS
from repro.runtime.bufferpool import BufferPool
from repro.runtime.matrix import MatrixObject


class Charger:
    def __init__(self):
        self.total = 0.0
        self.by_category = {}

    def __call__(self, seconds, category):
        self.total += seconds
        self.by_category[category] = (
            self.by_category.get(category, 0.0) + seconds
        )


def make_obj(mb, dirty=True):
    """A matrix whose logical footprint is ~mb megabytes."""
    rows = int(mb * 1024 * 1024 / 8 / 10)
    obj = MatrixObject.generate(rows, 10, min_value=1.0, max_value=2.0,
                                sample_cap=4)
    obj.dirty = dirty
    return obj


@pytest.fixture
def charger():
    return Charger()


def make_pool(mb, charger):
    return BufferPool(mb * 1024 * 1024, DEFAULT_PARAMETERS, charger)


class TestResidency:
    def test_put_registers_in_memory(self, charger):
        pool = make_pool(100, charger)
        obj = make_obj(10)
        pool.put(obj)
        assert obj.in_memory and pool.contains(obj)

    def test_pin_resident_is_free(self, charger):
        pool = make_pool(100, charger)
        obj = make_obj(10)
        pool.put(obj)
        pool.pin(obj)
        assert charger.total == 0.0

    def test_eviction_on_overflow(self, charger):
        pool = make_pool(25, charger)
        a, b, c = make_obj(10), make_obj(10), make_obj(10)
        for obj in (a, b, c):
            pool.put(obj)
        assert pool.evictions >= 1
        assert not a.in_memory  # LRU victim

    def test_dirty_eviction_charges_write(self, charger):
        pool = make_pool(15, charger)
        pool.put(make_obj(10, dirty=True))
        pool.put(make_obj(10, dirty=True))
        assert charger.by_category.get("eviction", 0.0) > 0.0

    def test_clean_eviction_free(self, charger):
        pool = make_pool(15, charger)
        a = make_obj(10, dirty=False)
        a.dirty = False
        pool.put(a)  # put() marks dirty again
        a.dirty = False
        pool.put(make_obj(10))
        assert charger.by_category.get("eviction", 0.0) == 0.0

    def test_restore_from_local_copy(self, charger):
        pool = make_pool(100, charger)
        obj = make_obj(10)
        obj.in_memory = False
        obj.local_copy = True
        pool.pin(obj)
        assert obj.in_memory
        assert charger.by_category.get("restore", 0.0) > 0.0
        assert pool.restores == 1

    def test_restore_from_hdfs(self, charger):
        pool = make_pool(100, charger)
        obj = make_obj(10)
        obj.in_memory = False
        obj.hdfs_path = "data/x"
        pool.pin(obj)
        assert charger.by_category.get("read", 0.0) > 0.0

    def test_lru_order_updated_by_pin(self, charger):
        pool = make_pool(25, charger)
        a, b = make_obj(10), make_obj(10)
        pool.put(a)
        pool.put(b)
        pool.pin(a)  # a becomes most recently used
        pool.put(make_obj(10))
        assert a.in_memory and not b.in_memory

    def test_reput_of_pooled_object_is_an_lru_touch(self, charger):
        """A pooled object put again used to ask for its own size on top
        of an occupancy that already held it, and evict itself."""
        pool = make_pool(25, charger)
        a, b = make_obj(10), make_obj(10)
        pool.put(a)
        pool.put(b)
        pool.put(a)
        assert pool.contains(a) and a.in_memory and a.dirty
        assert pool.evictions == 0 and charger.total == 0.0
        assert list(pool._entries) == [id(b), id(a)]  # a is now the MRU
        # counted once
        assert pool.total == pool.used_bytes == 2 * a.memory_size


class TestCapacity:
    def test_oversized_object_not_retained(self, charger):
        pool = make_pool(5, charger)
        obj = make_obj(50)
        pool.put(obj)
        assert not pool.contains(obj)

    def test_set_capacity_shrink_evicts(self, charger):
        pool = make_pool(100, charger)
        objs = [make_obj(20) for _ in range(4)]
        for obj in objs:
            pool.put(obj)
        pool.set_capacity(30 * 1024 * 1024)
        assert pool.used_bytes <= 30 * 1024 * 1024

    def test_evict_all_clears_residency(self, charger):
        pool = make_pool(100, charger)
        obj = make_obj(10)
        pool.put(obj)
        pool.evict_all()
        assert not obj.in_memory
        assert pool.used_bytes == 0

    def test_release_all_no_charge(self, charger):
        pool = make_pool(100, charger)
        pool.put(make_obj(10))
        pool.release_all()
        assert charger.total == 0.0
