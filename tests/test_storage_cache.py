"""Tests of the LRU block cache and its accounting."""

import numpy as np
import pytest

from repro.fields import UniformField, sample_block
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.storage.cache import LRUBlockCache


@pytest.fixture
def blocks():
    field = UniformField(domain=Bounds.cube(0.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (3, 3, 3))
    return [sample_block(field, dec.info(i)) for i in range(8)]


def test_capacity_validation():
    with pytest.raises(ValueError):
        LRUBlockCache(0)


def test_put_get_hit_miss(blocks):
    cache = LRUBlockCache(4)
    assert cache.get(0) is None
    assert cache.misses == 1
    cache.put(blocks[0])
    assert cache.get(0) is blocks[0]
    assert cache.hits == 1
    assert cache.loads == 1
    assert len(cache) == 1


def test_lru_eviction_order(blocks):
    cache = LRUBlockCache(2)
    cache.put(blocks[0])
    cache.put(blocks[1])
    evicted = cache.put(blocks[2])
    assert [b.block_id for b in evicted] == [0]
    assert list(cache) == [1, 2]
    assert cache.purges == 1


def test_get_refreshes_lru_order(blocks):
    cache = LRUBlockCache(2)
    cache.put(blocks[0])
    cache.put(blocks[1])
    cache.get(0)  # 0 becomes most recent
    evicted = cache.put(blocks[2])
    assert [b.block_id for b in evicted] == [1]


def test_peek_does_not_touch(blocks):
    cache = LRUBlockCache(2)
    cache.put(blocks[0])
    cache.put(blocks[1])
    assert cache.peek(0) is blocks[0]
    assert cache.hits == 0
    evicted = cache.put(blocks[2])
    assert [b.block_id for b in evicted] == [0]  # peek did not refresh


def test_double_put_rejected(blocks):
    cache = LRUBlockCache(4)
    cache.put(blocks[0])
    with pytest.raises(ValueError):
        cache.put(blocks[0])


def test_block_efficiency(blocks):
    cache = LRUBlockCache(2)
    for b in blocks[:6]:
        cache.put(b)
    # 6 loads, 4 purges -> E = 2/6.
    assert cache.block_efficiency == pytest.approx(2.0 / 6.0)


def test_block_efficiency_vacuous():
    assert LRUBlockCache(2).block_efficiency == 1.0


def test_explicit_evict(blocks):
    cache = LRUBlockCache(4)
    cache.put(blocks[0])
    out = cache.evict(0)
    assert out is blocks[0]
    assert cache.purges == 1
    assert cache.evict(0) is None
    assert cache.purges == 1  # absent evict does not count


def test_clear(blocks):
    cache = LRUBlockCache(8)
    for b in blocks[:3]:
        cache.put(b)
    evicted = cache.clear()
    assert len(evicted) == 3
    assert cache.purges == 3
    assert len(cache) == 0


def test_contains(blocks):
    cache = LRUBlockCache(2)
    cache.put(blocks[3])
    assert 3 in cache
    assert 4 not in cache
