"""Tests of block providers: generation, memoization, disk round-trip."""

import numpy as np
import pytest

from repro.fields import SupernovaField, UniformField
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.storage.costmodel import DataCostModel
from repro.storage.store import (
    BlockStore,
    DiskBlockStore,
    read_block_file,
    write_block_file,
)


@pytest.fixture
def store():
    field = SupernovaField()
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    return BlockStore(field, dec)


def test_load_is_deterministic(store):
    a = store.load(3)
    b = store.load(3)
    assert a is b  # memoized
    fresh = BlockStore(store.field, store.decomposition).load(3)
    assert np.array_equal(a.data, fresh.data)


def test_generation_counted_once(store):
    store.load(0)
    store.load(0)
    store.load(1)
    assert store.generation_count == 2


def test_loaded_block_is_readonly(store):
    block = store.load(0)
    with pytest.raises(ValueError):
        block.data[0, 0, 0, 0] = 99.0


def test_block_matches_field_samples(store):
    block = store.load(5)
    info = store.decomposition.info(5)
    xs, ys, zs = info.node_coordinates()
    p = np.array([[xs[1], ys[2], zs[3]]])
    assert np.allclose(block.data[1, 2, 3], store.field.evaluate(p)[0])


def test_block_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 5, 6, 3))
    path = tmp_path / "b.rpb"
    write_block_file(path, data)
    assert np.array_equal(read_block_file(path), data)
    # The RPB1 header keeps its ghost-layer field, always written as 0.
    assert path.read_bytes()[4:8] == b"\x00" * 4


def test_block_file_with_ghost_layers_rejected(tmp_path):
    path = tmp_path / "g.rpb"
    write_block_file(path, np.zeros((2, 2, 2, 3)))
    raw = bytearray(path.read_bytes())
    raw[4] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="g.rpb: 1 ghost layers"):
        read_block_file(path)


def test_block_file_cut_inside_header(tmp_path):
    path = tmp_path / "h.rpb"
    write_block_file(path, np.zeros((2, 2, 2, 3)))
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(ValueError, match="h.rpb: truncated header"):
        read_block_file(path)


def test_block_file_trailing_bytes(tmp_path):
    path = tmp_path / "j.rpb"
    write_block_file(path, np.zeros((2, 2, 2, 3)))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="j.rpb: 4 trailing bytes"):
        read_block_file(path)


def test_block_file_bad_magic(tmp_path):
    path = tmp_path / "bad.rpb"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="magic"):
        read_block_file(path)


def test_block_file_truncated(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(3, 3, 3, 3))
    path = tmp_path / "t.rpb"
    write_block_file(path, data)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_block_file(path)


def test_block_file_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        write_block_file(tmp_path / "x.rpb", np.zeros((3, 3, 3)))


def test_disk_store_roundtrip(tmp_path, store):
    disk = DiskBlockStore.write(store, tmp_path / "blocks")
    assert disk.n_blocks == store.n_blocks
    for bid in (0, 3, 7):
        a = store.load(bid)
        b = disk.load(bid)
        assert np.array_equal(a.data, b.data)
        assert a.info.bounds == b.info.bounds


def test_disk_store_missing_directory(store):
    with pytest.raises(FileNotFoundError):
        DiskBlockStore("/nonexistent/path/xyz", store.decomposition)


def test_cost_model_block_bytes():
    cm = DataCostModel()
    assert cm.block_nbytes == 12_000_000  # 1M cells x 12 B
    assert cm.streamline_memory_nbytes(0) == cm.streamline_overhead_nbytes
    assert cm.streamline_memory_nbytes(10) \
        == cm.streamline_overhead_nbytes + 10 * cm.vertex_nbytes


def test_cost_model_wire_sizes():
    cm = DataCostModel()
    assert cm.streamline_wire_nbytes(100) \
        == cm.message_header_nbytes + 100 * cm.vertex_nbytes


def test_cost_model_validation():
    with pytest.raises(ValueError):
        DataCostModel(bytes_per_cell=0)
    with pytest.raises(ValueError):
        DataCostModel().streamline_memory_nbytes(-1)
