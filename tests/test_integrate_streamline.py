"""Tests of streamline state, geometry, and modelled sizes."""

import numpy as np
import pytest

from repro.integrate.streamline import (
    Status,
    Streamline,
    make_streamlines,
)
from repro.storage.costmodel import (
    STREAMLINE_HEADER_NBYTES,
    STREAMLINE_OVERHEAD_NBYTES,
    VERTEX_NBYTES,
    DataCostModel,
)


def test_seed_becomes_position():
    s = Streamline(sid=0, seed=np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(s.position, [1.0, 2.0, 3.0])
    assert s.position is not s.seed


def test_vertices_without_segments_is_seed():
    s = Streamline(sid=0, seed=np.array([0.1, 0.2, 0.3]))
    v = s.vertices()
    assert v.shape == (1, 3)
    assert np.allclose(v[0], [0.1, 0.2, 0.3])


def test_segments_concatenate_in_order():
    s = Streamline(sid=0, seed=np.zeros(3))
    s.append_segment(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    s.append_segment(np.array([[2.0, 0, 0]]))
    v = s.vertices()
    assert np.allclose(v[:, 0], [0, 1, 2])
    assert s.n_vertices == 3


def test_empty_segment_ignored():
    s = Streamline(sid=0, seed=np.zeros(3))
    s.append_segment(np.zeros((0, 3)))
    assert s.segments == []


def test_bad_segment_shape():
    s = Streamline(sid=0, seed=np.zeros(3))
    with pytest.raises(ValueError):
        s.append_segment(np.zeros((3, 2)))


def test_arc_length():
    s = Streamline(sid=0, seed=np.zeros(3))
    s.append_segment(np.array([[0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]]))
    assert s.arc_length() == pytest.approx(7.0)
    fresh = Streamline(sid=1, seed=np.zeros(3))
    assert fresh.arc_length() == 0.0


def test_memory_and_wire_sizes():
    s = Streamline(sid=0, seed=np.zeros(3))
    s.append_segment(np.zeros((10, 3)))
    cost = DataCostModel()
    assert cost.streamline_memory_nbytes(s.n_vertices) \
        == STREAMLINE_OVERHEAD_NBYTES + 10 * VERTEX_NBYTES
    assert cost.streamline_wire_nbytes(s.n_vertices) \
        == STREAMLINE_HEADER_NBYTES + 10 * VERTEX_NBYTES


def test_terminate_transitions():
    s = Streamline(sid=0, seed=np.zeros(3))
    assert not s.status.terminated
    s.terminate(Status.MAX_STEPS)
    assert s.status is Status.MAX_STEPS
    assert s.status.terminated
    with pytest.raises(RuntimeError):
        s.terminate(Status.OUT_OF_BOUNDS)  # double termination
    with pytest.raises(ValueError):
        Streamline(sid=1, seed=np.zeros(3)).terminate(Status.ACTIVE)


def test_make_streamlines():
    seeds = np.array([[0.0, 0, 0], [1.0, 1, 1]])
    lines = make_streamlines(seeds, start_id=5)
    assert [l.sid for l in lines] == [5, 6]
    assert np.allclose(lines[1].seed, [1, 1, 1])
    with pytest.raises(ValueError):
        make_streamlines(np.zeros((2, 2)))


def test_all_statuses_have_terminated_flag():
    assert not Status.ACTIVE.terminated
    for st in Status:
        if st is not Status.ACTIVE:
            assert st.terminated
