"""Tests of the wire protocol payloads and size modelling."""

import numpy as np
import pytest

from repro.core import messages as msg
from repro.integrate.streamline import Streamline
from repro.storage.costmodel import DataCostModel

CM = DataCostModel()


def make_line(verts=10):
    line = Streamline(sid=0, seed=np.zeros(3))
    if verts:
        line.append_segment(np.zeros((verts, 3)))
    return line


def test_streamline_packet_size_scales_with_geometry():
    small = msg.StreamlinePacket([make_line(5)])
    big = msg.StreamlinePacket([make_line(500)])
    assert big.wire_nbytes(CM) > small.wire_nbytes(CM)
    assert big.wire_nbytes(CM) - small.wire_nbytes(CM) \
        == 495 * CM.vertex_nbytes


def test_packet_of_multiple_lines_sums():
    lines = [make_line(10), make_line(20)]
    packet = msg.StreamlinePacket(lines)
    assert packet.wire_nbytes(CM) == sum(
        CM.streamline_wire_nbytes(l.n_vertices) for l in lines)


def test_control_messages_are_small():
    cm_small = CM.message_header_nbytes
    assert msg.CountDelta(5).wire_nbytes(CM) == cm_small
    assert msg.Done().wire_nbytes(CM) == cm_small
    assert msg.LoadBlock(3).wire_nbytes(CM) == cm_small
    assert msg.SendForce(block_id=3, dest=4).wire_nbytes(CM) == cm_small


def test_status_size_scales_with_entries():
    a = msg.SlaveStatus(slave=1, lines_by_block={1: 2},
                        loaded_blocks=(1,), advanceable=0,
                        terminated_delta=0)
    b = msg.SlaveStatus(slave=1, lines_by_block={i: 1 for i in range(20)},
                        loaded_blocks=tuple(range(10)), advanceable=0,
                        terminated_delta=0)
    assert b.wire_nbytes(CM) > a.wire_nbytes(CM)


def test_assign_seeds_size():
    a = msg.AssignSeeds(block_id=1, sids=(1, 2), seeds=np.zeros((2, 3)))
    b = msg.AssignSeeds(block_id=1, sids=tuple(range(10)),
                        seeds=np.zeros((10, 3)))
    assert b.wire_nbytes(CM) - a.wire_nbytes(CM) == 8 * 32


def test_seed_grant_counts():
    grant = msg.SeedGrant(by_block={
        1: ((1, 2, 3), np.zeros((3, 3))),
        2: ((7,), np.zeros((1, 3))),
    })
    assert grant.n_seeds() == 4
    empty = msg.SeedGrant(by_block={})
    assert empty.n_seeds() == 0
    assert grant.wire_nbytes(CM) > empty.wire_nbytes(CM)


def test_send_hint_size_scales_with_blocks():
    a = msg.SendHint(block_ids=(1,), dest=2)
    b = msg.SendHint(block_ids=tuple(range(12)), dest=2)
    assert b.wire_nbytes(CM) - a.wire_nbytes(CM) == 11 * 8
