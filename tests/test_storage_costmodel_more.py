"""Cost-model arithmetic against the paper's stated scales."""

import pytest

from repro.storage.costmodel import DataCostModel
from repro.sim.machine import MachineSpec


def test_paper_scale_block():
    """512 blocks x 1M cells x 12 B = ~6 GB dataset, 12 MB per block."""
    cm = DataCostModel()
    assert cm.block_nbytes == 12_000_000
    assert 512 * cm.block_nbytes == 6_144_000_000


def test_dataset_exceeds_rank_memory():
    """The premise of 'very large': one rank cannot hold the dataset."""
    cm = DataCostModel()
    spec = MachineSpec()
    assert 512 * cm.block_nbytes > spec.memory_bytes


def test_thermal_dense_oom_arithmetic():
    """§5.3: 8,800 buffered curves exceed 2 GiB on one rank."""
    cm = DataCostModel()
    spec = MachineSpec()
    assert 8800 * cm.streamline_memory_nbytes(0) > spec.memory_bytes
    # ...but spread over 15 slaves they fit comfortably.
    per_slave = 8800 // 15
    assert per_slave * cm.streamline_memory_nbytes(200) \
        < 0.25 * spec.memory_bytes


def test_block_read_vs_step_economics():
    """One block read costs thousands of integration steps — the ratio
    behind every I/O-vs-compute tradeoff in the evaluation."""
    cm = DataCostModel()
    spec = MachineSpec()
    read = spec.io_latency + spec.read_service_time(cm.block_nbytes)
    steps_per_read = read / spec.seconds_per_step
    assert steps_per_read > 1.0  # reads dominate single steps
    # And one geometry-laden message is far cheaper than a block read.
    msg = spec.post_time(cm.streamline_wire_nbytes(300))
    assert msg < read


def test_wire_size_monotone_in_geometry():
    cm = DataCostModel()
    sizes = [cm.streamline_wire_nbytes(n) for n in (0, 10, 100, 1000)]
    assert sizes == sorted(sizes)
