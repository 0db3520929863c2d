"""Hybrid schedules pinned byte for byte.

The values below were computed on the commit *before* the master's
incremental bookkeeping and the engine's tuple heap.  Those changes may
only make the host faster: every simulated total, the number of engine
events and every vertex must stay exactly as pinned.  A master or engine
refactor that perturbs the schedule fails here, in tier-1, not only in
the host benchmark's digests.

Regenerate (only for a change that is *meant* to move the schedule) with
``PYTHONPATH=src python tests/test_schedule_pins.py``.
"""

import hashlib

import pytest

from repro import IntegratorConfig, MachineSpec, ProblemSpec, run_streamlines
from repro.core.config import HybridConfig
from repro.fields import SupernovaField
from repro.seeding import sparse_random_seeds
from repro.sim.cluster import Cluster

RANKS = (16, 64, 128)
VARIANTS = ("default", "no_locality", "four_masters")

PINS = {
    (16, 'default'):
        ('8.630791991999986', 945, 453216, 236, 58, 4064,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (16, 'no_locality'):
        ('8.057064891999975', 971, 518440, 179, 22, 3970,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (16, 'four_masters'):
        ('8.663505879999978', 953, 397308, 272, 128, 4233,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (64, 'default'):
        ('3.801497068000002', 1132, 422024, 322, 6, 4934,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (64, 'no_locality'):
        ('5.801938452000011', 1222, 570904, 183, 5, 4879,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (64, 'four_masters'):
        ('4.684400684000003', 1237, 450740, 359, 19, 5404,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (128, 'default'):
        ('4.685146748000009', 1400, 481500, 360, 12, 5875,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (128, 'no_locality'):
        ('4.684921116000011', 1569, 643820, 229, 10, 6110,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
    (128, 'four_masters'):
        ('4.685146748000009', 1400, 481500, 360, 12, 5875,
         '74e9f7a32f53dc6355811d3eea45b341903ff2e3a04dc673691feaf35acf5600'),
}


def problem() -> ProblemSpec:
    field = SupernovaField()
    return ProblemSpec(
        field=field, seeds=sparse_random_seeds(field.domain, 40, seed=7),
        blocks_per_axis=(6, 6, 6), cells_per_block=(6, 6, 6),
        integ=IntegratorConfig(max_steps=90, h_max=0.045,
                               rtol=1e-5, atol=1e-7))


def schedule(ranks: int, variant: str, monkeypatch) -> tuple:
    """One hybrid run's simulated totals, engine event count (read off
    the cluster the way ``benchmarks/host/seams.py`` does) and geometry
    digest."""
    events = []
    run = Cluster.run

    def counted(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            events.append(self.engine.event_count)

    monkeypatch.setattr(Cluster, "run", counted)
    hybrid = HybridConfig()
    if variant == "no_locality":
        hybrid = HybridConfig(locality_bias=False)
    elif variant == "four_masters":
        hybrid = HybridConfig(slaves_per_master=ranks // 4 - 1)
        assert hybrid.n_masters(ranks) == 4
    result = run_streamlines(
        problem(), algorithm="hybrid", hybrid=hybrid,
        machine=MachineSpec(n_ranks=ranks, cache_blocks=12))
    assert result.ok
    h = hashlib.sha256()
    for line in result.streamlines:
        h.update(f"{line.sid}:{line.status.value}:{line.steps}:".encode())
        h.update(line.vertices().tobytes())
    (event_count,) = events
    return (repr(result.wall_clock), result.messages_sent, result.bytes_sent,
            result.blocks_loaded, result.blocks_purged, event_count,
            h.hexdigest())


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("ranks", RANKS)
def test_hybrid_schedule_is_pinned(ranks, variant, monkeypatch):
    assert schedule(ranks, variant, monkeypatch) == PINS[ranks, variant]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        for ranks in RANKS:
            for variant in VARIANTS:
                print(f"    ({ranks}, {variant!r}):\n"
                      f"        {schedule(ranks, variant, patch)!r},")
