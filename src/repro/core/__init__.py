"""The paper's contribution: parallel streamline computation strategies.

Three algorithms over the same substrates (block mesh, LRU block cache,
Dormand-Prince integrator, simulated distributed machine):

``static``    Static Allocation (§4.1): parallelize over blocks; streamlines
              are communicated to block owners; global count termination.
``ondemand``  Load On Demand (§4.2): parallelize over streamlines; blocks
              are loaded into per-rank LRU caches; zero communication.
``hybrid``    Hybrid Master/Slave (§4.3): masters dynamically assign both
              streamlines and blocks to slaves using the five rules
              (Assign_loaded, Assign_unloaded, Send_force, Send_hint, Load).

Entry point: :func:`repro.core.driver.run_streamlines`.
"""

from repro.core.config import ALGORITHMS, HybridConfig
from repro.core.driver import run_streamlines
from repro.core.problem import ProblemSpec
from repro.core.results import RunResult

__all__ = [
    "ALGORITHMS",
    "HybridConfig",
    "ProblemSpec",
    "RunResult",
    "run_streamlines",
]
