"""repro — Scalable Computation of Streamlines on Very Large Datasets.

A from-scratch Python reproduction of Pugmire, Childs, Garth, Ahern &
Weber (SC 2009): three parallelization strategies for streamline
computation over block-decomposed vector-field data — Static Allocation,
Load On Demand, and the paper's Hybrid Master/Slave algorithm — executed
on a deterministic discrete-event simulation of a distributed-memory
machine.

Quickstart::

    import repro
    from repro.fields import TokamakField
    from repro.seeding import sparse_random_seeds

    field = TokamakField()
    problem = repro.ProblemSpec(
        field=field,
        seeds=sparse_random_seeds(field.domain, 200, seed=1),
        blocks_per_axis=(4, 4, 4),
        cells_per_block=(12, 12, 12),
    )
    result = repro.run_streamlines(problem, algorithm="hybrid",
                                   machine=repro.MachineSpec(n_ranks=16))
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro.core.config import ALGORITHMS, HybridConfig
from repro.core.driver import run_streamlines
from repro.core.problem import ProblemSpec
from repro.core.results import RunResult
from repro.integrate.config import IntegratorConfig
from repro.obs import Recorder
from repro.sim.machine import MachineSpec
from repro.sim.trace import Trace
from repro.storage.costmodel import DataCostModel

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "DataCostModel",
    "Recorder",
    "HybridConfig",
    "IntegratorConfig",
    "MachineSpec",
    "ProblemSpec",
    "RunResult",
    "Trace",
    "run_streamlines",
    "__version__",
]
