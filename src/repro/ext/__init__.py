"""Extensions: the paper's §8 future-work directions, implemented.

``compactcomm``   quantifying the §8 solver-state-only communication
                  optimization on real runs

Dynamic seed creation, the other §8 direction this repo implements,
runs inside the distributed hybrid itself (:mod:`repro.core.reseed`).
"""

from repro.ext.compactcomm import CompactCommReport, compare_compact_communication

__all__ = [
    "CompactCommReport",
    "compare_compact_communication",
]
