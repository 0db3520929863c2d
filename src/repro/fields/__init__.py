"""Vector-field substrates.

The paper evaluates on three simulation datasets (GenASiS supernova,
NIMROD tokamak, Nek5000 thermal hydraulics).  Those datasets are not
available, so this package provides analytic stand-ins engineered to
reproduce the *streamline-transport structure* each dataset contributes to
the evaluation (see DESIGN.md §2), plus a library of classic reference
fields with known closed-form behaviour for testing the integrators.

All fields are vectorized: ``evaluate(points)`` maps ``(k, 3) -> (k, 3)``.
"""

from repro.fields.base import AnalyticField, VectorField
from repro.fields.astrophysics import SupernovaField
from repro.fields.tokamak import TokamakField
from repro.fields.thermal import ThermalHydraulicsField
from repro.fields.library import (
    ABCFlowField,
    DoubleGyreField,
    HillsVortexField,
    LorenzField,
    RigidRotationField,
    SaddleField,
    SinkField,
    SourceField,
    UniformField,
)
from repro.fields.sampling import sample_block, sample_field

__all__ = [
    "ABCFlowField",
    "AnalyticField",
    "DoubleGyreField",
    "HillsVortexField",
    "LorenzField",
    "RigidRotationField",
    "SaddleField",
    "SinkField",
    "SourceField",
    "SupernovaField",
    "ThermalHydraulicsField",
    "TokamakField",
    "UniformField",
    "sample_block",
    "sample_field",
]
