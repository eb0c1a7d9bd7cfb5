"""Fast-forward / sampled-simulation subsystem (SMARTS-style).

Alternates event-free functional warming of the memory hierarchy with
short detailed measurement windows, handing off between the two through
the checkpoint subsystem, and reports per-metric-class confidence
intervals for the sampled estimates.
"""

from .orchestrator import PhaseStream, SampledRun
from .warm import CHUNK_ITEMS, FunctionalWarmer

__all__ = [
    "CHUNK_ITEMS",
    "FunctionalWarmer",
    "PhaseStream",
    "SampledRun",
]
