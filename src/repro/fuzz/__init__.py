"""Differential fuzzing & litmus-test subsystem.

Seeded random stimulus over contended address pools
(:mod:`~repro.fuzz.stimulus`), cross-checked against an axiomatic
memory-model reference (:mod:`~repro.fuzz.reference`) independently of
the structural sanitizer, with failing programs delta-debugged to
minimal self-contained reproducers (:mod:`~repro.fuzz.shrink`).  See
DESIGN.md §4f.
"""

from ..core.checker import violation_signature
from .mutations import MUTATIONS, apply_mutation
from .program import FuzzProgram, Reproducer
from .reference import MemoryModelViolation, ReferenceChecker
from .runner import (
    FuzzVerdict,
    FuzzWorkload,
    replay,
    run_fuzz_program,
    shrink_failure,
)
from .shrink import ShrinkOutcome, shrink
from .stimulus import StimulusParams, generate, params_for

__all__ = [
    "FuzzProgram", "Reproducer", "MemoryModelViolation", "ReferenceChecker",
    "FuzzVerdict", "FuzzWorkload", "run_fuzz_program", "replay",
    "shrink_failure", "ShrinkOutcome", "shrink", "violation_signature",
    "StimulusParams", "generate", "params_for",
    "MUTATIONS", "apply_mutation",
]
