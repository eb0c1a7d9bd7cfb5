"""Discrete-event simulation substrate (engine, stats, deterministic RNG)."""

from .engine import PS_PER_NS, Clock, Component, Simulator, ns
from .rng import derive_seed, substream
from .sampler import IntervalSampler
from .stats import Accumulator, Counter, Histogram, StatGroup, TimeWeighted

__all__ = [
    "IntervalSampler",
    "PS_PER_NS",
    "Clock",
    "Component",
    "Simulator",
    "ns",
    "substream",
    "derive_seed",
    "Counter",
    "Accumulator",
    "Histogram",
    "StatGroup",
    "TimeWeighted",
]
