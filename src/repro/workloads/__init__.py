"""Workload models: OLTP (TPC-B), DSS (TPC-D Q6), TPC-C, microbenchmarks."""

from .base import (
    AddressSpaceBuilder,
    CodeWalk,
    NodeShards,
    Region,
    Workload,
    WorkloadThread,
    ZipfSampler,
    interleave_order,
)
from .dss import DssParams, DssWorkload
from .micro import (
    MicroParams,
    MigratoryWrites,
    PrivateStream,
    ProducerConsumer,
    SharedReadOnly,
    UniformRandom,
)
from .oltp import OltpParams, OltpWorkload
from .tpcc import TpccWorkload, tpcc_params
from .web import WebParams, WebWorkload

__all__ = [
    "AddressSpaceBuilder",
    "CodeWalk",
    "NodeShards",
    "Region",
    "Workload",
    "WorkloadThread",
    "ZipfSampler",
    "interleave_order",
    "DssParams",
    "DssWorkload",
    "MicroParams",
    "MigratoryWrites",
    "PrivateStream",
    "ProducerConsumer",
    "SharedReadOnly",
    "UniformRandom",
    "OltpParams",
    "OltpWorkload",
    "TpccWorkload",
    "tpcc_params",
    "WebParams",
    "WebWorkload",
]
