"""The Piranha chip: CPUs, cache hierarchy, protocol engines, system glue."""

from .checker import (
    CoherenceChecker,
    CoherenceViolation,
    audit_directory,
    audit_duplicate_tags,
    audit_non_inclusion,
    audit_system,
    audit_tsrf,
)
from .chip import PiranhaChip
from .probe import PROBE_CLASSES, ProbeCollector, TxnProbe, classify
from .config import (
    INO,
    OOO,
    PIRANHA_P1,
    PIRANHA_P2,
    PIRANHA_P4,
    PIRANHA_P8,
    PIRANHA_P8F,
    PIRANHA_P8_PESSIMISTIC,
    PRESETS,
    ChipConfig,
    CoreParams,
    L1Params,
    L2Params,
    LatencyParams,
    MemoryParams,
    preset,
    table1,
)
from .cpu import CpuCore, InOrderCpu, OooCpu, make_cpu
from .directory import (
    DIRECTORY_BITS,
    MAX_POINTERS,
    DirectoryEntry,
    DirectoryStore,
    DirState,
    ecc_accounting,
)
from .dup_tags import L2_OWNER, DuplicateTags, duplicate_tag_overhead
from .ics import IntraChipSwitch
from .iochip import IoNode, PciInterface, io_node_config
from .l1 import L1Cache
from .l2 import L2Bank
from .messages import (
    AccessKind,
    CacheId,
    MemRequest,
    MESI,
    ReplySource,
    RequestType,
)
from .microcode import Assembler, Instr, Op, Program, Sequencer
from .protocol_engine import ProtocolEngine
from .rdram import MemoryController, RdramChannel
from .syscontrol import SystemControl
from .tlb import Tlb
from .trace import ProtocolTrace, TraceEvent
from .system import PiranhaSystem, default_topology
from .tsrf import TSRF_ENTRIES, Tsrf, TsrfEntry, TsrfFullError

__all__ = [
    "CoherenceChecker",
    "CoherenceViolation",
    "ProtocolTrace",
    "TraceEvent",
    "audit_directory",
    "audit_duplicate_tags",
    "audit_non_inclusion",
    "audit_system",
    "audit_tsrf",
    "PiranhaChip",
    "PiranhaSystem",
    "default_topology",
    "PROBE_CLASSES",
    "ProbeCollector",
    "TxnProbe",
    "classify",
    "INO",
    "OOO",
    "PIRANHA_P1",
    "PIRANHA_P2",
    "PIRANHA_P4",
    "PIRANHA_P8",
    "PIRANHA_P8F",
    "PIRANHA_P8_PESSIMISTIC",
    "PRESETS",
    "ChipConfig",
    "CoreParams",
    "L1Params",
    "L2Params",
    "LatencyParams",
    "MemoryParams",
    "preset",
    "table1",
    "CpuCore",
    "InOrderCpu",
    "OooCpu",
    "make_cpu",
    "DIRECTORY_BITS",
    "MAX_POINTERS",
    "DirectoryEntry",
    "DirectoryStore",
    "DirState",
    "ecc_accounting",
    "L2_OWNER",
    "DuplicateTags",
    "duplicate_tag_overhead",
    "IntraChipSwitch",
    "IoNode",
    "PciInterface",
    "io_node_config",
    "L1Cache",
    "L2Bank",
    "AccessKind",
    "CacheId",
    "MemRequest",
    "MESI",
    "ReplySource",
    "RequestType",
    "Assembler",
    "Instr",
    "Op",
    "Program",
    "Sequencer",
    "ProtocolEngine",
    "Tlb",
    "MemoryController",
    "RdramChannel",
    "SystemControl",
    "TSRF_ENTRIES",
    "Tsrf",
    "TsrfEntry",
    "TsrfFullError",
]
