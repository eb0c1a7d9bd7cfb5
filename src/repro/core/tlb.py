"""Instruction/data TLBs (Section 2.1).

Each L1 module includes a 256-entry, 4-way set-associative TLB, refilled
in PALcode.  The model keeps no TLB state: the calibrated workload CPIs
already fold TLB effects in, as the paper's SimOS runs did, so charging
refills again would double-count.  The module stays so that the
host-profiling layer tables can keep naming it.
"""
