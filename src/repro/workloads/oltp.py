"""OLTP workload modelled after TPC-B (Section 3.1).

TPC-B models a banking database: each transaction updates a randomly
chosen **account** balance, the balance of the account's **branch** and of
the submitting **teller**, and appends a record to the **history** table.
The paper runs 40 branches against Oracle with a ~600 MB SGA, eight server
processes per CPU, and reports the classic OLTP memory-system signature:
large instruction and data footprints, frequent communication misses on
hot metadata, and little ILP.

The model reproduces that signature structurally:

* a large, zipf-walked shared **code** footprint (database engine text) —
  instruction misses dominate and are mostly serviced on-chip;
* hot shared **metadata** (buffer-cache headers, lock structures) with a
  read-mostly/write-some mix — the communication misses;
* a large uniformly-accessed **account table** — the memory misses;
* small, heavily contended **branch/teller** rows — migratory sharing;
* per-process **history/log** appends and private stack traffic.

Footprint sizes are scaled so the simulated cache hierarchy (64 KB L1s,
1 MB L2) sees the same *relative* pressure the paper's full-size setup put
on its hierarchy; `OltpParams` documents every knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.messages import LOAD, STORE, WH64, AccessKind
from ..sim.rng import substream
from .base import (
    AddressSpaceBuilder,
    CodeWalk,
    NodeShards,
    Region,
    Workload,
    WorkloadThread,
    ZipfSampler,
    interleave_code_and_data,
)


@dataclass(frozen=True)
class OltpParams:
    """Tunable shape parameters for the OLTP model."""

    #: transactions each CPU executes (after per-CPU warm-up)
    transactions: int = 80
    warmup_transactions: int = 150
    #: server processes per CPU (the paper uses 8 to hide I/O latency);
    #: successive transactions rotate across their private contexts
    processes_per_cpu: int = 8
    #: shared database-engine text: 2048 lines = 128 KB of hot/warm code
    #: (every line revisited regularly, as a transaction's code path is)
    code_lines: int = 2048
    code_zipf: float = 0.55
    code_run_lines: int = 6
    code_runs_per_txn: int = 11
    #: hot shared metadata (buffer headers, lock structures): 64 KB
    metadata_lines: int = 1024
    metadata_zipf: float = 0.45
    metadata_accesses_per_txn: int = 22
    metadata_write_fraction: float = 0.35
    #: account table (memory-bound): 24 MB of 4 KB blocks.  Blocks are
    #: zipf-skewed (Oracle's buffer cache makes some disk blocks hot) —
    #: this is also what gives the memory controllers their open-page
    #: locality (Section 2.4's >50% hit-rate claim)
    account_lines: int = 393216
    account_lines_per_row: int = 2
    account_block_lines: int = 64
    account_block_zipf: float = 0.55
    #: B-tree index leaves (uniformly accessed, memory-bound): 4 MB
    index_lines: int = 65536
    index_accesses_per_txn: int = 2
    #: branches (40 in the paper's setup) and tellers (400)
    branches: int = 40
    branch_lines_per_row: int = 2
    tellers: int = 100
    #: per-process private context (stack, locals, cursors)
    private_lines: int = 224
    private_accesses_per_txn: int = 60
    #: history append lines per transaction (per-process stripes)
    history_lines_per_txn: int = 1
    history_stripe_lines: int = 4096
    #: shared redo-log buffer (producer-only appends)
    log_lines: int = 512
    #: fraction of data references an OOO window can treat as independent
    independent_fraction: float = 0.15
    #: data references woven in per instruction-fetch line
    data_per_code_line: float = 1.45
    #: probability that a transaction's rows/metadata/appends come from the
    #: executing node's local shard (database NUMA tuning; multi-node only)
    numa_locality: float = 0.70
    #: sequential block-I/O lines appended per transaction (DB-writer
    #: flush scans / block prefetch).  Off by default; the Section 2.4
    #: open-page benchmark turns it on — these sequential bursts are what
    #: give OLTP's DRAM traffic its page locality.
    block_io_lines_per_txn: int = 0
    #: hot rows are padded onto their own 8 KB pages in multi-node systems
    #: so branches/tellers interleave across homes
    hot_row_stride_lines: int = 128
    seed: int = 2000


class OltpWorkload(Workload):
    """TPC-B-like OLTP over the shared database address space."""

    name = "oltp"
    #: the paper [35]: multiple-issue OOO gains are small for OLTP
    ilp = 1.35

    def __init__(self, params: Optional[OltpParams] = None,
                 cpus_per_node: int = 8, num_nodes: int = 1) -> None:
        self.params = params or OltpParams()
        self.cpus_per_node = cpus_per_node
        self.num_nodes = num_nodes
        p = self.params
        space = AddressSpaceBuilder()
        #: hot rows live on their own pages in NUMA systems so their homes
        #: interleave round-robin across the nodes
        self.row_stride = p.hot_row_stride_lines if num_nodes > 1 else (
            p.branch_lines_per_row)
        teller_stride = p.hot_row_stride_lines if num_nodes > 1 else 1
        self.teller_stride = teller_stride
        self.code = space.region("code", p.code_lines)
        self.metadata = space.region("metadata", p.metadata_lines)
        self.branch = space.region("branch", p.branches * self.row_stride)
        self.teller = space.region("teller", p.tellers * teller_stride)
        self.log = space.region("log", max(p.log_lines, 128 * num_nodes))
        self.account = space.region("account", p.account_lines)
        self.index = space.region("index", p.index_lines)
        total_cpus = cpus_per_node * num_nodes
        self.history = space.region(
            "history", p.history_stripe_lines * total_cpus * p.processes_per_cpu
        )
        self.private = space.region(
            "private", p.private_lines * total_cpus * p.processes_per_cpu
        )
        space.validate()
        self.space = space
        self._branch_rows = [
            self._local_rows(self.branch, p.branches, self.row_stride, n)
            for n in range(num_nodes)
        ]
        self._teller_rows = [
            self._local_rows(self.teller, p.tellers, self.teller_stride, n)
            for n in range(num_nodes)
        ]
        num_blocks = p.account_lines // p.account_block_lines
        self._account_block_sampler = ZipfSampler(num_blocks,
                                                  p.account_block_zipf)
        # scatter zipf ranks over the physical blocks
        from ..sim.rng import substream as _ss
        perm_rng = _ss(p.seed, "account-block-perm")
        self._account_block_perm = list(range(num_blocks))
        perm_rng.shuffle(self._account_block_perm)
        if num_nodes > 1:
            self.meta_shards = NodeShards(self.metadata, num_nodes)
            self.account_shards = NodeShards(self.account, num_nodes)
            self.index_shards = NodeShards(self.index, num_nodes)
            self.log_shards = NodeShards(self.log, num_nodes)
            self.history_shards = NodeShards(self.history, num_nodes)

    # -- transaction recipe --------------------------------------------------

    def _local_rows(self, region: Region, rows: int, stride: int, node: int):
        """Rows of a page-padded hot table homed at *node*."""
        if self.num_nodes == 1:
            return list(range(rows))
        base_chunk = region.base // 8192
        local = [r for r in range(rows)
                 if (base_chunk + (r * stride * 64) // 8192) % self.num_nodes == node]
        return local or list(range(rows))

    def _data_ops(self, rng, meta_sampler: ZipfSampler, proc_base: dict,
                  txn_index: int, node: int) -> List[Tuple[int, AccessKind, int, bool]]:
        """The data references of one TPC-B transaction, in order."""
        p = self.params
        multi = self.num_nodes > 1
        loc = p.numa_locality
        ops: List[Tuple[int, AccessKind, int, bool]] = []
        indep = p.independent_fraction

        def dep() -> bool:
            return rng.random() >= indep

        def local(prob: float = loc) -> bool:
            return multi and rng.random() < prob

        def private_ref() -> None:
            line = proc_base["private"] + rng.randrange(p.private_lines)
            kind = STORE if rng.random() < 0.4 else LOAD
            ops.append((0, kind, self.private.line_addr(line), True))

        def metadata_ref() -> None:
            if local():
                line = self.meta_shards.sample_line(rng, node)
            else:
                line = meta_sampler.sample(rng.random())
            write = rng.random() < p.metadata_write_fraction
            kind = STORE if write else LOAD
            ops.append((0, kind, self.metadata.line_addr(line), dep()))

        # 0. index walk: B-tree leaf lookups (root/branch levels hit in
        #    the metadata region; leaves are effectively uniform)
        for _ in range(p.index_accesses_per_txn):
            if local():
                leaf = self.index_shards.sample_line(rng, node)
            else:
                # leaves cluster in 4 KB index blocks with mild skew
                block = self._account_block_sampler.sample(rng.random())
                block %= p.index_lines // p.account_block_lines
                leaf = (block * p.account_block_lines
                        + rng.randrange(p.account_block_lines))
            ops.append((0, LOAD, self.index.line_addr(leaf), dep()))
        # 1. account row: read-modify-write inside a zipf-hot 4 KB block
        def account_line() -> int:
            rank = self._account_block_sampler.sample(rng.random())
            block = self._account_block_perm[rank]
            return (block * p.account_block_lines
                    + rng.randrange(p.account_block_lines))

        if local():
            aline = self.account_shards.sample_line(rng, node)
        else:
            aline = account_line()
        account_row = aline // p.account_lines_per_row
        for i in range(p.account_lines_per_row):
            line = account_row * p.account_lines_per_row + i
            ops.append((0, LOAD, self.account.line_addr(line), dep()))
        ops.append((0, STORE,
                    self.account.line_addr(account_row * p.account_lines_per_row),
                    True))
        # 2. branch row: hot, contended read-modify-write (the submitting
        #    client usually belongs to a node-local branch)
        branch_rows = self._branch_rows[node] if local() else range(p.branches)
        branch_row = branch_rows[rng.randrange(len(branch_rows))]
        bline = branch_row * self.row_stride
        ops.append((0, LOAD, self.branch.line_addr(bline), True))
        ops.append((0, STORE, self.branch.line_addr(bline), True))
        # 3. teller row
        teller_rows = self._teller_rows[node] if local() else range(p.tellers)
        teller_row = teller_rows[rng.randrange(len(teller_rows))]
        tline = teller_row * self.teller_stride
        ops.append((0, LOAD, self.teller.line_addr(tline), True))
        ops.append((0, STORE, self.teller.line_addr(tline), True))
        # 4. history append (per-process stripes out of node-local chunks;
        #    whole-line writes -> wh64)
        hcursor = proc_base["history"] + txn_index * p.history_lines_per_txn
        for i in range(p.history_lines_per_txn):
            if multi:
                hline = self.history_shards.local_line(node, hcursor + i)
            else:
                hline = (hcursor + i) % self.history.lines
            ops.append((0, WH64, self.history.line_addr(hline), True))
        # 5. redo-log append (node-local log stripe)
        lcursor = proc_base["log_cursor"] + txn_index
        if multi:
            log_line = self.log_shards.local_line(node, lcursor)
        else:
            log_line = lcursor % self.log.lines
        ops.append((0, STORE, self.log.line_addr(log_line), True))
        # 6. metadata + private filler, shuffled through the transaction
        for _ in range(p.metadata_accesses_per_txn):
            metadata_ref()
        for _ in range(p.private_accesses_per_txn):
            private_ref()
        rng.shuffle(ops)
        return ops

    # -- thread construction ---------------------------------------------------

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        if node >= self.num_nodes or cpu >= self.cpus_per_node:
            return None
        p = self.params
        global_cpu = node * self.cpus_per_node + cpu
        rng = substream(p.seed, "oltp", node, cpu)
        code_walk = CodeWalk(self.code, rng, alpha=p.code_zipf,
                             run_lines=p.code_run_lines)
        meta_sampler = ZipfSampler(p.metadata_lines, p.metadata_zipf)

        def gen() -> Iterator:
            from ..core.cpu import WARMUP_DONE

            total = p.transactions + p.warmup_transactions
            block_cursors = {}
            for txn in range(total):
                if txn == p.warmup_transactions:
                    yield (0, None, WARMUP_DONE, True)
                proc = txn % p.processes_per_cpu
                slot = global_cpu * p.processes_per_cpu + proc
                proc_base = {
                    "private": slot * p.private_lines,
                    "history": slot * p.history_stripe_lines,
                    "log_cursor": slot * 7,
                }
                code_items: List = []
                for _ in range(p.code_runs_per_txn):
                    code_items.extend(code_walk.run())
                data_items = self._data_ops(rng, meta_sampler, proc_base, txn, node)
                yield from interleave_code_and_data(
                    code_items, data_items, rng,
                    data_per_code_line=p.data_per_code_line,
                )
                if p.block_io_lines_per_txn:
                    # DB-writer style sequential block scan (streaming);
                    # the cursor persists across transactions
                    total_slots = (self.cpus_per_node * self.num_nodes
                                   * p.processes_per_cpu)
                    stripe = p.account_lines // total_slots
                    # skew the stripe starts so concurrent scanners sit on
                    # different RDRAM devices (stripe lengths are a multiple
                    # of the device period; without the skew every scanner
                    # would thrash the same device's open page)
                    start = (slot * stripe + slot * 64) % p.account_lines
                    cursor = block_cursors.setdefault(slot, start)
                    for i in range(p.block_io_lines_per_txn):
                        line = (cursor + i) % p.account_lines
                        yield (2, LOAD,
                               self.account.line_addr(line), False)
                    block_cursors[slot] = (
                        cursor + p.block_io_lines_per_txn) % p.account_lines

        return WorkloadThread(gen(), ilp=self.ilp,
                              name=f"oltp-n{node}c{cpu}")
