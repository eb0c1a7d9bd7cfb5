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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.messages import LOAD, STORE, WH64
from ..sim.rng import substream
from .base import (
    LINE,
    AddressSpaceBuilder,
    CodeWalk,
    NodeShards,
    Region,
    WorkItem,
    Workload,
    WorkloadThread,
    ZipfSampler,
    interleave_order,
    randbelow,
    shuffle,
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
    units_attr = "transactions"
    #: the paper [35]: multiple-issue OOO gains are small for OLTP
    ilp = 1.35

    def __init__(self, params: Optional[OltpParams] = None,
                 cpus_per_node: int = 8, num_nodes: int = 1) -> None:
        self.params = params or OltpParams()
        self.cpus_per_node = cpus_per_node
        self.num_nodes = num_nodes
        p = self.params
        if p.account_lines % p.account_lines_per_row:
            # a partial last row would put its lines past the table
            raise ValueError(
                f"account_lines ({p.account_lines}) is not a multiple of "
                f"account_lines_per_row ({p.account_lines_per_row})")
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
        if num_nodes > 1:
            self.meta_shards = NodeShards(self.metadata, num_nodes)
            self.account_shards = NodeShards(self.account, num_nodes)
            self.index_shards = NodeShards(self.index, num_nodes)
            self.log_shards = NodeShards(self.log, num_nodes)
            self.history_shards = NodeShards(self.history, num_nodes)
        #: the stream's fixed tables, built on first use (:meth:`_tables`)
        self._fixed: Optional[_FixedTables] = None

    def _tables(self) -> "_FixedTables":
        tables = self._fixed
        if tables is None:
            tables = self._fixed = _FixedTables(self)
        return tables

    def __getstate__(self) -> dict:
        # a checkpoint carries the recipe, not the tables: a restored
        # workload rebuilds them on its first transaction
        state = self.__dict__.copy()
        state["_fixed"] = None
        return state

    # -- transaction recipe --------------------------------------------------

    def _local_rows(self, region: Region, rows: int, stride: int, node: int):
        """Rows of a page-padded hot table homed at *node*."""
        if self.num_nodes == 1:
            return list(range(rows))
        base_chunk = region.base // 8192
        local = [r for r in range(rows)
                 if (base_chunk + (r * stride * 64) // 8192) % self.num_nodes == node]
        return local or list(range(rows))

    def _data_ops(self, t: "_FixedTables", rng, slot: int, txn: int,
                  node: int) -> List[WorkItem]:
        """The data references of one TPC-B transaction, in order, for
        server process *slot*.  Every draw is made in the order, and by
        the algorithm, of ``rng.random``/``randrange``/``shuffle``."""
        p = self.params
        multi = self.num_nodes > 1
        loc = p.numa_locality
        indep = p.independent_fraction
        random = rng.random
        getrandbits = rng.getrandbits
        ops: List[WorkItem] = []
        append = ops.append
        block_lines = p.account_block_lines

        # 0. index walk: B-tree leaf lookups (root/branch levels hit in
        #    the metadata region; leaves cluster in 4 KB index blocks with
        #    mild skew)
        for _ in range(p.index_accesses_per_txn):
            if multi and random() < loc:
                leaf = self.index_shards.sample_line(rng, node)
            else:
                leaf = (t.index_block_line[bisect_left(t.block_cdf, random())]
                        + randbelow(getrandbits, block_lines))
            append((0, LOAD, self.index.base + leaf * LINE, random() >= indep))
        # 1. account row: read-modify-write inside a zipf-hot 4 KB block
        if multi and random() < loc:
            aline = self.account_shards.sample_line(rng, node)
        else:
            aline = (t.account_block_line[bisect_left(t.block_cdf, random())]
                     + randbelow(getrandbits, block_lines))
        lpr = p.account_lines_per_row
        row_addr = self.account.base + aline // lpr * lpr * LINE
        for i in range(lpr):
            append((0, LOAD, row_addr + i * LINE, random() >= indep))
        append((0, STORE, row_addr, True))
        # 2. branch row: hot, contended read-modify-write (the submitting
        #    client usually belongs to a node-local branch)
        rows = (t.branch_local[node] if multi and random() < loc
                else t.branch_all)
        ops += rows[randbelow(getrandbits, len(rows))]
        # 3. teller row
        rows = (t.teller_local[node] if multi and random() < loc
                else t.teller_all)
        ops += rows[randbelow(getrandbits, len(rows))]
        # 4. history append (per-process stripes out of node-local chunks;
        #    whole-line writes -> wh64)
        hcursor = slot * p.history_stripe_lines + txn * p.history_lines_per_txn
        for i in range(p.history_lines_per_txn):
            if multi:
                hline = self.history_shards.local_line(node, hcursor + i)
            else:
                hline = (hcursor + i) % self.history.lines
            append((0, WH64, self.history.base + hline * LINE, True))
        # 5. redo-log append (node-local log stripe)
        lcursor = slot * 7 + txn
        if multi:
            log_line = self.log_shards.local_line(node, lcursor)
        else:
            log_line = lcursor % self.log.lines
        append((0, STORE, self.log.base + log_line * LINE, True))
        # 6. metadata + private filler, shuffled through the transaction
        meta_addr, meta_cdf = t.meta_addr, t.meta_cdf
        write_fraction = p.metadata_write_fraction
        for _ in range(p.metadata_accesses_per_txn):
            if multi and random() < loc:
                addr = self.metadata.line_addr(
                    self.meta_shards.sample_line(rng, node))
            else:
                addr = meta_addr[bisect_left(meta_cdf, random())]
            kind = STORE if random() < write_fraction else LOAD
            append((0, kind, addr, random() >= indep))
        private_base = self.private.base + slot * p.private_lines * LINE
        private_lines = p.private_lines
        for _ in range(p.private_accesses_per_txn):
            addr = private_base + randbelow(getrandbits, private_lines) * LINE
            append((0, STORE if random() < 0.4 else LOAD, addr, True))
        shuffle(getrandbits, ops)
        return ops

    # -- thread construction ---------------------------------------------------

    def thread_for(self, node: int, cpu: int) -> Optional[WorkloadThread]:
        if node >= self.num_nodes or cpu >= self.cpus_per_node:
            return None
        return WorkloadThread(
            chain.from_iterable(self._transactions(node, cpu)),
            ilp=self.ilp, name=f"oltp-n{node}c{cpu}")

    def _transactions(self, node: int,
                      cpu: int) -> Iterator[Sequence[WorkItem]]:
        """CPU (*node*, *cpu*)'s stream, one sequence of items per
        transaction (the warm-up sentinel comes on its own)."""
        from ..core.cpu import WARMUP_DONE

        p = self.params
        t = self._tables()
        rng = substream(p.seed, "oltp", node, cpu)
        random = rng.random
        code_run = t.code.run
        global_cpu = node * self.cpus_per_node + cpu
        block_cursors = {}
        for txn in range(p.transactions + p.warmup_transactions):
            if txn == p.warmup_transactions:
                yield ((0, None, WARMUP_DONE, True),)
            slot = global_cpu * p.processes_per_cpu + txn % p.processes_per_cpu
            items: List[WorkItem] = []
            for _ in range(p.code_runs_per_txn):
                items += code_run(random())
            num_code = len(items)
            items += self._data_ops(t, rng, slot, txn, node)
            yield t.interleave(num_code, len(items) - num_code)(items)
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
                yield [(2, LOAD,
                        self.account.base
                        + (cursor + i) % p.account_lines * LINE, False)
                       for i in range(p.block_io_lines_per_txn)]
                block_cursors[slot] = (
                    cursor + p.block_io_lines_per_txn) % p.account_lines


class _FixedTables:
    """The parts of an OLTP workload's stream that draw nothing from a
    thread's random substream, built once per workload and shared by all
    its threads: the code walk, the zipf CDFs, address tables (a zipf
    table has one extra entry, repeating the last, for a bisect past the
    end of its CDF) and the interleave orders."""

    def __init__(self, wl: OltpWorkload) -> None:
        p = wl.params
        self.code = CodeWalk(wl.code, alpha=p.code_zipf,
                             run_lines=p.code_run_lines)
        self.meta_cdf = ZipfSampler(p.metadata_lines, p.metadata_zipf).cdf
        self.meta_addr = [wl.metadata.base + line * LINE
                          for line in range(p.metadata_lines)]
        self.meta_addr.append(self.meta_addr[-1])
        # account and index blocks share one zipf; account ranks are
        # scattered over the physical blocks
        num_blocks = p.account_lines // p.account_block_lines
        self.block_cdf = ZipfSampler(num_blocks, p.account_block_zipf).cdf
        perm = list(range(num_blocks))
        shuffle(substream(p.seed, "account-block-perm").getrandbits, perm)
        perm.append(perm[-1])
        self.account_block_line = [block * p.account_block_lines
                                   for block in perm]
        index_blocks = p.index_lines // p.account_block_lines
        self.index_block_line = [rank % index_blocks * p.account_block_lines
                                 for rank in range(num_blocks)]
        self.index_block_line.append(self.index_block_line[-1])
        # hot rows: each row's (load, store) item pair
        self.branch_all = self._row_items(wl.branch, range(p.branches),
                                          wl.row_stride)
        self.teller_all = self._row_items(wl.teller, range(p.tellers),
                                          wl.teller_stride)
        self.branch_local = [
            self._row_items(wl.branch, wl._local_rows(
                wl.branch, p.branches, wl.row_stride, n), wl.row_stride)
            for n in range(wl.num_nodes)]
        self.teller_local = [
            self._row_items(wl.teller, wl._local_rows(
                wl.teller, p.tellers, wl.teller_stride, n), wl.teller_stride)
            for n in range(wl.num_nodes)]
        self.data_per_code_line = p.data_per_code_line
        self._orders: Dict[Tuple[int, int], Callable] = {}

    @staticmethod
    def _row_items(region: Region, rows, stride: int) -> List[tuple]:
        pairs = []
        for row in rows:
            addr = region.line_addr(row * stride)
            pairs.append(((0, LOAD, addr, True), (0, STORE, addr, True)))
        return pairs

    def interleave(self, num_code: int, num_data: int) -> Callable:
        """A getter taking ``code_items + data_items`` to the woven
        transaction (a tuple: every transaction has data items, so the
        getter always has two or more indices)."""
        key = (num_code, num_data)
        getter = self._orders.get(key)
        if getter is None:
            getter = self._orders[key] = itemgetter(*interleave_order(
                num_code, num_data, self.data_per_code_line))
        return getter
