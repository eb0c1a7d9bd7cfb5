"""Shared second-level cache bank and intra-chip coherence (Section 2.3).

Piranha's 1 MB L2 is physically partitioned into eight banks interleaved on
the low-order line-address bits, each with its own controller, duplicate L1
tag store, and private memory controller.  The controllers are the
serialisation point for intra-chip coherence: on every access the L2 tags
and the duplicate L1 tags are checked in parallel, giving the controller
complete and exact information about all on-chip copies of the lines that
map to it — a full-map, centralised, directory-style scheme.

Non-inclusion ("victim cache" behaviour) is the headline policy:

* L1 misses that also miss in the L2 are filled **directly from memory
  without allocating in the L2**;
* the L2 is filled only by L1 replacements — even *clean* L1 victims are
  written back when their L1 holds the line's **ownership**;
* ownership lives in the duplicate tags: the owner is the L2 (valid copy),
  an exclusive L1, or one of the sharing L1s (the last requester), and
  only the owner's replacement triggers a write-back, giving near-optimal
  replacement without extra tag-lookup cycles on the L2 hit path.

Replacement within an L2 set is least-recently-*loaded* (round-robin) when
no invalid way exists — note: not least-recently-used; hits do not refresh
a line's replacement age.

For multi-node systems the bank cooperates with the protocol engines: it
partially interprets directory information (cached "remote mode" hints) to
avoid engine involvement for the majority of local requests, keeps a
pending entry per in-flight line to block conflicting requests, and keeps
written-back lines valid in a write-back buffer until the home acks (the
protocol's no-NAK guarantee).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..mem.addr import LINE_SHIFT, line_addr
from ..sim.engine import Component, Simulator, ns
from .config import ChipConfig
from .directory import DirectoryEntry, DirState
from .dup_tags import L2_OWNER, DuplicateTags
from .l1 import Eviction, L1Cache
from .messages import (
    MESI,
    AccessKind,
    CacheId,
    MemRequest,
    ReplySource,
    RequestType,
)


@dataclass
class L2Line:
    """One L2-resident line."""

    tag: int
    dirty: bool = False
    version: int = 0


@dataclass
class PendingEntry:
    """In-flight transaction for one line; conflicting requests queue here
    (Section 2.3: 'the L2 keeps a request pending entry which is used to
    block conflicting requests for the duration of the original
    transaction')."""

    line: int
    waiters: deque = field(default_factory=deque)
    #: forwarded requests that arrived before our own data (the
    #: early-forward race of Section 2.5.3) park here, as
    #: (invalidate, callback, TSRF entry, probe-or-None)
    deferred_fetches: List[Tuple[bool, Callable, object, object]] = field(
        default_factory=list)
    #: deferred home-engine lookups (home-side serialisation), as
    #: :meth:`L2Bank.service_home_lookup` argument tuples
    deferred_lookups: List[tuple] = field(default_factory=list)


class L2Bank(Component):
    """One of the eight L2 banks plus its controller."""

    def __init__(self, sim: Simulator, name: str, chip, bank_idx: int,
                 config: ChipConfig) -> None:
        super().__init__(sim, name)
        self.chip = chip
        self.bank_idx = bank_idx
        self.config = config
        p = config.l2
        #: ablation switch: True enforces a conventional inclusive L2
        #: (fills allocate in the L2; an L2 eviction invalidates the L1
        #: copies).  Piranha's design point is False (Section 2.3).
        self.inclusive = p.inclusive
        self.assoc = p.assoc
        self.num_sets = p.sets_per_bank
        self._set_mask = self.num_sets - 1
        self._bank_mask = p.banks - 1
        self._bank_shift = LINE_SHIFT
        self._nbank_bits = self._bank_mask.bit_length()
        # Per-set OrderedDict tag -> L2Line in *load* order (replacement is
        # least-recently-loaded; lookups do not reorder).
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.dup = DuplicateTags(bank_idx)
        self.pending: Dict[int, PendingEntry] = {}
        self.pending_limit = p.pending_entries
        self.overflow: deque = deque()  # requests stalled on a full pending table
        #: write-back buffer: line -> version (valid until home acks)
        self.wb_buffer: Dict[int, int] = {}
        #: lines whose pending entry is held by a home-engine transaction
        self._engine_holds: Set[int] = set()
        #: home-side lines whose freshest data is in flight (a sharing
        #: write-back from the old owner): the pending hold must not be
        #: released until the write-back lands, or a subsequent request
        #: would be served from the stale memory image
        self._sharing_wb_due: Set[int] = set()
        #: home-side lines with an eager local exclusive grant whose
        #: background invalidation campaign has not written the directory
        #: yet: a grant interleaved before that write would be clobbered
        #: by the campaign's stale directory update
        self._local_inval_due: Set[int] = set()
        #: partial directory interpretation (Section 2.3):
        #: - our privilege on cached remote-home lines ('S' or 'E')
        self.our_mode: Dict[int, str] = {}
        #: - "remote sharers exist" hint for on-chip local-home lines
        self.remote_cached: Set[int] = set()

        lat = config.lat
        self.t_tag = ns(lat.l2_tag)
        self.t_data = ns(lat.l2_data)
        self.t_owner = ns(lat.owner_l1)
        self.t_ics = ns(lat.ics)

        s = self.stats
        self.c_requests = s.counter("requests")
        self.c_hits = s.counter("l2_hits")
        self.c_fwds = s.counter("l2_fwds")
        self.c_local_mem = s.counter("local_mem")
        self.c_remote_mem = s.counter("remote_mem")
        self.c_remote_dirty = s.counter("remote_dirty")
        self.c_upgrades = s.counter("upgrade_grants")
        self.c_l1_wb_owner = s.counter("l1_owner_writebacks")
        self.c_l1_evict_clean = s.counter("l1_nonowner_evictions")
        self.c_l2_evictions = s.counter("l2_evictions")
        self.c_l2_dirty_evictions = s.counter("l2_dirty_evictions")
        self.c_conflicts = s.counter("pending_conflicts")
        self.c_wh64_data_avoided = s.counter("wh64_data_fetch_avoided")

    # -- geometry ----------------------------------------------------------

    def _set_of(self, line: int) -> int:
        return ((line >> LINE_SHIFT) >> self._nbank_bits) & self._set_mask

    def _bank_bits(self) -> int:
        return self._nbank_bits

    def _l2_line(self, line: int) -> Optional[L2Line]:
        return self.sets[self._set_of(line)].get(line >> LINE_SHIFT)

    # -----------------------------------------------------------------------
    # CPU/L1 request path (arrives here after L1-miss-detect + ICS charge)
    # -----------------------------------------------------------------------

    def request(self, req: MemRequest, reqtype: RequestType) -> None:
        """Handle one L1 miss / upgrade for a line mapping to this bank."""
        line = line_addr(req.addr)
        self.c_requests.inc()
        if req.probe is not None:
            # re-stamped on every arrival, so conflict-serialisation wait
            # (pending-entry queueing) is attributed to the bank hop
            req.probe.stamp("bank", self.now)
        entry = self.pending.get(line)
        if entry is not None:
            self.c_conflicts.inc()
            entry.waiters.append((req, reqtype))
            return
        if len(self.pending) >= self.pending_limit:
            self.overflow.append((req, reqtype))
            return
        self.pending[line] = PendingEntry(line)
        # The L2 tag and duplicate L1 tag lookup happen in parallel.
        self.schedule(self.t_tag, self._after_tag_lookup, req, reqtype, line)

    def _after_tag_lookup(self, req: MemRequest, reqtype: RequestType,
                          line: int) -> None:
        if req.probe is not None:
            req.probe.stamp("l2_tag", self.now)
        cache_id = CacheId.encode(req.cpu_id, req.is_instr)
        l1_owner = self.dup.l1_owner(line)
        if l1_owner is not None and l1_owner != cache_id:
            self._serve_fwd(req, reqtype, line, l1_owner)
            return
        if cache_id in self.dup.sharers(line):
            # The requester's own L1 already holds the line — a non-blocking
            # core can have queued this request behind an earlier miss to
            # the same line that has since filled.
            own = self.chip.l1_by_id(cache_id).peek(line)
            if own is not None:
                if reqtype == RequestType.READ:
                    # Complete from the local copy (hit-equivalent).
                    self.schedule(self.t_ics, self._fill, req, line,
                                  own.state, own.owner, own.version,
                                  own.dirty, ReplySource.L2_HIT)
                    return
                # Exclusive-class requests become upgrades — exactly what
                # the protocol's dedicated 'exclusive' request type is for.
                self._serve_upgrade(req, line, cache_id)
                return
        l2line = self._l2_line(line)
        if l2line is not None:
            self._serve_l2_hit(req, reqtype, line, l2line)
            return
        # A line in the write-back buffer is NOT served locally: the buffer
        # exists solely to satisfy *forwarded* requests until the home acks
        # (no-NAK guarantee).  A local re-reference goes back to the home,
        # which orders it against the in-flight write-back.
        if reqtype == RequestType.EXCLUSIVE:
            # The S copy vanished between the L1 lookup and now (conflict
            # resolution); fall back to a full read-exclusive.
            reqtype = RequestType.READ_EXCLUSIVE
        self._serve_miss(req, reqtype, line)

    # -- on-chip service paths ---------------------------------------------

    def _serve_upgrade(self, req: MemRequest, line: int, cache_id: int) -> None:
        """Exclusive-upgrade grant to a CPU that already holds the line:
        a control-only reply (no data crosses the ICS)."""
        delay = self.t_ics  # grant message back to the L1
        self.schedule(delay, self._finish_upgrade, req, line, cache_id)

    def _finish_upgrade(self, req: MemRequest, line: int, cache_id: int) -> None:
        own_line = self.chip.l1_by_id(cache_id).peek(line)
        if own_line is None:
            # The requester's copy was invalidated between the duplicate-
            # tag lookup and the grant (a racing exclusive swept it): the
            # upgrade degenerates into a full read-exclusive.
            self._serve_miss(req, RequestType.READ_EXCLUSIVE, line)
            return
        if self._must_wait_for_home(line):
            self._launch_remote_request(req, RequestType.EXCLUSIVE, line)
            return
        self.c_upgrades.inc()
        version = own_line.version
        self._fill(req, line, MESI.MODIFIED, owner=True, version=version + 1,
                   dirty=True, source=ReplySource.L2_HIT)
        self._invalidate_remote_sharers_if_home(line, version + 1, req.cpu_id)

    def _serve_fwd(self, req: MemRequest, reqtype: RequestType, line: int,
                   owner_id: int) -> None:
        """Another on-chip L1 owns the line: forward and serve L1-to-L1."""
        delay = self.t_ics + self.t_owner + self.t_ics
        if req.probe is not None:
            req.probe.stamp("fwd_owner", self.now + self.t_ics + self.t_owner)
        self.schedule(delay, self._finish_fwd, req, reqtype, line, owner_id)

    def _finish_fwd(self, req: MemRequest, reqtype: RequestType, line: int,
                    owner_id: int) -> None:
        owner_l1 = self.chip.l1_by_id(owner_id)
        owner_line = owner_l1.peek(line)
        if owner_line is None:
            # Owner evicted while we were in flight (its eviction is queued
            # behind our pending entry only for *its* bank); retry the tag
            # lookup — the dup tags have been updated meanwhile.
            self.schedule(self.t_tag, self._after_tag_lookup, req, reqtype, line)
            return
        self.c_fwds.inc()
        version = owner_line.version
        dirty = owner_line.dirty
        if reqtype == RequestType.READ:
            owner_l1.downgrade(line)
            owner_l1.set_owner(line, False)
            if self.chip.checker is not None:
                self.chip.checker.on_downgrade(self.chip.node_id, owner_id, line)
            # dirtiness travels with ownership
            owner_line.dirty = False
            self.dup.set_state(line, owner_id, MESI.SHARED)
            e = self.dup.entry(line)
            if e is not None:
                e.owner = None
            self._fill(req, line, MESI.SHARED, owner=True, version=version,
                       dirty=dirty, source=ReplySource.L2_FWD)
        else:
            if self._must_wait_for_home(line):
                self._launch_remote_request(req, RequestType.EXCLUSIVE, line)
                return
            self._fill(req, line, MESI.MODIFIED, owner=True,
                       version=version + 1, dirty=True,
                       source=ReplySource.L2_FWD)
            self._invalidate_remote_sharers_if_home(line, version + 1, req.cpu_id)

    def _serve_l2_hit(self, req: MemRequest, reqtype: RequestType, line: int,
                      l2line: L2Line) -> None:
        delay = self.t_data + self.t_ics
        if req.probe is not None:
            # the whole delay is charged in one event, so stamp the data
            # array completion at its computed (future) time
            req.probe.stamp("l2_data", self.now + self.t_data)
        self.schedule(delay, self._finish_l2_hit, req, reqtype, line, l2line)

    def _finish_l2_hit(self, req: MemRequest, reqtype: RequestType, line: int,
                       l2line: L2Line) -> None:
        self.c_hits.inc()
        version = l2line.version
        sharers = self.dup.sharers(line)
        cache_id = CacheId.encode(req.cpu_id, req.is_instr)
        others = sharers - {cache_id}
        if reqtype == RequestType.READ:
            can_be_exclusive = (
                not others
                and line not in self.remote_cached
                and self.our_mode.get(line) != "S"
            )
            if can_be_exclusive:
                # Clean-exclusive optimisation: hand the only copy to the
                # L1; the L2 copy is invalidated so a silent E->M upgrade
                # cannot leave it stale.  (Inclusive mode keeps the copy;
                # the duplicate-tag owner pointer covers staleness.)
                if not self.inclusive:
                    self._drop_l2_copy(line, l2line)
                self._fill(req, line, MESI.EXCLUSIVE, owner=True,
                           version=version, dirty=l2line.dirty,
                           source=ReplySource.L2_HIT)
            else:
                self.dup.set_l2_owner(line)
                self._fill(req, line, MESI.SHARED, owner=False,
                           version=version, dirty=False,
                           source=ReplySource.L2_HIT)
        else:
            if self._must_wait_for_home(line):
                self._launch_remote_request(req, RequestType.EXCLUSIVE, line)
                return
            self._fill(req, line, MESI.MODIFIED, owner=True,
                       version=version + 1, dirty=True,
                       source=ReplySource.L2_HIT)
            self._invalidate_remote_sharers_if_home(line, version + 1, req.cpu_id)

    # -- miss path -----------------------------------------------------------

    def _serve_miss(self, req: MemRequest, reqtype: RequestType, line: int) -> None:
        if self.chip.is_home(line):
            mc = self.chip.mc_for_bank(self.bank_idx)
            wants_data = reqtype != RequestType.EXCLUSIVE_NO_DATA
            if not wants_data and self.chip.num_nodes == 1:
                # Single node: no directory exists; grant straight away.
                self.c_wh64_data_avoided.inc()
                self.schedule(self.t_ics, self._finish_local_mem, req, reqtype,
                              line, 0, True)
                return
            if not wants_data:
                self.c_wh64_data_avoided.inc()
            res = mc.read_line(line, probe=req.probe)  # data + in-ECC directory
            self.schedule(res.critical_word_ps + self.t_ics,
                          self._finish_local_mem, req, reqtype, line,
                          res.critical_word_ps, False)
        else:
            self._launch_remote_request(req, reqtype, line)

    def _finish_local_mem(self, req: MemRequest, reqtype: RequestType,
                          line: int, mem_ps: int, skipped_dir: bool) -> None:
        if self.chip.num_nodes == 1 or skipped_dir:
            direntry = DirectoryEntry.uncached()
        else:
            direntry = self.chip.dirstore.read(line)
        version = self.chip.mem_version(line)
        if reqtype == RequestType.READ:
            if direntry.state == DirState.EXCLUSIVE:
                # 3-hop: a remote node owns the line dirty.
                self._hand_to_home_engine_fetch(req, reqtype, line, direntry)
                return
            self.c_local_mem.inc()
            if direntry.state == DirState.UNCACHED:
                self._fill(req, line, MESI.EXCLUSIVE, owner=True,
                           version=version, dirty=False,
                           source=ReplySource.LOCAL_MEM)
            else:
                self.remote_cached.add(line)
                self._fill(req, line, MESI.SHARED, owner=True,
                           version=version, dirty=False,
                           source=ReplySource.LOCAL_MEM)
        else:
            if direntry.state == DirState.EXCLUSIVE:
                self._hand_to_home_engine_fetch(req, reqtype, line, direntry)
                return
            self.c_local_mem.inc()
            needs_invals = direntry.state in (DirState.SHARED, DirState.SHARED_COARSE)
            if needs_invals:
                # The background campaign below must write the directory
                # before any other home-side transaction for the line runs
                # (its sharer snapshot is only valid under serialisation).
                self._local_inval_due.add(line)
            self._fill(req, line, MESI.MODIFIED, owner=True,
                       version=version + 1, dirty=True,
                       source=ReplySource.LOCAL_MEM)
            if needs_invals:
                # Eager exclusive grant; the home engine drives the remote
                # invalidations and gathers the acks in the background.
                # (no probe: the campaign runs after the eager grant
                # completed the miss, off its critical path)
                self.chip.home_engine.deliver_local(
                    "NEW_LOCAL_INVAL", line,
                    req_node=self.chip.node_id, is_local=True,
                    sharers=sorted(direntry.sharers - {self.chip.node_id}),
                    dir_entry=direntry, req_cpu=req.cpu_id,
                    version=version,  # epoch: sharers hold <= this version
                )

    def _hand_to_home_engine_fetch(self, req: MemRequest, reqtype: RequestType,
                                   line: int, direntry: DirectoryEntry) -> None:
        """Local request, directory says a remote node owns the line dirty:
        the home engine forwards on our behalf (3-hop) and answers with
        :meth:`home_fetch_fill`."""
        self.chip.home_engine.deliver_local(
            "NEW_LOCAL_FETCH", line,
            req_node=self.chip.node_id, is_local=True, owner=direntry.owner,
            fetch_excl=reqtype != RequestType.READ, dir_entry=direntry,
            req=req, req_cpu=req.cpu_id, probe=req.probe,
        )

    def home_fetch_fill(self, entry, version: int, state: MESI) -> None:
        """The home engine's 3-hop fetch for a local request returned the
        owner's data; the request rides in the TSRF *entry*."""
        req = entry.vars["req"]
        line = entry.addr
        self.c_remote_dirty.inc()
        if state == MESI.MODIFIED:
            self._fill(req, line, MESI.MODIFIED, owner=True,
                       version=version + 1, dirty=True,
                       source=ReplySource.REMOTE_DIRTY)
        else:
            self.remote_cached.add(line)
            self._fill(req, line, MESI.SHARED, owner=True,
                       version=version, dirty=False,
                       source=ReplySource.REMOTE_DIRTY)

    # -- remote home ----------------------------------------------------------

    def _launch_remote_request(self, req: MemRequest, reqtype: RequestType,
                               line: int) -> None:
        from ..interconnect.packets import PacketType

        ptype = {
            RequestType.READ: PacketType.READ,
            RequestType.READ_EXCLUSIVE: PacketType.READ_EXCLUSIVE,
            RequestType.EXCLUSIVE: PacketType.EXCLUSIVE,
            RequestType.EXCLUSIVE_NO_DATA: PacketType.EXCLUSIVE_NO_DATA,
        }[reqtype]
        kind = "NEW_READ" if reqtype == RequestType.READ else "NEW_READX"
        self.chip.remote_engine.deliver_local(
            kind, line, req_ptype=ptype, req=req, reqtype=reqtype,
            req_node=self.chip.node_id, req_cpu=req.cpu_id, probe=req.probe,
        )

    def remote_reply_fill(self, entry, state: str, version: int,
                          three_hop: bool) -> None:
        """The remote engine received the home's reply (*state* "S", "E"
        or "M"); the request and its type ride in the TSRF *entry*."""
        req = entry.vars["req"]
        line = entry.addr
        if state == "S":
            self.our_mode[line] = "S"
            src = (ReplySource.REMOTE_DIRTY if three_hop
                   else ReplySource.REMOTE_MEM)
            (self.c_remote_dirty if three_hop else self.c_remote_mem).inc()
            self._fill(req, line, MESI.SHARED, owner=True,
                       version=version, dirty=False, source=src)
        elif state == "E":
            self.our_mode[line] = "E"
            self.c_remote_mem.inc()
            self._fill(req, line, MESI.EXCLUSIVE, owner=True,
                       version=version, dirty=False,
                       source=ReplySource.REMOTE_MEM)
        else:  # "M"
            self.our_mode[line] = "E"
            src = (ReplySource.REMOTE_DIRTY if three_hop
                   else ReplySource.REMOTE_MEM)
            (self.c_remote_dirty if three_hop else self.c_remote_mem).inc()
            if entry.vars["reqtype"] == RequestType.EXCLUSIVE:
                # An upgrade grant carries no data: the write builds on
                # our own cached copy, which may be fresher than the
                # home's version token.
                version = max(version, self._onchip_version(line))
            self._fill(req, line, MESI.MODIFIED, owner=True,
                       version=version + 1, dirty=True, source=src)

    def _must_wait_for_home(self, line: int) -> bool:
        """A remote-home line held only SHARED cannot be upgraded locally:
        the exclusive grant must come from the home, which serialises all
        writers.  (The paper's *eager exclusive replies* are about granting
        before invalidation acks return — the grant itself always flows
        through the home.)"""
        if self.chip.num_nodes == 1 or self.chip.is_home(line):
            return False
        return self.our_mode.get(line) == "S"

    def _invalidate_remote_sharers_if_home(self, line: int,
                                           granted_version: int,
                                           req_cpu: int = 0) -> None:
        """Home-local eager exclusive grant: drive the remote invalidations
        through the home engine (which re-reads the directory and gathers
        the acks).  Sound because the bank's pending entry serialises this
        line at the home for the duration of the grant."""
        if self.chip.num_nodes == 1 or not self.chip.is_home(line):
            return
        if line not in self.remote_cached:
            return
        self.remote_cached.discard(line)
        # Hold the line at the home until the campaign's directory write:
        # an interleaved grant would otherwise be clobbered by it.  The
        # grant's own pending entry has already resolved, so re-create one
        # to carry the hold.
        self._local_inval_due.add(line)
        if line not in self.pending:
            self.pending[line] = PendingEntry(line)
        self.chip.home_engine.deliver_local(
            "NEW_LOCAL_INVAL", line,
            req_node=self.chip.node_id, is_local=True,
            sharers=None, dir_entry=None, req_cpu=req_cpu,
            version=granted_version - 1,  # epoch: kill copies <= pre-grant
        )

    # -----------------------------------------------------------------------
    # Fill + completion
    # -----------------------------------------------------------------------

    def _allocate_if_inclusive(self, line: int, version: int) -> None:
        """Inclusive-mode ablation: memory fills also allocate in the L2
        (exactly what Piranha's no-inclusion policy avoids)."""
        if self.inclusive:
            self._victim_fill(line, version, dirty=False)

    def _fill(self, req: MemRequest, line: int, state: MESI, owner: bool,
              version: int, dirty: bool, source: ReplySource) -> None:
        if source in (ReplySource.LOCAL_MEM, ReplySource.REMOTE_MEM,
                      ReplySource.REMOTE_DIRTY):
            self._allocate_if_inclusive(line, version)
        cache_id_req = CacheId.encode(req.cpu_id, req.is_instr)
        if state in (MESI.EXCLUSIVE, MESI.MODIFIED):
            # Single-writer invariant: an exclusive grant sweeps every
            # other on-chip copy (ICS ordering makes this ack-free).
            self._invalidate_on_chip(line, except_cache=cache_id_req)
            if not self.inclusive:
                self._drop_l2_copy(line, self._l2_line(line))
            # (inclusive mode keeps the L2 copy at its old version; the
            # dup tags' owner pointer routes reads to the fresh L1 copy,
            # and eviction recovers the freshest version from the L1s)
        l1 = self.chip.l1_of(req.cpu_id, req.is_instr)
        evicted = l1.fill(line, state, owner=owner, version=version, dirty=dirty)
        cache_id = CacheId.encode(req.cpu_id, req.is_instr)
        self.dup.add_sharer(line, cache_id, state, make_owner=owner)
        if self.chip.checker is not None:
            self.chip.checker.on_fill(self.chip.node_id, cache_id, line,
                                      state, version)
        if req.probe is not None:
            req.probe.stamp("fill", self.now)
        req.complete(self.now, source)
        if evicted is not None:
            self.chip.route_l1_eviction(cache_id, evicted)
        self._resolve_pending(line)

    def _resolve_pending(self, line: int) -> None:
        if line in self._sharing_wb_due or line in self._local_inval_due:
            # The old owner's sharing write-back has not reached the home
            # yet (memory and the inval epoch derived from it are stale),
            # or an eager local grant's invalidation campaign has not
            # written the directory yet: the line stays serialised until
            # the home's view is consistent again.
            return
        entry = self.pending.pop(line, None)
        self._engine_holds.discard(line)
        if entry is None:
            return
        for inval, fetch_cb, fetch_entry, fetch_probe in entry.deferred_fetches:
            self._do_fetch_for_fwd(line, inval, fetch_cb, fetch_entry,
                                   fetch_probe)
        for lookup_args in entry.deferred_lookups:
            self.schedule(0, self.service_home_lookup, *lookup_args)
        for waiter_req, waiter_type in entry.waiters:
            self.schedule(0, self.request, waiter_req, waiter_type)
        while self.overflow and len(self.pending) < self.pending_limit:
            next_req, next_type = self.overflow.popleft()
            self.schedule(0, self.request, next_req, next_type)

    # -----------------------------------------------------------------------
    # Functional warming (fast-forward mode)
    # -----------------------------------------------------------------------

    def warm_request(self, cpu_id: int, is_instr: bool,
                     reqtype: RequestType, line: int) -> Optional[ReplySource]:
        """Serve one L1 miss synchronously: same state mutations as the
        event path (L1 fill, duplicate tags, victim-cache flow, DRAM page
        state, checker hooks, counters), zero simulated time, zero events.

        Fast-forward phases use this to keep the memory hierarchy warm
        between detailed measurement windows.  Returns the
        :class:`ReplySource` the detailed path would have charged, or
        ``None`` when the access is not warm-eligible — a line still
        in flight from a previous window, or a multi-node access that
        would need a protocol-engine transaction (remote home, remote
        sharers, or an upgrade the home must serialise).  Declined
        accesses leave all state untouched; the caller advances its
        stream statistically instead.
        """
        if line in self.pending or line in self.wb_buffer:
            return None
        chip = self.chip
        multi = chip.num_nodes > 1
        cache_id = cpu_id * 2 + (1 if is_instr else 0)
        exclusive = reqtype != RequestType.READ
        if exclusive and self._must_wait_for_home(line):
            return None
        if (exclusive and multi and chip.is_home(line)
                and line in self.remote_cached):
            # an eager exclusive grant here would have to drive a remote
            # invalidation campaign through the home engine
            return None
        dup_e = self.dup.entries.get(line)
        l1_owner = dup_e.owner if dup_e is not None else None
        if l1_owner == L2_OWNER:
            l1_owner = None
        if l1_owner is not None and l1_owner != cache_id:
            owner_l1 = chip.l1_by_id(l1_owner)
            owner_line = owner_l1.peek(line)
            if owner_line is None:
                return None
            self.c_requests.inc()
            self.c_fwds.inc()
            version = owner_line.version
            dirty = owner_line.dirty
            if reqtype == RequestType.READ:
                owner_l1.downgrade(line)
                owner_l1.set_owner(line, False)
                if chip.checker is not None:
                    chip.checker.on_downgrade(chip.node_id, l1_owner, line)
                # dirtiness travels with ownership (see _finish_fwd)
                owner_line.dirty = False
                if l1_owner in dup_e.sharers:
                    dup_e.states[l1_owner] = MESI.SHARED
                dup_e.owner = None
                self._warm_fill(cache_id, line, MESI.SHARED, True,
                                version, dirty, ReplySource.L2_FWD)
            else:
                self._warm_fill(cache_id, line, MESI.MODIFIED, True,
                                version + 1, True, ReplySource.L2_FWD)
            return ReplySource.L2_FWD
        if dup_e is not None and cache_id in dup_e.sharers:
            own = chip.l1_by_id(cache_id).peek(line)
            if own is not None:
                self.c_requests.inc()
                if reqtype == RequestType.READ:
                    self._warm_fill(cache_id, line, own.state,
                                    own.owner, own.version, own.dirty,
                                    ReplySource.L2_HIT)
                else:
                    self.c_upgrades.inc()
                    self._warm_fill(cache_id, line, MESI.MODIFIED,
                                    True, own.version + 1, True,
                                    ReplySource.L2_HIT)
                return ReplySource.L2_HIT
        l2line = self.sets[
            ((line >> LINE_SHIFT) >> self._nbank_bits) & self._set_mask
        ].get(line >> LINE_SHIFT)
        if l2line is not None:
            self.c_requests.inc()
            self.c_hits.inc()
            version = l2line.version
            others = (dup_e is not None
                      and bool(dup_e.sharers - {cache_id}))
            if reqtype == RequestType.READ:
                can_be_exclusive = (
                    not others
                    and line not in self.remote_cached
                    and self.our_mode.get(line) != "S"
                )
                if can_be_exclusive:
                    if not self.inclusive:
                        self._drop_l2_copy(line, l2line)
                    self._warm_fill(cache_id, line, MESI.EXCLUSIVE,
                                    True, version, l2line.dirty,
                                    ReplySource.L2_HIT)
                else:
                    self.dup.set_l2_owner(line)
                    self._warm_fill(cache_id, line, MESI.SHARED,
                                    False, version, False,
                                    ReplySource.L2_HIT)
            else:
                self._warm_fill(cache_id, line, MESI.MODIFIED, True,
                                version + 1, True, ReplySource.L2_HIT)
            return ReplySource.L2_HIT
        # L2 miss: only home-local, remotely-uncached lines can be filled
        # without engine involvement.
        if reqtype == RequestType.EXCLUSIVE:
            reqtype = RequestType.READ_EXCLUSIVE
        if multi:
            if not chip.is_home(line):
                return None
            if chip.dirstore.read(line).state != DirState.UNCACHED:
                return None
        self.c_requests.inc()
        wants_data = reqtype != RequestType.EXCLUSIVE_NO_DATA
        if not wants_data:
            self.c_wh64_data_avoided.inc()
        if wants_data or multi:
            chip.mc_for_bank(self.bank_idx).warm_read_line(line)
        version = chip.mem_version(line)
        self.c_local_mem.inc()
        if reqtype == RequestType.READ:
            self._warm_fill(cache_id, line, MESI.EXCLUSIVE, True,
                            version, False, ReplySource.LOCAL_MEM)
        else:
            self._warm_fill(cache_id, line, MESI.MODIFIED, True,
                            version + 1, True, ReplySource.LOCAL_MEM)
        return ReplySource.LOCAL_MEM

    def _warm_fill(self, cache_id: int, line: int, state: MESI,
                   owner: bool, version: int, dirty: bool,
                   source: ReplySource) -> None:
        """:meth:`_fill` minus the event-path plumbing (probe stamps,
        request completion, pending-entry resolution): identical cache /
        duplicate-tag / checker mutations.  L1 evictions route through
        the normal synchronous victim-cache cascade, so warm fills
        exercise the real replacement policy; on multi-node systems that
        cascade may schedule a remote write-back, which the fast-forward
        driver drains before advancing time."""
        chip = self.chip
        if source in (ReplySource.LOCAL_MEM, ReplySource.REMOTE_MEM,
                      ReplySource.REMOTE_DIRTY):
            self._allocate_if_inclusive(line, version)
        if state is MESI.EXCLUSIVE or state is MESI.MODIFIED:
            self._invalidate_on_chip(line, except_cache=cache_id)
            if not self.inclusive:
                self._drop_l2_copy(line, self._l2_line(line))
        l1 = chip.l1_of(cache_id >> 1, bool(cache_id & 1))
        evicted = l1.fill(line, state, owner=owner, version=version,
                          dirty=dirty)
        self.dup.add_sharer(line, cache_id, state, make_owner=owner)
        if chip.checker is not None:
            chip.checker.on_fill(chip.node_id, cache_id, line,
                                 state, version)
        if evicted is not None:
            chip.route_l1_eviction(cache_id, evicted)

    # -----------------------------------------------------------------------
    # L1 replacement handling (victim-cache fill policy)
    # -----------------------------------------------------------------------

    def l1_eviction(self, cache_id: int, ev: Eviction) -> None:
        """An L1 replaced a line that maps to this bank."""
        line = line_addr(ev.addr)
        self.dup.remove_sharer(line, cache_id)
        if self.chip.checker is not None:
            # the holder is gone (its data may live on in the L2)
            self.chip.checker.on_invalidate(self.chip.node_id, cache_id, line)
        if not ev.owner:
            if self.inclusive and ev.dirty:
                self._victim_fill(line, ev.version, True)
            self.c_l1_evict_clean.inc()
            e = self.dup.entry(line)
            if e is None and self._l2_line(line) is None:
                self._line_left_chip(line)
            return
        # Owner replacement: write the line back into the L2 (victim fill)
        # even when clean — this is what makes the L2 a victim cache.
        self.c_l1_wb_owner.inc()
        self._victim_fill(line, ev.version, ev.dirty)
        self.dup.set_l2_owner(line)

    def _victim_fill(self, line: int, version: int, dirty: bool) -> None:
        lset = self.sets[self._set_of(line)]
        tag = line >> LINE_SHIFT
        existing = lset.get(tag)
        if existing is not None:
            existing.version = max(existing.version, version)
            existing.dirty = existing.dirty or dirty
            return
        if len(lset) >= self.assoc:
            victim_tag, victim = lset.popitem(last=False)  # least recently loaded
            self._evict_l2_line(victim_tag << LINE_SHIFT, victim)
        lset[tag] = L2Line(tag=tag, dirty=dirty, version=version)

    def _evict_l2_line(self, vline: int, victim: L2Line) -> None:
        self.c_l2_evictions.inc()
        home_local = self.chip.is_home(vline)
        sharers = self.dup.sharers(vline)
        if self.inclusive and sharers:
            # inclusion enforcement: the L1 copies die with the L2 line —
            # recover the freshest (possibly silently-modified) data first
            for sharer in sharers:
                held = self.chip.l1_by_id(sharer).peek(vline)
                if held is None:
                    continue
                if held.version > victim.version:
                    victim.version = held.version
                    victim.dirty = True
                elif held.dirty:
                    victim.dirty = True
        if sharers and home_local and not self.inclusive:
            # True non-inclusion: the duplicate tags are independent of the
            # L2 tags, so L1 copies survive an L2 eviction.  Ownership (the
            # write-back filter) moves from the L2 to one of the sharing
            # L1s; future misses to this line are L1-to-L1 forwards.
            e = self.dup.entry(vline)
            if e is not None and e.owner == L2_OWNER:
                e.owner = None
            new_owner = self.dup.promote_any_owner(vline)
            if new_owner is not None:
                self.chip.l1_by_id(new_owner).set_owner(vline, True)
            if victim.dirty:
                self.c_l2_dirty_evictions.inc()
                self.chip.mem_write_back(vline, victim.version, self.bank_idx)
            return
        # Remote-home lines keep the conservative rule (invalidate L1
        # sharers) so the home's view of our caching stays simple.
        for sharer in list(sharers):
            l1 = self.chip.l1_by_id(sharer)
            l1.invalidate(vline)
            self.dup.remove_sharer(vline, sharer)
            if self.chip.checker is not None:
                self.chip.checker.on_invalidate(self.chip.node_id, sharer, vline)
        self.dup.drop_line(vline)
        if victim.dirty:
            self.c_l2_dirty_evictions.inc()
            if home_local:
                self.chip.mem_write_back(vline, victim.version, self.bank_idx)
            else:
                self._remote_writeback(vline, victim.version)
        elif not home_local and self.our_mode.get(vline) == "E":
            # Clean but exclusively held: the home must reclaim ownership,
            # otherwise future forwards would find no data anywhere.
            self._remote_writeback(vline, victim.version)
        else:
            self._line_left_chip(vline)

    def _remote_writeback(self, line: int, version: int) -> None:
        self.wb_buffer[line] = version
        self.chip.remote_engine.deliver_local(
            "NEW_WB", line, version=version, req_node=self.chip.node_id,
            sharing=False,
        )

    def release_wb(self, line: int) -> None:
        """Home acknowledged our write-back: drop the buffered copy.  The
        node may have legitimately re-acquired the line meanwhile (e.g. a
        forward serviced from the buffer re-registered us as a sharer), so
        the partial-interpretation hints are only cleared when no on-chip
        copy remains."""
        self.wb_buffer.pop(line, None)
        if not self.dup.sharers(line) and self._l2_line(line) is None:
            self._line_left_chip(line)

    def _line_left_chip(self, line: int) -> None:
        self.our_mode.pop(line, None)
        self.remote_cached.discard(line)

    def _drop_l2_copy(self, line: int, l2line: Optional[L2Line]) -> None:
        if l2line is None:
            return
        lset = self.sets[self._set_of(line)]
        lset.pop(line >> LINE_SHIFT, None)
        e = self.dup.entry(line)
        if e is not None and e.owner == L2_OWNER:
            e.owner = None

    # -----------------------------------------------------------------------
    # On-chip invalidation (no acks needed: ICS ordering, Section 2.3)
    # -----------------------------------------------------------------------

    def _invalidate_on_chip(self, line: int, except_cache: Optional[int]) -> None:
        e = self.dup.entries.get(line)
        if e is None:
            return
        for sharer in list(e.sharers):
            if sharer == except_cache:
                continue
            l1 = self.chip.l1_by_id(sharer)
            l1.invalidate(line)
            self.dup.remove_sharer(line, sharer)
            if self.chip.checker is not None:
                self.chip.checker.on_invalidate(self.chip.node_id, sharer, line)

    # -----------------------------------------------------------------------
    # Services for the protocol engines
    # -----------------------------------------------------------------------

    def service_home_lookup(self, line: int, exclusive: bool, req_node: int,
                            on_done: Callable, entry, probe=None) -> None:
        """Home engine asks: gather the line's data + directory, resolving
        on-chip copies at the home node (downgrading for reads,
        invalidating for exclusive requests).

        ``on_done(entry, kind, version, direntry, no_other_sharers)`` with
        kind in {"clean", "dirty_remote"}; *entry* is the asking TSRF
        entry, passed back untouched.

        Home-side serialisation: if the line has an in-flight transaction
        (a local request or another engine transaction) this lookup defers
        behind it; otherwise it takes the pending entry itself, blocking
        local requests until the engine writes the directory back
        (:meth:`dir_write` releases the hold).
        """
        pend = self.pending.get(line)
        if pend is not None:
            pend.deferred_lookups.append(
                (line, exclusive, req_node, on_done, entry, probe))
            return
        self.pending[line] = PendingEntry(line)
        self._engine_holds.add(line)
        mc = self.chip.mc_for_bank(self.bank_idx)
        res = mc.read_line(line, probe=probe)
        self.schedule(self.t_tag + res.critical_word_ps,
                      self._finish_home_lookup, line, exclusive, on_done,
                      entry)

    def _finish_home_lookup(self, line: int, exclusive: bool,
                            on_done: Callable, entry) -> None:
        direntry = self.chip.dirstore.read(line)
        if direntry.state == DirState.EXCLUSIVE:
            on_done(entry, "dirty_remote", 0, direntry, False)
            return
        # Freshest data may be on-chip (home node's own caches).
        version = self.chip.mem_version(line)
        onchip_sharers = self.dup.sharers(line)
        l1_owner = self.dup.l1_owner(line)
        l2line = self._l2_line(line)
        if l1_owner is not None:
            owner_l1 = self.chip.l1_by_id(l1_owner)
            owner_line = owner_l1.peek(line)
            if owner_line is not None:
                version = max(version, owner_line.version)
        if l2line is not None:
            version = max(version, l2line.version)
        if exclusive:
            self._invalidate_on_chip(line, except_cache=None)
            self._drop_l2_copy(line, l2line)
            self.remote_cached.discard(line)
            no_others = direntry.state == DirState.UNCACHED
        else:
            if l1_owner is not None:
                owner_l1 = self.chip.l1_by_id(l1_owner)
                owner_l1.downgrade(line)
                self.dup.set_state(line, l1_owner, MESI.SHARED)
                if self.chip.checker is not None:
                    self.chip.checker.on_downgrade(self.chip.node_id,
                                                   l1_owner, line)
            if onchip_sharers or l2line is not None:
                self.remote_cached.add(line)
            no_others = (
                direntry.state == DirState.UNCACHED
                and not onchip_sharers
                and l2line is None
            )
            # keep memory fresh: model sharing write-back of on-chip
            # dirty data into memory at the home
            self.chip.set_mem_version(line, version)
        on_done(entry, "clean", version, direntry, no_others)

    def service_fetch_for_fwd(self, line: int, inval: bool,
                              on_done: Callable, entry, probe=None) -> None:
        """Remote engine asks for the data of a remote-home line we own, to
        service a forwarded request.  Guaranteed serviceable: the data is
        in an L1, the L2, or the write-back buffer; if our own fill is
        still in flight the fetch waits on the pending entry (the
        early-forward race).  Answers with ``on_done(entry, version)``."""
        if line in self.wb_buffer:
            # The buffered copy is valid regardless of any pending local
            # request (which may itself be the one this forward services —
            # deferring here would deadlock the pair).
            self._do_fetch_for_fwd(line, inval, on_done, entry, probe)
            return
        pend = self.pending.get(line)
        if pend is not None:
            pend.deferred_fetches.append((inval, on_done, entry, probe))
            return
        self._do_fetch_for_fwd(line, inval, on_done, entry, probe)

    def _do_fetch_for_fwd(self, line: int, inval: bool, on_done: Callable,
                          entry, probe=None) -> None:
        version: Optional[int] = None
        l1_owner = self.dup.l1_owner(line)
        delay = self.t_tag
        if l1_owner is not None:
            owner_line = self.chip.l1_by_id(l1_owner).peek(line)
            if owner_line is not None:
                version = owner_line.version
                delay += self.t_ics + self.t_owner
        if version is None:
            l2line = self._l2_line(line)
            if l2line is not None:
                version = l2line.version
                delay += self.t_data
        if version is None and line in self.wb_buffer:
            version = self.wb_buffer[line]
            delay += self.t_data
        if version is None:
            # Sharers-only copies (clean): any L1 sharer can supply data.
            sharers = self.dup.sharers(line)
            for sharer in sharers:
                sline = self.chip.l1_by_id(sharer).peek(line)
                if sline is not None:
                    version = sline.version
                    delay += self.t_ics + self.t_owner
                    break
        if version is None:
            raise RuntimeError(
                f"{self.name}: forwarded request for {line:#x} found no "
                f"data — the no-NAK guarantee was violated"
            )
        if probe is not None:
            probe.stamp("owner_fetch", self.now + delay)
        if inval:
            self._invalidate_on_chip(line, except_cache=None)
            self._drop_l2_copy(line, self._l2_line(line))
            self._line_left_chip(line)
        else:
            if l1_owner is not None:
                self.chip.l1_by_id(l1_owner).downgrade(line)
                self.dup.set_state(line, l1_owner, MESI.SHARED)
                if self.chip.checker is not None:
                    self.chip.checker.on_downgrade(self.chip.node_id,
                                                   l1_owner, line)
            self.our_mode[line] = "S"
        self.schedule(delay, on_done, entry, version)

    def service_invalidate(self, line: int, on_done: Callable, entry,
                           epoch: Optional[int] = None) -> None:
        """Invalidate every on-chip copy of a remote-home line, then
        answer with ``on_done(entry)``.

        ``epoch`` is the committed version at the home when the
        invalidation was issued: a late invalidation that raced past a
        fresher grant must not kill the newer copy (it is still
        acknowledged)."""
        if epoch is not None and self._onchip_version(line) > epoch:
            self.schedule(self.t_tag + self.t_ics, on_done, entry)
            return
        self._invalidate_on_chip(line, except_cache=None)
        self._drop_l2_copy(line, self._l2_line(line))
        self._line_left_chip(line)
        self.schedule(self.t_tag + self.t_ics, on_done, entry)

    def _onchip_version(self, line: int) -> int:
        best = -1
        l2line = self._l2_line(line)
        if l2line is not None:
            best = l2line.version
        for sharer in self.dup.sharers(line):
            sline = self.chip.l1_by_id(sharer).peek(line)
            if sline is not None and sline.version > best:
                best = sline.version
        return best

    def service_mem_write(self, line: int, version: int, on_done: Callable,
                          entry) -> None:
        """Write back data (+directory) for the home engine, then answer
        with ``on_done(entry)``."""
        mc = self.chip.mc_for_bank(self.bank_idx)
        res = mc.write_line(line)
        self.chip.set_mem_version(line, version)
        self.schedule(res.critical_word_ps, on_done, entry)

    def dir_write(self, line: int, direntry: Optional[DirectoryEntry]) -> None:
        """Fire-and-forget directory update (rides the MC write path).
        Also releases the home-side serialisation hold taken by
        :meth:`service_home_lookup`."""
        if direntry is not None:
            self.chip.dirstore.write(line, direntry)
            mc = self.chip.mc_for_bank(self.bank_idx)
            mc.write_line(line)
        if line in self._engine_holds:
            self._resolve_pending(line)

    def expect_sharing_wb(self, line: int) -> None:
        """The home engine forwarded a dirty read: the owner will downgrade
        and send the data home as a sharing write-back.  Until it arrives
        the memory image is stale, so the line's serialisation hold
        persists (see :meth:`_resolve_pending`)."""
        self._sharing_wb_due.add(line)

    def sharing_wb_arrived(self, line: int) -> None:
        """The sharing write-back landed (memory is fresh again): release
        the serialisation hold and wake anything queued behind it."""
        self._sharing_wb_due.discard(line)
        if line in self.pending:
            self._resolve_pending(line)

    def local_inval_done(self, line: int) -> None:
        """The eager local grant's invalidation campaign has written the
        directory: the home's view is consistent again, release the hold."""
        self._local_inval_due.discard(line)
        if line in self.pending:
            self._resolve_pending(line)

    # -- introspection -------------------------------------------------------

    def resident_lines(self) -> int:
        return sum(len(s) for s in self.sets)

    def resident_line_addrs(self):
        """Iterate the line addresses currently resident in this bank
        (sanitizer audits; no replacement-state side effects)."""
        for lset in self.sets:
            for tag in lset:
                yield tag << LINE_SHIFT

    def resident_line_set(self) -> Set[int]:
        """Set of resident line addresses (for membership tests)."""
        return set(self.resident_line_addrs())

    def miss_breakdown(self) -> Dict[str, int]:
        """L1-miss service decomposition (Figure 6b)."""
        return {
            "l2_hit": self.c_hits.value,
            "l2_fwd": self.c_fwds.value,
            "l2_miss": (self.c_local_mem.value + self.c_remote_mem.value
                        + self.c_remote_dirty.value),
        }
