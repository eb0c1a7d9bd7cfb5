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
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..interconnect.packets import PacketType
from ..mem.addr import LINE_SHIFT
from ..sim.engine import Component, Simulator, ns
from .config import ChipConfig
from .directory import (DIR_EXCLUSIVE, DIR_SHARED, DIR_SHARED_COARSE,
                        DIR_UNCACHED, DirectoryEntry)
from .dup_tags import L2_OWNER, DupEntry, DuplicateTags
from .messages import (
    EXCLUSIVE,
    EXCLUSIVE_NO_DATA,
    L2_FWD,
    L2_HIT,
    LOCAL_MEM,
    MEMORY_SOURCES,
    MESI,
    MODIFIED,
    READ,
    READ_EXCLUSIVE,
    REMOTE_DIRTY,
    REMOTE_MEM,
    SHARED,
    UPGRADE,
    MemRequest,
    ReplySource,
    RequestType,
)
from .rdram import MemoryController

_LINE_MASK = ~((1 << LINE_SHIFT) - 1)

#: the cases of an L1 miss (:meth:`L2Bank._classify`): another L1 owns the
#: line, the requester's own L1 holds it, the L2 holds it, or neither
FORWARD, OWN_COPY, L2_COPY, MEMORY = range(4)

#: the packet type a remote-home request of each kind travels as
_REMOTE_REQUEST_PTYPE = {
    READ: PacketType.READ,
    READ_EXCLUSIVE: PacketType.READ_EXCLUSIVE,
    UPGRADE: PacketType.EXCLUSIVE,
    EXCLUSIVE_NO_DATA: PacketType.EXCLUSIVE_NO_DATA,
}


@dataclass(slots=True)
class L2Line:
    """One L2-resident line."""

    tag: int
    dirty: bool = False
    version: int = 0


class PendingEntry:
    """In-flight transaction for one line; conflicting requests queue here
    (Section 2.3: 'the L2 keeps a request pending entry which is used to
    block conflicting requests for the duration of the original
    transaction').  Most entries never queue anything, so each list is
    created on first use."""

    __slots__ = ("line", "waiters", "deferred_fetches", "deferred_lookups")

    def __init__(self, line: int) -> None:
        self.line = line
        #: conflicting CPU requests, as (request, request type)
        self.waiters: Optional[List[Tuple[MemRequest, RequestType]]] = None
        #: forwarded requests that arrived before our own data (the
        #: early-forward race of Section 2.5.3) park here, as
        #: (invalidate, callback, TSRF entry, probe-or-None)
        self.deferred_fetches: Optional[
            List[Tuple[bool, Callable, object, object]]] = None
        #: deferred home-engine lookups (home-side serialisation), as
        #: :meth:`L2Bank.service_home_lookup` argument tuples
        self.deferred_lookups: Optional[List[tuple]] = None


class L2Bank(Component):
    """One of the eight L2 banks plus its controller."""

    def __init__(self, sim: Simulator, name: str, chip, bank_idx: int,
                 config: ChipConfig, mc: MemoryController) -> None:
        super().__init__(sim, name)
        self.chip = chip
        self.bank_idx = bank_idx
        self.config = config
        #: this bank's private memory controller
        self.mc = mc
        #: one-node system: every line is home-local and no directory or
        #: protocol engine is ever involved.  Fixed when the system is
        #: built (and restored with it), so the request path tests this
        #: flag instead of asking the system per request.
        self._single_node = chip.num_nodes == 1
        p = config.l2
        #: ablation switch: True enforces a conventional inclusive L2
        #: (fills allocate in the L2; an L2 eviction invalidates the L1
        #: copies).  Piranha's design point is False (Section 2.3).
        self.inclusive = p.inclusive
        self.assoc = p.assoc
        self.num_sets = p.sets_per_bank
        self._set_mask = self.num_sets - 1
        self._nbank_bits = (p.banks - 1).bit_length()
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

    def _l2_line(self, line: int) -> Optional[L2Line]:
        return self.sets[self._set_of(line)].get(line >> LINE_SHIFT)

    # -----------------------------------------------------------------------
    # CPU/L1 request path (arrives here after L1-miss-detect + ICS charge)
    # -----------------------------------------------------------------------

    def request(self, req: MemRequest, reqtype: RequestType) -> None:
        """Handle one L1 miss / upgrade for a line mapping to this bank."""
        line = req.addr & _LINE_MASK
        self.c_requests.value += 1
        if req.probe is not None:
            # re-stamped on every arrival, so conflict-serialisation wait
            # (pending-entry queueing) is attributed to the bank hop
            req.probe.stamp("bank", self.sim.now)
        entry = self.pending.get(line)
        if entry is not None:
            self.c_conflicts.inc()
            if entry.waiters is None:
                entry.waiters = []
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
            req.probe.stamp("l2_tag", self.sim.now)
        e = self.dup.entries.get(line)
        tag = line >> LINE_SHIFT
        l2line = self.sets[(tag >> self._nbank_bits) & self._set_mask].get(tag)
        case = self._classify(e, l2line, req.cache_id, line)
        if case == FORWARD:
            # forward to the owning L1 and serve L1-to-L1
            if req.probe is not None:
                req.probe.stamp("fwd_owner",
                                self.sim.now + self.t_ics + self.t_owner)
            self.schedule(self.t_ics + self.t_owner + self.t_ics,
                          self._finish_fwd, req, reqtype, line, e.owner)
        elif case == OWN_COPY:
            if reqtype == READ:
                state, owner, version, dirty, source, _, _, _ = \
                    self._grant_own(self.chip.l1s[req.cache_id].peek(line),
                                    READ, line)
                self.schedule(self.t_ics, self._fill, req, line, state,
                              owner, version, dirty, source)
            else:
                # an upgrade: a control-only grant back to the L1
                self.schedule(self.t_ics, self._finish_upgrade, req, line)
        elif case == L2_COPY:
            if req.probe is not None:
                # the whole delay is charged in one event, so stamp the data
                # array completion at its computed (future) time
                req.probe.stamp("l2_data", self.sim.now + self.t_data)
            self.schedule(self.t_data + self.t_ics, self._finish_l2_hit, req,
                          reqtype, line, l2line)
        else:
            # A line in the write-back buffer is NOT served locally: the
            # buffer exists solely to satisfy *forwarded* requests until the
            # home acks (no-NAK guarantee).  A local re-reference goes back
            # to the home, which orders it against the in-flight write-back.
            if reqtype == UPGRADE:
                # The S copy vanished between the L1 lookup and now
                # (conflict resolution); fall back to a full read-exclusive.
                reqtype = READ_EXCLUSIVE
            self._serve_miss(req, reqtype, line)

    # -- the miss decision (shared with functional warming) -----------------
    #
    # ``_classify`` names the case of a miss; each case has one grant
    # function, which changes nothing and returns the grant as one tuple:
    # (MESI state, owner flag, version, dirty flag, reply source, whether
    # the owning L1 is downgraded, whether the home must order the request,
    # whether the home engine must run an invalidation campaign).  An
    # exclusive grant drops the L2's copy in ``_install``, whoever asks.

    def _classify(self, e: Optional[DupEntry], l2line: Optional[L2Line],
                  cache_id: int, line: int) -> int:
        """The case of a miss of L1 *cache_id* on *line*, from the line's
        duplicate-tag entry *e* and L2 copy *l2line* (None: none)."""
        if e is not None:
            owner = e.owner
            if owner is not None and owner != L2_OWNER and owner != cache_id:
                return FORWARD
            # A non-blocking core can queue a request behind an earlier
            # miss to the same line that has since filled.
            if (cache_id in e.sharers
                    and self.chip.l1s[cache_id].peek(line) is not None):
                return OWN_COPY
        return MEMORY if l2line is None else L2_COPY

    def _grant_write(self, version: int, source: ReplySource,
                     line: int) -> tuple:
        """An exclusive grant on top of an on-chip copy at *version*.

        A remote-home line held only SHARED cannot be upgraded locally: the
        grant must come from the home, which serialises all writers.  (The
        paper's *eager exclusive replies* are about granting before
        invalidation acks return — the grant itself always flows through
        the home.)  A home line other nodes cache is granted at once, and
        the home engine then invalidates the remote copies."""
        home = self._single_node or self.chip.is_home(line)
        return (MODIFIED, True, version + 1, True, source, False,
                not home and self.our_mode.get(line) == "S",
                home and line in self.remote_cached)

    def _grant_fwd(self, owner_line, reqtype: RequestType,
                   line: int) -> tuple:
        """Another L1 owns the line (*owner_line*): serve L1-to-L1."""
        if reqtype == READ:
            # the owner keeps a shared copy and hands over its ownership,
            # and dirtiness travels with ownership
            return (SHARED, True, owner_line.version, owner_line.dirty,
                    L2_FWD, True, False, False)
        return self._grant_write(owner_line.version, L2_FWD, line)

    def _grant_own(self, own, reqtype: RequestType, line: int) -> tuple:
        """The requester's own L1 holds the line (*own*): a read completes
        from it, anything else is an upgrade."""
        if reqtype == READ:
            return (own.state, own.owner, own.version, own.dirty, L2_HIT,
                    False, False, False)
        return self._grant_write(own.version, L2_HIT, line)

    def _grant_l2_hit(self, e: Optional[DupEntry], l2line: L2Line,
                      cache_id: int, reqtype: RequestType,
                      line: int) -> tuple:
        """The L2 holds the line (*l2line*)."""
        if reqtype != READ:
            return self._grant_write(l2line.version, L2_HIT, line)
        if (not self._others_hold(e, cache_id)
                and line not in self.remote_cached
                and self.our_mode.get(line) != "S"):
            # Clean-exclusive optimisation: hand the only copy to the L1;
            # the L2 copy is invalidated so a silent E->M upgrade cannot
            # leave it stale.  (Inclusive mode keeps the copy; the
            # duplicate-tag owner pointer covers staleness.)
            return (EXCLUSIVE, True, l2line.version, l2line.dirty, L2_HIT,
                    False, False, False)
        # a shared copy; the L2 keeps its copy and its ownership
        return (SHARED, False, l2line.version, False, L2_HIT, False, False,
                False)

    def _grant_miss(self, reqtype: RequestType, version: int,
                    direntry: Optional[DirectoryEntry]) -> tuple:
        """Home memory holds the line at *version*; *direntry* is its
        directory entry (None: a one-node system has no directory).  A
        read is exclusive only when no other node caches the line."""
        uncached = direntry is None or direntry.state == DIR_UNCACHED
        if reqtype == READ:
            return (EXCLUSIVE if uncached else SHARED, True, version, False,
                    LOCAL_MEM, False, not uncached, False)
        return (MODIFIED, True, version + 1, True, LOCAL_MEM, False,
                not uncached,
                not uncached and direntry.state in (DIR_SHARED,
                                                    DIR_SHARED_COARSE))

    @staticmethod
    def _others_hold(e: Optional[DupEntry], cache_id: int) -> bool:
        """Does an L1 other than *cache_id* hold the line whose
        duplicate-tag entry is *e* (None: no L1 holds it)?"""
        if e is None:
            return False
        sharers = e.sharers
        return len(sharers) > (1 if cache_id in sharers else 0)

    def _downgrade_owner(self, e: DupEntry, owner_id: int, owner_line,
                         line: int) -> None:
        """A read forward: the owning L1 *owner_id* keeps *owner_line* as
        a clean shared copy without ownership."""
        owner_line.state = SHARED
        owner_line.owner = False
        chip = self.chip
        if chip.checker is not None:
            chip.checker.on_downgrade(chip.node_id, owner_id, line)
        owner_line.dirty = False
        sharers = e.sharers
        if owner_id in sharers:
            sharers[owner_id] = SHARED
        e.owner = None

    # -- on-chip grants (event path) -----------------------------------------

    def _finish_upgrade(self, req: MemRequest, line: int) -> None:
        own_line = self.chip.l1s[req.cache_id].peek(line)
        if own_line is None:
            # The requester's copy was invalidated between the duplicate-
            # tag lookup and the grant (a racing exclusive swept it): the
            # upgrade degenerates into a full read-exclusive.
            self._serve_miss(req, READ_EXCLUSIVE, line)
            return
        state, owner, version, dirty, source, _, home, campaign = \
            self._grant_own(own_line, UPGRADE, line)
        if home:
            self._launch_remote_request(req, UPGRADE, line)
            return
        self.c_upgrades.inc()
        self._fill(req, line, state, owner, version, dirty, source)
        if campaign:
            self._invalidate_remote_sharers(line, version, req.cpu_id)

    def _finish_fwd(self, req: MemRequest, reqtype: RequestType, line: int,
                    owner_id: int) -> None:
        owner_line = self.chip.l1s[owner_id].peek(line)
        if owner_line is None:
            # Owner evicted while we were in flight (its eviction is queued
            # behind our pending entry only for *its* bank); retry the tag
            # lookup — the dup tags have been updated meanwhile.
            self.schedule(self.t_tag, self._after_tag_lookup, req, reqtype, line)
            return
        self.c_fwds.value += 1
        state, owner, version, dirty, source, downgrade, home, campaign = \
            self._grant_fwd(owner_line, reqtype, line)
        if downgrade:
            self._downgrade_owner(self.dup.entries[line], owner_id,
                                  owner_line, line)
        elif home:
            self._launch_remote_request(req, UPGRADE, line)
            return
        self._fill(req, line, state, owner, version, dirty, source)
        if campaign:
            self._invalidate_remote_sharers(line, version, req.cpu_id)

    def _finish_l2_hit(self, req: MemRequest, reqtype: RequestType, line: int,
                       l2line: L2Line) -> None:
        self.c_hits.value += 1
        state, owner, version, dirty, source, _, home, campaign = \
            self._grant_l2_hit(self.dup.entries.get(line), l2line,
                               req.cache_id, reqtype, line)
        if home:
            self._launch_remote_request(req, UPGRADE, line)
            return
        if not owner:
            self.dup.set_l2_owner(line)
        self._fill(req, line, state, owner, version, dirty, source)
        if campaign:
            self._invalidate_remote_sharers(line, version, req.cpu_id)

    # -- miss path -----------------------------------------------------------

    def _serve_miss(self, req: MemRequest, reqtype: RequestType, line: int) -> None:
        if not (self._single_node or self.chip.is_home(line)):
            self._launch_remote_request(req, reqtype, line)
            return
        if reqtype == EXCLUSIVE_NO_DATA:
            self.c_wh64_data_avoided.inc()
            if self._single_node:
                # Single node: no directory exists; grant straight away.
                self.schedule(self.t_ics, self._finish_local_mem, req,
                              reqtype, line)
                return
        res = self.mc.read_line(line, probe=req.probe)  # data + in-ECC directory
        self.schedule(res.critical_word_ps + self.t_ics,
                      self._finish_local_mem, req, reqtype, line)

    def _finish_local_mem(self, req: MemRequest, reqtype: RequestType,
                          line: int) -> None:
        # a one-node system has no directory: no other node caches the line
        direntry = None if self._single_node else self.chip.dirstore.read(line)
        if direntry is not None and direntry.state == DIR_EXCLUSIVE:
            # 3-hop: a remote node owns the line dirty.
            self._hand_to_home_engine_fetch(req, reqtype, line, direntry)
            return
        memory_version = self.chip.mem_version(line)
        self.c_local_mem.value += 1
        state, owner, version, dirty, source, _, _, campaign = \
            self._grant_miss(reqtype, memory_version, direntry)
        if state is SHARED:
            # other nodes share the line
            self.remote_cached.add(line)
        elif campaign:
            # The background campaign below must write the directory
            # before any other home-side transaction for the line runs
            # (its sharer snapshot is only valid under serialisation).
            self._local_inval_due.add(line)
        self._fill(req, line, state, owner, version, dirty, source)
        if campaign:
            # Eager exclusive grant; the home engine drives the remote
            # invalidations and gathers the acks in the background.
            # (no probe: the campaign runs after the eager grant
            # completed the miss, off its critical path)
            self.chip.home_engine.deliver_local(
                "NEW_LOCAL_INVAL", line,
                req_node=self.chip.node_id, is_local=True,
                sharers=sorted(direntry.sharers - {self.chip.node_id}),
                dir_entry=direntry, req_cpu=req.cpu_id,
                # epoch: sharers hold <= this version
                version=memory_version,
            )

    def _hand_to_home_engine_fetch(self, req: MemRequest, reqtype: RequestType,
                                   line: int, direntry: DirectoryEntry) -> None:
        """Local request, directory says a remote node owns the line dirty:
        the home engine forwards on our behalf (3-hop) and answers with
        :meth:`home_fetch_fill`."""
        self.chip.home_engine.deliver_local(
            "NEW_LOCAL_FETCH", line,
            req_node=self.chip.node_id, is_local=True, owner=direntry.owner,
            fetch_excl=reqtype != READ, dir_entry=direntry,
            req=req, req_cpu=req.cpu_id, probe=req.probe,
        )

    def home_fetch_fill(self, entry, version: int, state: MESI) -> None:
        """The home engine's 3-hop fetch for a local request returned the
        owner's data; the request rides in the TSRF *entry*."""
        req = entry.vars["req"]
        line = entry.addr
        self.c_remote_dirty.value += 1
        if state == MODIFIED:
            self._fill(req, line, MODIFIED, owner=True,
                       version=version + 1, dirty=True,
                       source=REMOTE_DIRTY)
        else:
            self.remote_cached.add(line)
            self._fill(req, line, SHARED, owner=True,
                       version=version, dirty=False,
                       source=REMOTE_DIRTY)

    # -- remote home ----------------------------------------------------------

    def _launch_remote_request(self, req: MemRequest, reqtype: RequestType,
                               line: int) -> None:
        ptype = _REMOTE_REQUEST_PTYPE[reqtype]
        kind = "NEW_READ" if reqtype == READ else "NEW_READX"
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
            src = (REMOTE_DIRTY if three_hop
                   else REMOTE_MEM)
            (self.c_remote_dirty if three_hop
             else self.c_remote_mem).value += 1
            self._fill(req, line, SHARED, owner=True,
                       version=version, dirty=False, source=src)
        elif state == "E":
            self.our_mode[line] = "E"
            self.c_remote_mem.value += 1
            self._fill(req, line, EXCLUSIVE, owner=True,
                       version=version, dirty=False,
                       source=REMOTE_MEM)
        else:  # "M"
            self.our_mode[line] = "E"
            src = (REMOTE_DIRTY if three_hop
                   else REMOTE_MEM)
            (self.c_remote_dirty if three_hop
             else self.c_remote_mem).value += 1
            if entry.vars["reqtype"] == UPGRADE:
                # An upgrade grant carries no data: the write builds on
                # our own cached copy, which may be fresher than the
                # home's version token.
                version = max(version, self._onchip_version(line))
            self._fill(req, line, MODIFIED, owner=True,
                       version=version + 1, dirty=True, source=src)

    def _invalidate_remote_sharers(self, line: int, granted_version: int,
                                   req_cpu: int) -> None:
        """Home-local eager exclusive grant of a line other nodes cache:
        drive the remote invalidations through the home engine (which
        re-reads the directory and gathers the acks).  Sound because the
        bank's pending entry serialises this line at the home for the
        duration of the grant."""
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

    def _fill(self, req: MemRequest, line: int, state: MESI, owner: bool,
              version: int, dirty: bool, source: ReplySource) -> None:
        self._install(self.dup.entries.get(line), req.cache_id, line, state,
                      owner, version, dirty, source, req)
        self._resolve_pending(line)

    def _install(self, e: Optional[DupEntry], cache_id: int, line: int,
                 state: MESI, owner: bool, version: int, dirty: bool,
                 source: ReplySource,
                 req: Optional[MemRequest] = None) -> None:
        """Fill *line* into L1 *cache_id*: the L2 and duplicate-tag side,
        the checker hook, then *req*'s completion (detailed fills; a warm
        fill has no request), then the L1 victim.  *e* is the line's
        duplicate-tag entry as the caller found it (None: it has none),
        so a caller that has already looked it up does not look again.

        The victim goes to the bank its address interleaves to, which may
        differ from this one.  An owner victim is written back into that
        bank's L2 even when clean, which is what makes the L2 a victim
        cache; a non-owner victim only leaves the duplicate tags.  On
        multi-node systems an L2 eviction in that cascade may schedule a
        remote write-back, which the fast-forward driver drains before
        advancing time.
        """
        chip = self.chip
        inclusive = self.inclusive
        if inclusive and source in MEMORY_SOURCES:
            # Inclusive-mode ablation: memory fills also allocate in the
            # L2 (exactly what Piranha's no-inclusion policy avoids).
            self._victim_fill(line, version, False)
        if state is EXCLUSIVE or state is MODIFIED:
            # Single-writer invariant: an exclusive grant sweeps every
            # other on-chip copy (ICS ordering makes this ack-free).
            if e is not None and self._others_hold(e, cache_id):
                self._invalidate_on_chip(line, cache_id)
                # the sweep deletes the entry if it leaves it empty
                e = self.dup.entries.get(line)
            # (inclusive mode keeps the L2 copy at its old version; the
            # dup tags' owner pointer routes reads to the fresh L1 copy,
            # and eviction recovers the freshest version from the L1s)
            tag = line >> LINE_SHIFT
            lset = self.sets[(tag >> self._nbank_bits) & self._set_mask]
            if not inclusive and tag in lset:
                del lset[tag]
                if e is not None and e.owner == L2_OWNER:
                    e.owner = None
        victim = chip.l1s[cache_id].fill(line, state, owner, version, dirty)
        if e is None:
            e = self.dup.entries[line] = DupEntry()
        e.add(cache_id, state, owner)
        checker = chip.checker
        if checker is not None:
            checker.on_fill(chip.node_id, cache_id, line, state, version)
        if req is not None:
            now = self.sim.now
            if req.probe is not None:
                req.probe.stamp("fill", now)
            req.complete(now, source)
        if victim is None:
            return
        vtag = victim.tag
        vline = vtag << LINE_SHIFT
        bank = chip.banks[vtag & chip._bank_mask]
        entries = bank.dup.entries
        ve = entries.get(vline)
        if ve is not None and ve.remove(cache_id) and not victim.owner:
            # no on-chip L1 copy is left and no owner will write back
            del entries[vline]
            ve = None
        if checker is not None:
            # the holder is gone (its data may live on in the L2)
            checker.on_invalidate(chip.node_id, cache_id, vline)
        if victim.owner:
            bank.c_l1_wb_owner.value += 1
            bank._victim_fill(vline, victim.version, victim.dirty)
            if ve is None:
                ve = entries[vline] = DupEntry()
            ve.owner = L2_OWNER
            return
        if bank.inclusive and victim.dirty:
            bank._victim_fill(vline, victim.version, True)
        bank.c_l1_evict_clean.value += 1
        if ve is None and vtag not in bank.sets[
                (vtag >> bank._nbank_bits) & bank._set_mask]:
            bank._line_left_chip(vline)

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
        for inval, fetch_cb, fetch_entry, fetch_probe in (
                entry.deferred_fetches or ()):
            self._do_fetch_for_fwd(line, inval, fetch_cb, fetch_entry,
                                   fetch_probe)
        for lookup_args in entry.deferred_lookups or ():
            self.schedule(0, self.service_home_lookup, *lookup_args)
        for waiter_req, waiter_type in entry.waiters or ():
            self.schedule(0, self.request, waiter_req, waiter_type)
        while self.overflow and len(self.pending) < self.pending_limit:
            next_req, next_type = self.overflow.popleft()
            self.schedule(0, self.request, next_req, next_type)

    # -----------------------------------------------------------------------
    # Functional warming (fast-forward mode)
    # -----------------------------------------------------------------------

    def warm_request(self, cache_id: int, reqtype: RequestType,
                     line: int) -> Optional[ReplySource]:
        """Serve one miss of L1 *cache_id* synchronously: the event path's
        decision (:meth:`_classify` and the grant functions) and its state
        changes (L1 fill and victim, duplicate tags, DRAM page state,
        checker hooks, counters) through the same :meth:`_install`, in
        zero simulated time and with no event.

        Fast-forward phases use this to keep the memory hierarchy warm
        between detailed measurement windows.  Returns the
        :class:`ReplySource` the detailed path would have charged, or
        ``None`` when the access is not warm-eligible — a line still
        in flight from a previous window, or a multi-node access that
        would need a protocol-engine transaction (the home must order it,
        or its engine must invalidate remote copies).  Declined accesses
        leave all state untouched; the caller advances its stream
        statistically instead.
        """
        if line in self.pending or line in self.wb_buffer:
            return None
        chip = self.chip
        e = self.dup.entries.get(line)
        tag = line >> LINE_SHIFT
        l2line = self.sets[(tag >> self._nbank_bits) & self._set_mask].get(tag)
        case = self._classify(e, l2line, cache_id, line)
        # (cases tested in the order of their frequency when warming)
        if case == L2_COPY:
            grant = self._grant_l2_hit(e, l2line, cache_id, reqtype, line)
        elif case == FORWARD:
            holder = chip.l1s[e.owner].peek(line)
            if holder is None:
                return None
            grant = self._grant_fwd(holder, reqtype, line)
        elif case == OWN_COPY:
            grant = self._grant_own(chip.l1s[cache_id].peek(line), reqtype,
                                    line)
        elif self._single_node:
            grant = self._grant_miss(reqtype, chip.mem_version(line), None)
        elif chip.is_home(line) and (reqtype == READ
                                     or line not in self.remote_cached):
            grant = self._grant_miss(reqtype, chip.mem_version(line),
                                     chip.dirstore.read(line))
        else:
            # a remote home serves this miss; a write here to a line other
            # nodes may cache waits for the home engine (declined before
            # the directory is read)
            return None
        state, owner, version, dirty, source, downgrade, home, campaign = \
            grant
        if home or campaign:
            return None
        self.c_requests.value += 1
        if case == L2_COPY:
            self.c_hits.value += 1
            if not owner:
                e = self.dup.set_l2_owner(line)
        elif case == FORWARD:
            self.c_fwds.value += 1
            if downgrade:
                self._downgrade_owner(e, e.owner, holder, line)
        elif case == OWN_COPY:
            if reqtype != READ:
                self.c_upgrades.value += 1
        else:
            self.c_local_mem.value += 1
            if reqtype == EXCLUSIVE_NO_DATA:
                self.c_wh64_data_avoided.value += 1
                if not self._single_node:
                    self.mc.warm_read_line(line)
            else:
                self.mc.warm_read_line(line)
        self._install(e, cache_id, line, state, owner, version, dirty,
                      source)
        return source

    # -----------------------------------------------------------------------
    # L1 replacement handling (victim-cache fill policy)
    # -----------------------------------------------------------------------

    def _victim_fill(self, line: int, version: int, dirty: bool) -> None:
        tag = line >> LINE_SHIFT
        lset = self.sets[(tag >> self._nbank_bits) & self._set_mask]
        existing = lset.get(tag)
        if existing is not None:
            existing.version = max(existing.version, version)
            existing.dirty = existing.dirty or dirty
            return
        if len(lset) >= self.assoc:
            victim_tag, victim = lset.popitem(last=False)  # least recently loaded
            self._evict_l2_line(victim_tag << LINE_SHIFT, victim)
        lset[tag] = L2Line(tag, dirty, version)

    def _evict_l2_line(self, vline: int, victim: L2Line) -> None:
        self.c_l2_evictions.inc()
        chip = self.chip
        home_local = self._single_node or chip.is_home(vline)
        e = self.dup.entries.get(vline)
        if e is not None and e.sharers:
            if self.inclusive:
                # inclusion enforcement: the L1 copies die with the L2
                # line — recover the freshest (possibly silently-modified)
                # data first
                for sharer in e.sharers:
                    held = chip.l1s[sharer].peek(vline)
                    if held is None:
                        continue
                    if held.version > victim.version:
                        victim.version = held.version
                        victim.dirty = True
                    elif held.dirty:
                        victim.dirty = True
            elif home_local:
                # True non-inclusion: the duplicate tags are independent
                # of the L2 tags, so L1 copies survive an L2 eviction.
                # Ownership (the write-back filter) moves from the L2 to
                # one of the sharing L1s; future misses to this line are
                # L1-to-L1 forwards.
                if e.owner == L2_OWNER:
                    e.owner = None
                new_owner = self.dup.promote_any_owner(vline)
                if new_owner is not None:
                    chip.l1s[new_owner].set_owner(vline, True)
                if victim.dirty:
                    self.c_l2_dirty_evictions.inc()
                    chip.mem_write_back(vline, victim.version, self.bank_idx)
                return
            # Remote-home lines keep the conservative rule (invalidate L1
            # sharers) so the home's view of our caching stays simple.
            # The loop removes sharers, so it walks a copy.
            for sharer in set(e.sharers):
                chip.l1s[sharer].invalidate(vline)
                self.dup.remove_sharer(vline, sharer)
                if chip.checker is not None:
                    chip.checker.on_invalidate(chip.node_id, sharer, vline)
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

    def _drop_l2_copy(self, line: int) -> None:
        """Remove the L2's copy of *line*; an L2 ownership claim goes with
        it, and so does a duplicate-tag entry that claim alone kept."""
        self.sets[self._set_of(line)].pop(line >> LINE_SHIFT, None)
        entries = self.dup.entries
        e = entries.get(line)
        if e is not None and e.owner == L2_OWNER:
            e.owner = None
            if not e.sharers:
                del entries[line]

    # -----------------------------------------------------------------------
    # On-chip invalidation (no acks needed: ICS ordering, Section 2.3)
    # -----------------------------------------------------------------------

    def _invalidate_on_chip(self, line: int, except_cache: Optional[int]) -> None:
        e = self.dup.entries.get(line)
        if e is None:
            return
        sharers = e.sharers
        if not sharers or (len(sharers) == 1 and except_cache in sharers):
            return  # no other copy to sweep (the common case)
        chip = self.chip
        for sharer in list(sharers):
            if sharer == except_cache:
                continue
            chip.l1s[sharer].invalidate(line)
            self.dup.remove_sharer(line, sharer)
            if chip.checker is not None:
                chip.checker.on_invalidate(chip.node_id, sharer, line)

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
            if pend.deferred_lookups is None:
                pend.deferred_lookups = []
            pend.deferred_lookups.append(
                (line, exclusive, req_node, on_done, entry, probe))
            return
        self.pending[line] = PendingEntry(line)
        self._engine_holds.add(line)
        res = self.mc.read_line(line, probe=probe)
        self.schedule(self.t_tag + res.critical_word_ps,
                      self._finish_home_lookup, line, exclusive, on_done,
                      entry)

    def _finish_home_lookup(self, line: int, exclusive: bool,
                            on_done: Callable, entry) -> None:
        direntry = self.chip.dirstore.read(line)
        if direntry.state == DIR_EXCLUSIVE:
            on_done(entry, "dirty_remote", 0, direntry, False)
            return
        # Freshest data may be on-chip (home node's own caches).
        version = self.chip.mem_version(line)
        onchip_sharers = self.dup.sharers(line)
        l1_owner = self.dup.l1_owner(line)
        l2line = self._l2_line(line)
        if l1_owner is not None:
            owner_l1 = self.chip.l1s[l1_owner]
            owner_line = owner_l1.peek(line)
            if owner_line is not None:
                version = max(version, owner_line.version)
        if l2line is not None:
            version = max(version, l2line.version)
        if exclusive:
            self._invalidate_on_chip(line, except_cache=None)
            if l2line is not None:
                self._drop_l2_copy(line)
            self.remote_cached.discard(line)
            no_others = direntry.state == DIR_UNCACHED
        else:
            if l1_owner is not None:
                owner_l1 = self.chip.l1s[l1_owner]
                owner_l1.downgrade(line)
                self.dup.set_state(line, l1_owner, SHARED)
                if self.chip.checker is not None:
                    self.chip.checker.on_downgrade(self.chip.node_id,
                                                   l1_owner, line)
            if onchip_sharers or l2line is not None:
                self.remote_cached.add(line)
            no_others = (
                direntry.state == DIR_UNCACHED
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
            if pend.deferred_fetches is None:
                pend.deferred_fetches = []
            pend.deferred_fetches.append((inval, on_done, entry, probe))
            return
        self._do_fetch_for_fwd(line, inval, on_done, entry, probe)

    def _do_fetch_for_fwd(self, line: int, inval: bool, on_done: Callable,
                          entry, probe=None) -> None:
        version: Optional[int] = None
        l1_owner = self.dup.l1_owner(line)
        delay = self.t_tag
        if l1_owner is not None:
            owner_line = self.chip.l1s[l1_owner].peek(line)
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
                sline = self.chip.l1s[sharer].peek(line)
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
            if self._l2_line(line) is not None:
                self._drop_l2_copy(line)
            self._line_left_chip(line)
        else:
            if l1_owner is not None:
                self.chip.l1s[l1_owner].downgrade(line)
                self.dup.set_state(line, l1_owner, SHARED)
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
        if self._l2_line(line) is not None:
            self._drop_l2_copy(line)
        self._line_left_chip(line)
        self.schedule(self.t_tag + self.t_ics, on_done, entry)

    def _onchip_version(self, line: int) -> int:
        best = -1
        l2line = self._l2_line(line)
        if l2line is not None:
            best = l2line.version
        for sharer in self.dup.sharers(line):
            sline = self.chip.l1s[sharer].peek(line)
            if sline is not None and sline.version > best:
                best = sline.version
        return best

    def service_mem_write(self, line: int, version: int, on_done: Callable,
                          entry) -> None:
        """Write back data (+directory) for the home engine, then answer
        with ``on_done(entry)``."""
        res = self.mc.write_line(line)
        self.chip.set_mem_version(line, version)
        self.schedule(res.critical_word_ps, on_done, entry)

    def dir_write(self, line: int, direntry: Optional[DirectoryEntry]) -> None:
        """Fire-and-forget directory update (rides the MC write path).
        Also releases the home-side serialisation hold taken by
        :meth:`service_home_lookup`."""
        if direntry is not None:
            self.chip.dirstore.write(line, direntry)
            self.mc.write_line(line)
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
