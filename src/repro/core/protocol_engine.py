"""Home and remote protocol engines (Section 2.5.1).

Each engine couples the microcode sequencer (:mod:`repro.core.microcode`),
the 16-entry TSRF (:mod:`repro.core.tsrf`) and an input/output controller.
Threads are charged one 500 MHz cycle (2 ns) per microinstruction; the
execution unit is a serial resource, so engine *occupancy* — which the
paper's protocol design works hard to minimise — emerges naturally and is
reported per engine.

The symbolic SEND/LSEND/TEST/SET names used by the microprograms are bound
here to node behaviour: packet construction, L2-bank services, directory
manipulation, and CMI planning.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Any, Callable, Dict, Optional

from ..interconnect.cmi import MAX_CMI_MESSAGES, plan_cmi
from ..interconnect.packets import Packet, PacketType
from ..mem.addr import line_addr
from ..sim.engine import Component, Simulator, ns
from .directory import (DirectoryEntry, add_sharer, make_exclusive,
                        remove_sharer, share_with_owner)
from .messages import MODIFIED, SHARED
from .microcode import Environment, Program, Sequencer, StepResult
from .microprograms import (
    HOME_ENTRY,
    LOCAL_MSG,
    REMOTE_ENTRY,
    build_home_program,
    build_remote_program,
)
from .tsrf import Tsrf, TsrfEntry, TsrfFullError

# The packet types and stop reasons the per-message handlers compare,
# bound to module names once: a module-level name reads about ten times
# faster than an enum attribute.
DATA_REPLY = PacketType.DATA_REPLY
DATA_EXCLUSIVE_REPLY = PacketType.DATA_EXCLUSIVE_REPLY
ACK_REPLY = PacketType.ACK_REPLY
INVAL_ACK = PacketType.INVAL_ACK
WRITEBACK_ACK = PacketType.WRITEBACK_ACK
#: ``PacketType.EXCLUSIVE``: the upgrade request of a shared copy
UPGRADE_REQUEST = PacketType.EXCLUSIVE
WRITEBACK = PacketType.WRITEBACK
FWD_READ = PacketType.FWD_READ
FWD_READ_EXCLUSIVE = PacketType.FWD_READ_EXCLUSIVE
INVALIDATE = PacketType.INVALIDATE
CMI_INVALIDATE = PacketType.CMI_INVALIDATE
DONE = StepResult.DONE
BLOCKED_EXTERNAL = StepResult.BLOCKED_EXTERNAL
BLOCKED_LOCAL = StepResult.BLOCKED_LOCAL

#: Reply packet types are matched against waiting TSRF entries; request
#: packet types allocate fresh protocol threads.
REPLY_TYPES = frozenset({
    DATA_REPLY, DATA_EXCLUSIVE_REPLY, ACK_REPLY, INVAL_ACK, WRITEBACK_ACK})

#: Request-class messages: they start *new* transactions, as opposed to the
#: forward/write-back/invalidate class that completes transactions already
#: in flight.
REQUEST_TYPES = frozenset({PacketType.READ, PacketType.READ_EXCLUSIVE,
                           UPGRADE_REQUEST, PacketType.EXCLUSIVE_NO_DATA})

#: TSRF entries reserved for the completion class (Section 2.5.1's
#: deadlock-avoidance reservation): if every entry could be taken by new
#: requests, the write-backs and forwards that those requests wait on
#: could find no entry, deadlocking the protocol.
TSRF_RESERVED = 2


@lru_cache(maxsize=None)
def _program(is_home: bool) -> Program:
    """The home or remote microprogram, assembled once per process and
    shared by every engine of that kind (engines only read it)."""
    return build_home_program() if is_home else build_remote_program()


class ProtocolEngine(Component):
    """One microprogrammable protocol engine (home or remote)."""

    #: engine clock: 500 MHz -> one microinstruction per 2 ns
    INSTR_PS = ns(2.0)

    def __init__(self, sim: Simulator, name: str, chip, is_home: bool) -> None:
        super().__init__(sim, name)
        self.chip = chip
        self.is_home = is_home
        self.program: Program = _program(is_home)
        #: entry-point pc per external dispatch code / local message kind
        self._ext_pc: Dict[int, int] = {}
        self._local_pc: Dict[str, int] = {}
        local_kinds = {code: kind for kind, code in LOCAL_MSG.items()}
        entry_map = HOME_ENTRY if is_home else REMOTE_ENTRY
        for (origin, code), label in entry_map.items():
            pc = self.program.entry_points[label]
            if origin == "ext":
                self._ext_pc[code] = pc
            else:
                self._local_pc[local_kinds[code]] = pc
        self.tsrf = Tsrf()
        self.busy_until = 0
        self.stalled: deque = deque()  # messages waiting for a TSRF entry
        #: outgoing effects deferred by the burst being executed (see
        #: :meth:`_effect`); None between bursts
        self._effects: Optional[list] = None
        if is_home:
            maps = (self.HOME_SENDERS, self.HOME_LOCAL_SENDERS,
                    self.HOME_CONDITIONS, self.HOME_ACTIONS)
        else:
            maps = (self.REMOTE_SENDERS, self.REMOTE_LOCAL_SENDERS,
                    self.REMOTE_CONDITIONS, self.REMOTE_ACTIONS)
        self.env = Environment.bind(self.program, *(
            {sym: getattr(self, name) for sym, name in names.items()}
            for names in maps))
        self.sequencer = Sequencer(self.program, self.env)
        s = self.stats
        self.c_instructions = s.counter("microinstructions")
        self.c_threads = s.counter("threads")
        self.c_ext_msgs = s.counter("external_messages")
        self.c_local_msgs = s.counter("local_messages")
        self.c_tsrf_stalls = s.counter("tsrf_stalls")
        self.a_occupancy = s.accumulator("thread_instructions")
        #: time-weighted TSRF occupancy (satellite of the paper's 16-entry
        #: architectural bound; reset at the warm-up boundary)
        self.tw_tsrf = s.time_weighted("tsrf_occupancy")

    # -----------------------------------------------------------------------
    # Message entry points
    # -----------------------------------------------------------------------

    def _match_waiting(self, addr: int, waiting: str, code: int):
        """The entry waiting (in mode *waiting*) on *addr* whose pending
        RECEIVE/LRECEIVE has a programmed branch-table slot for *code*
        (hardware: the dispatch condition matches).  The code check
        disambiguates multiple same-address threads."""
        accepts = self.sequencer.accepts
        for entry in self.tsrf.entries:
            if (entry.addr == addr and entry.waiting == waiting
                    and entry.valid and accepts(entry.pc, code)):
                return entry
        return None

    def match_reply(self, addr: int, code: int):
        """The entry waiting on an external reply of type *code* to line
        *addr*, or None (the chip's reply router asks the home engine)."""
        return self._match_waiting(addr, "external", code)

    def deliver_external(self, pkt: Packet,
                         entry: Optional[TsrfEntry] = None) -> bool:
        """A packet addressed to this engine arrived via the IQ.  For a
        reply, *entry* is the waiting entry the caller already matched."""
        self.c_ext_msgs.value += 1
        addr = line_addr(pkt.addr)
        ptype = pkt.ptype
        code = int(ptype)
        if ptype in REPLY_TYPES:
            if entry is None:
                entry = self._match_waiting(addr, "external", code)
            if entry is None:
                # The reply raced ahead of the waiter reaching its RECEIVE
                # (engine busy) — or it belongs to the *other* engine whose
                # waiter was not parked yet.  Re-route from the chip level
                # so the retry reconsiders both engines.
                self.schedule(self.INSTR_PS, self.chip.deliver_packet, pkt)
                return True
            entry.vars["_msg"] = pkt
            entry.waiting = None
            self._start(entry, code)
            return True
        pc = self._ext_pc.get(code)
        if pc is None:
            raise RuntimeError(f"{self.name}: no entry point for {ptype.name}")
        if (ptype in REQUEST_TYPES
                and self.tsrf.free_count <= TSRF_RESERVED):
            # keep the reserved entries for the completion class
            self.c_tsrf_stalls.inc()
            self.stalled.append(("ext", pkt))
            return True
        try:
            info = pkt.info
            entry = self.tsrf.allocate(addr, pc, self.sim.now, {
                "_msg": pkt,
                "req_node": info.get("req_node", pkt.src),
                "req_cpu": info.get("req_cpu", 0),
                "req_ptype": ptype,
                "version": info.get("version", 0),
                "sharing": info.get("sharing", False),
                "chain": tuple(info.get("chain", ())),
                "is_local": False,
                "probe": pkt.probe,
            })
        except TsrfFullError:
            self.c_tsrf_stalls.inc()
            self.stalled.append(("ext", pkt))
            return True
        self.c_threads.value += 1
        self._start(entry, None)
        return True

    #: local message kinds that start new transactions.  NEW_WB completes
    #: a transaction and NEW_LOCAL_INVAL releases a serialisation hold, so
    #: both may use the reserved TSRF entries.
    REQUEST_LOCAL = frozenset({"NEW_READ", "NEW_READX", "NEW_LOCAL_FETCH"})

    def deliver_local(self, kind: str, addr: int, **vars: Any) -> None:
        """A bank (or other local module) starts a new protocol thread."""
        self.c_local_msgs.value += 1
        pc = self._local_pc[kind]
        if (kind in self.REQUEST_LOCAL
                and self.tsrf.free_count <= TSRF_RESERVED):
            self.c_tsrf_stalls.inc()
            self.stalled.append(("local", (kind, addr, vars)))
            return
        vars.setdefault("is_local", True)
        try:
            entry = self.tsrf.allocate(line_addr(addr), pc, self.sim.now, vars)
        except TsrfFullError:
            self.c_tsrf_stalls.inc()
            self.stalled.append(("local", (kind, addr, vars)))
            return
        self.c_threads.value += 1
        self._start(entry, None)

    def resume_local(self, addr: int, kind: str, **updates: Any) -> None:
        """A bank answers an LSEND; wake the waiting thread."""
        entry = self._match_waiting(line_addr(addr), "local", LOCAL_MSG[kind])
        if entry is None:
            # Waiter not parked yet (engine burst in progress): retry.
            # Events take positional arguments only, so the updates ride
            # as one dict.
            self.schedule(self.INSTR_PS, self._retry_local, addr, kind,
                          updates)
            return
        entry.vars.update(updates)
        entry.waiting = None
        self._start(entry, LOCAL_MSG[kind])

    def _retry_local(self, addr: int, kind: str,
                     updates: Dict[str, Any]) -> None:
        self.resume_local(addr, kind, **updates)

    def resume_entry(self, entry: TsrfEntry, kind: str, **updates: Any) -> None:
        """A bank answers an LSEND for a *specific* thread.  Address-based
        matching is ambiguous when two same-line threads wait on the same
        local message kind, so bank callbacks carry their entry."""
        if not entry.valid:
            raise RuntimeError(
                f"{self.name}: bank response for a retired TSRF entry "
                f"(addr={entry.addr:#x}, kind={kind})"
            )
        if entry.waiting != "local":
            # Thread still mid-burst; park the response briefly.
            self.schedule(self.INSTR_PS, self._retry_entry, entry, kind,
                          updates)
            return
        entry.vars.update(updates)
        entry.waiting = None
        self._start(entry, LOCAL_MSG[kind])

    def _retry_entry(self, entry: TsrfEntry, kind: str,
                     updates: Dict[str, Any]) -> None:
        self.resume_entry(entry, kind, **updates)

    # -----------------------------------------------------------------------
    # Execution
    # -----------------------------------------------------------------------

    def _start(self, entry: TsrfEntry, dispatch_code: Optional[int]) -> None:
        trace = self.chip.trace
        if trace is not None:
            trace.record(
                "dispatch", self.chip.node_id, entry.addr,
                f"{'home' if self.is_home else 'remote'} tsrf[{entry.index}]"
                f" pc={entry.pc}"
                + (f" code={dispatch_code}" if dispatch_code is not None
                   else " new-thread"))
        now = self.sim.now
        self.tw_tsrf.set(now, self.tsrf.live)
        busy_until = self.busy_until
        if busy_until < now:
            busy_until = now
        start_at = busy_until - now
        probe = entry.vars.get("probe")
        if probe is not None:
            # stamped at the (possibly future) execution-unit grant time,
            # so engine-occupancy queueing shows up in the dispatch hop
            probe.stamp("pe_dispatch", busy_until)
        self.busy_until = busy_until + self.INSTR_PS
        self.schedule(start_at, self._execute, entry, dispatch_code)

    def _execute(self, entry: TsrfEntry, dispatch_code: Optional[int]) -> None:
        effects = self._effects = []
        executed, result = self.sequencer.run(entry, dispatch_code)
        self._effects = None
        self.c_instructions.value += executed
        self.a_occupancy.add(executed)
        burst_ps = executed * self.INSTR_PS
        burst_end = self.sim.now + burst_ps
        if burst_end > self.busy_until:
            self.busy_until = burst_end
        done = result is DONE
        if done or effects:
            # One event for the whole burst end: the effects and the
            # retire land at one instant, back to back, so one callback
            # running them in order fires them in the same (time, seq)
            # order as one event each would.
            self.schedule(burst_ps, self._end_burst, entry, effects, done)
        if result is BLOCKED_EXTERNAL:
            entry.waiting = "external"
        elif result is BLOCKED_LOCAL:
            entry.waiting = "local"

    def _end_burst(self, entry: TsrfEntry, effects: list, done: bool) -> None:
        """The burst's deferred effects land in order, then a finished
        thread retires."""
        for fn, args in effects:
            fn(*args)
        if done:
            self._retire(entry)

    def _retire(self, entry: TsrfEntry) -> None:
        self.tsrf.free(entry)
        self.tw_tsrf.set(self.sim.now, self.tsrf.live)
        if self.stalled:
            origin, payload = self.stalled.popleft()
            if origin == "ext":
                self.deliver_external(payload)
            else:
                kind, addr, vars = payload
                self.deliver_local(kind, addr, **vars)

    # -----------------------------------------------------------------------
    # Environment binding
    # -----------------------------------------------------------------------

    #: Microprogram symbol -> handler method name, one map per handler
    #: kind (SEND, LSEND, TEST, SET) for each engine role.  ``__init__``
    #: binds them with :meth:`Environment.bind`; a SEND/LSEND/SET symbol
    #: missing here stays unbound and raises when its instruction runs.
    REMOTE_SENDERS = {
        "req_to_home": "_req_to_home",
        "data_reply_to_requester": "_data_reply_to_requester",
        "data_excl_reply_to_requester": "_data_excl_reply_to_requester",
        "sharing_wb_to_home": "_sharing_wb_to_home",
        "inval_ack_to_requester": "_inval_ack_to_requester",
        "cmi_to_next": "_cmi_to_next",
        "wb_to_home": "_wb_to_home",
    }
    REMOTE_LOCAL_SENDERS = {
        "fill_shared": "_fill_shared",
        "fill_exclusive": "_fill_exclusive",
        "fill_modified": "_fill_modified",
        "bank_fetch_shared": "_bank_fetch_shared",
        "bank_fetch_inval": "_bank_fetch_inval",
        "bank_invalidate": "_bank_invalidate",
        "release_wb_buffer": "_release_wb_buffer",
    }
    REMOTE_CONDITIONS = {
        "acks_pending": "_acks_pending",
        "reply_was_exclusive": "_reply_was_exclusive",
        "cmi_more_stops": "_cmi_more_stops",
    }
    REMOTE_ACTIONS = {
        "count_ack": "_count_ack",
        "acks_complete": "_acks_complete",
        "noop": "_noop",
        "load_reply_state": "_load_reply_state",
    }
    HOME_SENDERS = {
        "data_reply": "_data_reply",
        "data_excl_reply": "_data_excl_reply",
        "fwd_read_to_owner": "_fwd_read_to_owner",
        "fwd_readx_to_owner": "_fwd_readx_to_owner",
        "wb_ack": "_wb_ack",
        "inval_to_sharer": "_inval_to_sharer",
        "cmi_launch": "_cmi_launch",
    }
    HOME_LOCAL_SENDERS = {
        "bank_home_lookup": "_bank_home_lookup",
        "bank_home_lookup_x": "_bank_home_lookup_x",
        "dir_write": "_dir_write",
        "bank_mem_write": "_bank_mem_write",
        "fill_local": "_fill_local",
        "sharing_wb_done": "_sharing_wb_done",
        "local_inval_done": "_local_inval_done",
    }
    HOME_CONDITIONS = {
        "acks_pending": "_acks_pending",
        "no_other_sharers": "_no_other_sharers",
        "has_remote_sharers": "_has_remote_sharers",
        "use_cmi": "_use_cmi",
        "more_sharers": "_more_sharers",
        "more_missiles": "_more_missiles",
        "is_sharing_wb": "_is_sharing_wb",
    }
    HOME_ACTIONS = {
        "count_ack": "_count_ack",
        "acks_complete": "_acks_complete",
        "noop": "_noop",
        "dir_add_sharer": "_dir_add_sharer",
        "dir_make_exclusive": "_dir_make_exclusive",
        "dir_make_exclusive_local": "_dir_make_exclusive_local",
        "dir_share_with_owner": "_dir_share_with_owner",
        "dir_clear": "_dir_clear",
        "next_sharer": "_next_sharer",
        "plan_cmi": "_plan_cmi",
        "next_missile": "_next_missile",
    }

    def _effect(self, entry: TsrfEntry, fn: Callable, *args: Any) -> None:
        """Defer an outgoing message to the end of the current burst, so
        sends are charged the microinstructions that precede them."""
        self._effects.append((fn, args))

    def _send(self, entry: TsrfEntry, ptype: PacketType, dst: int,
              **info: Any) -> None:
        chip = self.chip
        pkt = Packet(ptype, chip.node_id, dst, entry.addr, entry.index,
                     info=info, probe=entry.vars.get("probe"))
        self._effects.append((chip.send_packet, (pkt,)))

    def _bank(self, entry: TsrfEntry):
        return self.chip.bank_for(entry.addr)

    # ---- bank continuations -------------------------------------------------
    # A bank service answers by scheduling one of these with the TSRF
    # entry it was handed, so the wake-up is plain data in the event.

    def _bank_data(self, entry: TsrfEntry, version: int) -> None:
        self.resume_entry(entry, "BANK_DATA", version=version)

    def _bank_done(self, entry: TsrfEntry) -> None:
        self.resume_entry(entry, "BANK_DONE")

    def _home_lookup_done(self, entry: TsrfEntry, kind: str, version: int,
                          direntry: DirectoryEntry, no_others: bool) -> None:
        code = "HOME_CLEAN" if kind == "clean" else "HOME_DIRTY"
        self.resume_entry(
            entry, code, version=version, dir_entry=direntry,
            no_other_sharers=no_others,
            owner=direntry.owner,
            sharers=sorted(direntry.sharers - {entry.vars["req_node"]}),
        )

    # ---- shared handlers ----------------------------------------------------

    def _count_ack(self, entry: TsrfEntry, _op: int) -> None:
        entry.vars["acks_got"] = entry.vars.get("acks_got", 0) + 1

    def _acks_pending(self, entry: TsrfEntry) -> int:
        needed = entry.vars.get("acks_needed", 0)
        got = entry.vars.get("acks_got", 0)
        return 1 if needed > got else 0

    def _acks_complete(self, entry: TsrfEntry, _op: int) -> None:
        self.chip.note_acks_complete(entry.addr)

    def _noop(self, entry: TsrfEntry, _op: int) -> None:
        return

    # ---- remote-engine handlers ---------------------------------------------

    def _req_to_home(self, entry: TsrfEntry) -> None:
        chip = self.chip
        self._send(entry, entry.vars["req_ptype"], chip.home_of(entry.addr),
                   req_node=chip.node_id, req_cpu=entry.vars.get("req_cpu", 0))

    def _fill_requester(self, entry: TsrfEntry, state: str) -> None:
        """Hand the home's reply to the bank that launched the request;
        the request itself rides in the TSRF entry."""
        msg = entry.vars.get("_msg")
        info = msg.info if msg is not None else {}
        self._effect(entry, self._bank(entry).remote_reply_fill, entry, state,
                     info.get("version", 0), bool(info.get("three_hop", False)))

    def _fill_shared(self, entry: TsrfEntry) -> None:
        self._fill_requester(entry, "S")

    def _fill_exclusive(self, entry: TsrfEntry) -> None:
        self._fill_requester(entry, "E")

    def _fill_modified(self, entry: TsrfEntry) -> None:
        self._fill_requester(entry, "M")

    def _load_reply_state(self, entry: TsrfEntry, _op: int) -> None:
        needed = entry.vars["_msg"].info.get("inval_count", 0)
        entry.vars["acks_needed"] = needed
        if needed > entry.vars.get("acks_got", 0):
            # eager exclusive grant: a later MB by this CPU must wait
            # for the outstanding invalidation acks
            self.chip.register_pending_acks(entry.vars.get("req_cpu", 0),
                                            entry.addr)

    def _reply_was_exclusive(self, entry: TsrfEntry) -> int:
        msg = entry.vars["_msg"]
        return 1 if msg.ptype == DATA_EXCLUSIVE_REPLY else 0

    def _bank_fetch(self, entry: TsrfEntry, inval: bool) -> None:
        self._effect(entry, self._bank(entry).service_fetch_for_fwd,
                     entry.addr, inval, self._bank_data, entry,
                     entry.vars.get("probe"))

    def _bank_fetch_shared(self, entry: TsrfEntry) -> None:
        self._bank_fetch(entry, False)

    def _bank_fetch_inval(self, entry: TsrfEntry) -> None:
        self._bank_fetch(entry, True)

    def _data_reply_to_requester(self, entry: TsrfEntry) -> None:
        self._send(entry, DATA_REPLY,
                   entry.vars["req_node"],
                   version=entry.vars.get("version", 0), three_hop=True)

    def _data_excl_reply_to_requester(self, entry: TsrfEntry) -> None:
        self._send(entry, DATA_EXCLUSIVE_REPLY,
                   entry.vars["req_node"],
                   version=entry.vars.get("version", 0),
                   inval_count=0, three_hop=True)

    def _sharing_wb_to_home(self, entry: TsrfEntry) -> None:
        self._send(entry, WRITEBACK, self.chip.home_of(entry.addr),
                   version=entry.vars.get("version", 0), sharing=True)

    def _bank_invalidate(self, entry: TsrfEntry) -> None:
        epoch = entry.vars["_msg"].info.get("epoch")
        self._effect(entry, self._bank(entry).service_invalidate, entry.addr,
                     self._bank_done, entry, epoch)

    def _inval_ack_to_requester(self, entry: TsrfEntry) -> None:
        msg = entry.vars["_msg"]
        requester = msg.info.get("req_node", msg.src)
        self._send(entry, INVAL_ACK, requester)

    def _cmi_more_stops(self, entry: TsrfEntry) -> int:
        return 1 if entry.vars.get("chain") else 0

    def _cmi_to_next(self, entry: TsrfEntry) -> None:
        msg = entry.vars["_msg"]
        chain = tuple(entry.vars.get("chain", ()))
        nxt, rest = chain[0], chain[1:]
        self._send(entry, CMI_INVALIDATE, nxt,
                   req_node=msg.info.get("req_node", msg.src), chain=rest,
                   epoch=msg.info.get("epoch"))

    def _wb_to_home(self, entry: TsrfEntry) -> None:
        self._send(entry, WRITEBACK, self.chip.home_of(entry.addr),
                   version=entry.vars.get("version", 0), sharing=False)

    def _release_wb_buffer(self, entry: TsrfEntry) -> None:
        self._effect(entry, self._bank(entry).release_wb, entry.addr)

    # ---- home-engine handlers -----------------------------------------------

    def _bank_home_lookup(self, entry: TsrfEntry,
                          exclusive: bool = False) -> None:
        self._effect(entry, self._bank(entry).service_home_lookup, entry.addr,
                     exclusive, entry.vars["req_node"], self._home_lookup_done,
                     entry, entry.vars.get("probe"))

    def _bank_home_lookup_x(self, entry: TsrfEntry) -> None:
        self._bank_home_lookup(entry, True)

    def _data_reply(self, entry: TsrfEntry) -> None:
        self._send(entry, DATA_REPLY, entry.vars["req_node"],
                   version=entry.vars.get("version", 0))

    def _data_excl_reply(self, entry: TsrfEntry) -> None:
        count = entry.vars.get("inval_count", 0)
        wants_data = entry.vars.get("req_ptype") != UPGRADE_REQUEST
        ptype = DATA_EXCLUSIVE_REPLY if wants_data else ACK_REPLY
        self._send(entry, ptype, entry.vars["req_node"],
                   version=entry.vars.get("version", 0), inval_count=count)

    def _fwd_read_to_owner(self, entry: TsrfEntry) -> None:
        excl = entry.vars.get("fetch_excl", False)
        ptype = FWD_READ_EXCLUSIVE if excl else FWD_READ
        if not excl:
            # The owner will downgrade and send the data home as a
            # sharing write-back; until it lands, memory is stale and
            # the line must stay serialised at the home bank.
            self._bank(entry).expect_sharing_wb(entry.addr)
        self._send(entry, ptype, entry.vars["owner"],
                   req_node=entry.vars["req_node"],
                   req_cpu=entry.vars.get("req_cpu", 0))

    def _fwd_readx_to_owner(self, entry: TsrfEntry) -> None:
        self._send(entry, FWD_READ_EXCLUSIVE,
                   entry.vars["owner"],
                   req_node=entry.vars["req_node"],
                   req_cpu=entry.vars.get("req_cpu", 0))

    def _dir_write(self, entry: TsrfEntry) -> None:
        # A None dir_next still releases the bank's home-side hold.
        self._effect(entry, self._bank(entry).dir_write, entry.addr,
                     entry.vars.get("dir_next"))

    def _bank_mem_write(self, entry: TsrfEntry) -> None:
        self._effect(entry, self._bank(entry).service_mem_write, entry.addr,
                     entry.vars.get("version", 0), self._bank_done, entry)

    def _wb_ack(self, entry: TsrfEntry) -> None:
        self._send(entry, WRITEBACK_ACK, entry.vars["req_node"])

    def _sharing_wb_done(self, entry: TsrfEntry) -> None:
        self._effect(entry, self._bank(entry).sharing_wb_arrived, entry.addr)

    def _local_inval_done(self, entry: TsrfEntry) -> None:
        self._effect(entry, self._bank(entry).local_inval_done, entry.addr)

    def _fill_local(self, entry: TsrfEntry) -> None:
        """The owner's data reached the home: fill the local requester
        whose request rides in the TSRF entry."""
        state = MODIFIED if entry.vars.get("fetch_excl") else SHARED
        self._effect(entry, self._bank(entry).home_fetch_fill, entry,
                     entry.vars["_msg"].info.get("version", 0), state)

    def _inval_to_sharer(self, entry: TsrfEntry) -> None:
        target = entry.vars["_cur_sharer"]
        self._send(entry, INVALIDATE, target,
                   req_node=entry.vars["req_node"],
                   epoch=entry.vars.get("version"))

    def _cmi_launch(self, entry: TsrfEntry) -> None:
        chain = entry.vars["_cur_chain"]
        nxt, rest = chain[0], tuple(chain[1:])
        self._send(entry, CMI_INVALIDATE, nxt,
                   req_node=entry.vars["req_node"], chain=rest,
                   epoch=entry.vars.get("version"))

    # conditions

    def _no_other_sharers(self, entry: TsrfEntry) -> int:
        return 1 if entry.vars.get("no_other_sharers") else 0

    def _has_remote_sharers(self, entry: TsrfEntry) -> int:
        return 1 if self._sharer_list(entry) else 0

    def _use_cmi(self, entry: TsrfEntry) -> int:
        return 1 if len(self._sharer_list(entry)) > MAX_CMI_MESSAGES else 0

    def _more_sharers(self, entry: TsrfEntry) -> int:
        return 1 if entry.vars.get("_sharer_queue") else 0

    def _more_missiles(self, entry: TsrfEntry) -> int:
        return 1 if entry.vars.get("_chain_queue") else 0

    def _is_sharing_wb(self, entry: TsrfEntry) -> int:
        return 1 if entry.vars.get("sharing") else 0

    # actions

    def _dir_add_sharer(self, entry: TsrfEntry, _op: int) -> None:
        current = entry.vars.get("dir_entry") or DirectoryEntry.uncached()
        entry.vars["dir_next"] = add_sharer(
            current, entry.vars["req_node"], self.chip.num_nodes
        )

    def _dir_make_exclusive(self, entry: TsrfEntry, _op: int) -> None:
        entry.vars["dir_next"] = make_exclusive(entry.vars["req_node"])
        entry.vars["acks_needed"] = entry.vars.get("inval_count", 0)

    def _dir_make_exclusive_local(self, entry: TsrfEntry, _op: int) -> None:
        entry.vars["dir_next"] = make_exclusive(entry.vars["req_node"],
                                                local=True)
        needed = entry.vars.get("inval_count", 0)
        entry.vars["acks_needed"] = needed
        if needed > entry.vars.get("acks_got", 0):
            self.chip.register_pending_acks(entry.vars.get("req_cpu", 0),
                                            entry.addr)

    def _dir_share_with_owner(self, entry: TsrfEntry, _op: int) -> None:
        v = entry.vars
        v["dir_next"] = share_with_owner(
            v["owner"], v["req_node"], v.get("is_local"), v.get("fetch_excl"))

    def _dir_clear(self, entry: TsrfEntry, _op: int) -> None:
        current = entry.vars.get("dir_entry")
        if current is None:
            current = self.chip.dirstore.read(entry.addr)
        entry.vars["dir_next"] = remove_sharer(current, entry.vars["req_node"])

    def _next_sharer(self, entry: TsrfEntry, _op: int) -> None:
        queue = entry.vars.get("_sharer_queue")
        if queue is None:
            queue = list(self._sharer_list(entry))
            entry.vars["_sharer_queue"] = queue
            entry.vars["inval_count"] = len(queue)
        entry.vars["_cur_sharer"] = queue.pop(0)

    def _plan_cmi(self, entry: TsrfEntry, _op: int) -> None:
        sharers = self._sharer_list(entry)
        plan = plan_cmi(self.chip.topology, self.chip.node_id,
                        entry.vars["req_node"], sharers)
        entry.vars["_chain_queue"] = list(plan.chains)
        entry.vars["inval_count"] = len(plan.chains)

    def _next_missile(self, entry: TsrfEntry, _op: int) -> None:
        entry.vars["_cur_chain"] = entry.vars["_chain_queue"].pop(0)

    def _sharer_list(self, entry: TsrfEntry):
        sharers = entry.vars.get("sharers")
        if sharers is None:
            direntry = entry.vars.get("dir_entry")
            if direntry is None:
                direntry = self.chip.dirstore.read(entry.addr)
                entry.vars["dir_entry"] = direntry
            sharers = sorted(
                direntry.sharers - {entry.vars.get("req_node", -1),
                                    self.chip.node_id}
            )
            entry.vars["sharers"] = sharers
        return sharers
