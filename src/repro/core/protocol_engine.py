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
from typing import Any, Callable, Dict, Optional, Tuple

from ..interconnect.cmi import MAX_CMI_MESSAGES, plan_cmi
from ..interconnect.packets import Lane, Packet, PacketType
from ..mem.addr import line_addr
from ..sim.engine import Component, Simulator, ns
from .directory import DirectoryEntry, DirState, add_sharer, make_exclusive
from .microcode import END, Environment, Program, Sequencer, StepResult
from .microprograms import (
    HOME_ENTRY,
    LOCAL_MSG,
    REMOTE_ENTRY,
    build_home_program,
    build_remote_program,
)
from .tsrf import Tsrf, TsrfEntry, TsrfFullError

#: Reply packet types are matched against waiting TSRF entries; request
#: packet types allocate fresh protocol threads.
REPLY_TYPES = frozenset({
    PacketType.DATA_REPLY,
    PacketType.DATA_EXCLUSIVE_REPLY,
    PacketType.ACK_REPLY,
    PacketType.INVAL_ACK,
    PacketType.WRITEBACK_ACK,
})

#: Request-class messages: they start *new* transactions, as opposed to the
#: forward/write-back/invalidate class that completes transactions already
#: in flight.
REQUEST_TYPES = frozenset({
    PacketType.READ,
    PacketType.READ_EXCLUSIVE,
    PacketType.EXCLUSIVE,
    PacketType.EXCLUSIVE_NO_DATA,
})

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
        self.env = self._bind_environment()
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

    def has_waiting_external(self, addr: int, code: int) -> bool:
        """Used by the chip's reply router to pick the right engine."""
        return self._match_waiting(addr, "external", code) is not None

    def can_accept(self, pkt: Packet) -> bool:
        """IQ probe: replies always match a waiting entry; new requests
        need either a free TSRF entry or an entry to piggyback on."""
        if pkt.ptype in REPLY_TYPES:
            return True
        return self.tsrf.free_count > 0 or len(self.stalled) < 64

    def deliver_external(self, pkt: Packet) -> bool:
        """A packet addressed to this engine arrived via the IQ."""
        self.c_ext_msgs.inc()
        addr = line_addr(pkt.addr)
        code = int(pkt.ptype)
        if pkt.ptype in REPLY_TYPES:
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
            raise RuntimeError(f"{self.name}: no entry point for {pkt.ptype.name}")
        if (pkt.ptype in REQUEST_TYPES
                and self.tsrf.free_count <= TSRF_RESERVED):
            # keep the reserved entries for the completion class
            self.c_tsrf_stalls.inc()
            self.stalled.append(("ext", pkt))
            return True
        try:
            entry = self.tsrf.allocate(
                addr, pc, self.sim.now,
                _msg=pkt,
                req_node=pkt.info.get("req_node", pkt.src),
                req_cpu=pkt.info.get("req_cpu", 0),
                req_ptype=pkt.ptype,
                version=pkt.info.get("version", 0),
                sharing=pkt.info.get("sharing", False),
                chain=tuple(pkt.info.get("chain", ())),
                is_local=False,
                probe=pkt.probe,
            )
        except TsrfFullError:
            self.c_tsrf_stalls.inc()
            self.stalled.append(("ext", pkt))
            return True
        self.c_threads.inc()
        self._start(entry, None)
        return True

    #: local message kinds that start new transactions.  NEW_WB completes
    #: a transaction and NEW_LOCAL_INVAL releases a serialisation hold, so
    #: both may use the reserved TSRF entries.
    REQUEST_LOCAL = frozenset({"NEW_READ", "NEW_READX", "NEW_LOCAL_FETCH"})

    def deliver_local(self, kind: str, addr: int, **vars: Any) -> None:
        """A bank (or other local module) starts a new protocol thread."""
        self.c_local_msgs.inc()
        pc = self._local_pc[kind]
        if (kind in self.REQUEST_LOCAL
                and self.tsrf.free_count <= TSRF_RESERVED):
            self.c_tsrf_stalls.inc()
            self.stalled.append(("local", (kind, addr, vars)))
            return
        try:
            entry = self.tsrf.allocate(
                line_addr(addr), pc, self.sim.now,
                is_local=vars.pop("is_local", True), **vars,
            )
        except TsrfFullError:
            self.c_tsrf_stalls.inc()
            self.stalled.append(("local", (kind, addr, vars)))
            return
        self.c_threads.inc()
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
        self.c_instructions.inc(executed)
        self.a_occupancy.add(executed)
        burst_ps = executed * self.INSTR_PS
        burst_end = self.sim.now + burst_ps
        if burst_end > self.busy_until:
            self.busy_until = burst_end
        done = result is StepResult.DONE
        if done or effects:
            # One event for the whole burst end: the effects and the
            # retire land at one instant, back to back, so one callback
            # running them in order fires them in the same (time, seq)
            # order as one event each would.
            self.schedule(burst_ps, self._end_burst, entry, effects, done)
        if result is StepResult.BLOCKED_EXTERNAL:
            entry.waiting = "external"
        elif result is StepResult.BLOCKED_LOCAL:
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

    def _effect(self, entry: TsrfEntry, fn: Callable, *args: Any) -> None:
        """Defer an outgoing message to the end of the current burst, so
        sends are charged the microinstructions that precede them."""
        self._effects.append((fn, args))

    def _send(self, entry: TsrfEntry, ptype: PacketType, dst: int,
              **info: Any) -> None:
        pkt = Packet(
            ptype=ptype, src=self.chip.node_id, dst=dst, addr=entry.addr,
            txn_id=entry.index, info=info,
            probe=entry.vars.get("probe"),
        )
        self._effect(entry, self.chip.send_packet, pkt)

    def _bank(self, entry: TsrfEntry):
        return self.chip.bank_for(entry.addr)

    def _bind_environment(self) -> Environment:
        chip = self.chip

        # ---- shared helpers ------------------------------------------------

        def home_of(entry: TsrfEntry) -> int:
            return chip.home_of(entry.addr)

        def count_ack(entry: TsrfEntry, _op: int) -> None:
            entry.vars["acks_got"] = entry.vars.get("acks_got", 0) + 1

        def acks_pending(entry: TsrfEntry) -> int:
            needed = entry.vars.get("acks_needed", 0)
            got = entry.vars.get("acks_got", 0)
            return 1 if needed > got else 0

        def acks_complete(entry: TsrfEntry, _op: int) -> None:
            chip.note_acks_complete(entry.addr)

        def noop(entry: TsrfEntry, _op: int) -> None:
            return

        senders: Dict[str, Callable] = {}
        local_senders: Dict[str, Callable] = {}
        conditions: Dict[str, Callable] = {"acks_pending": acks_pending}
        actions: Dict[str, Callable] = {
            "count_ack": count_ack,
            "acks_complete": acks_complete,
            "noop": noop,
        }

        if not self.is_home:
            self._bind_remote(senders, local_senders, conditions, actions,
                              home_of)
        else:
            self._bind_home(senders, local_senders, conditions, actions)

        return Environment.bind(self.program, senders, local_senders,
                                conditions, actions)

    # ---- remote-engine bindings -------------------------------------------

    def _bind_remote(self, senders, local_senders, conditions, actions,
                     home_of) -> None:
        chip = self.chip

        def req_to_home(entry: TsrfEntry) -> None:
            ptype = entry.vars["req_ptype"]
            self._send(entry, ptype, home_of(entry),
                       req_node=chip.node_id, req_cpu=entry.vars.get("req_cpu", 0))

        def fill(entry: TsrfEntry, state: str) -> None:
            msg = entry.vars.get("_msg")
            version = msg.info.get("version", 0) if msg is not None else 0
            three_hop = bool(msg.info.get("three_hop", False)) if msg else False
            on_fill = entry.vars.get("on_fill")
            if on_fill is not None:
                self._effect(entry, on_fill, state, version, three_hop)

        def load_reply_state(entry: TsrfEntry, _op: int) -> None:
            msg = entry.vars["_msg"]
            needed = msg.info.get("inval_count", 0)
            entry.vars["acks_needed"] = needed
            if needed > entry.vars.get("acks_got", 0):
                # eager exclusive grant: a later MB by this CPU must wait
                # for the outstanding invalidation acks
                chip.register_pending_acks(entry.vars.get("req_cpu", 0),
                                           entry.addr)

        def reply_was_exclusive(entry: TsrfEntry) -> int:
            msg = entry.vars["_msg"]
            return 1 if msg.ptype == PacketType.DATA_EXCLUSIVE_REPLY else 0

        def bank_fetch(entry: TsrfEntry, inval: bool) -> None:
            bank = self._bank(entry)
            addr = entry.addr

            def on_data(version: int) -> None:
                self.resume_entry(entry, "BANK_DATA", version=version)

            self._effect(entry, bank.service_fetch_for_fwd, addr, inval,
                         on_data, entry.vars.get("probe"))

        def data_reply_to_requester(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.DATA_REPLY,
                       entry.vars["req_node"],
                       version=entry.vars.get("version", 0), three_hop=True)

        def data_excl_reply_to_requester(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.DATA_EXCLUSIVE_REPLY,
                       entry.vars["req_node"],
                       version=entry.vars.get("version", 0),
                       inval_count=0, three_hop=True)

        def sharing_wb_to_home(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.WRITEBACK, home_of(entry),
                       version=entry.vars.get("version", 0), sharing=True)

        def bank_invalidate(entry: TsrfEntry) -> None:
            bank = self._bank(entry)
            addr = entry.addr
            epoch = entry.vars["_msg"].info.get("epoch")

            def on_done() -> None:
                self.resume_entry(entry, "BANK_DONE")

            self._effect(entry, bank.service_invalidate, addr, on_done, epoch)

        def inval_ack_to_requester(entry: TsrfEntry) -> None:
            msg = entry.vars["_msg"]
            requester = msg.info.get("req_node", msg.src)
            self._send(entry, PacketType.INVAL_ACK, requester)

        def cmi_more_stops(entry: TsrfEntry) -> int:
            return 1 if entry.vars.get("chain") else 0

        def cmi_to_next(entry: TsrfEntry) -> None:
            msg = entry.vars["_msg"]
            chain = tuple(entry.vars.get("chain", ()))
            nxt, rest = chain[0], chain[1:]
            self._send(entry, PacketType.CMI_INVALIDATE, nxt,
                       req_node=msg.info.get("req_node", msg.src), chain=rest,
                       epoch=msg.info.get("epoch"))

        def wb_to_home(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.WRITEBACK, home_of(entry),
                       version=entry.vars.get("version", 0), sharing=False)

        def release_wb_buffer(entry: TsrfEntry) -> None:
            bank = self._bank(entry)
            self._effect(entry, bank.release_wb, entry.addr)

        senders.update({
            "req_to_home": req_to_home,
            "data_reply_to_requester": data_reply_to_requester,
            "data_excl_reply_to_requester": data_excl_reply_to_requester,
            "sharing_wb_to_home": sharing_wb_to_home,
            "inval_ack_to_requester": inval_ack_to_requester,
            "cmi_to_next": cmi_to_next,
            "wb_to_home": wb_to_home,
        })
        local_senders.update({
            "fill_shared": lambda e: fill(e, "S"),
            "fill_exclusive": lambda e: fill(e, "E"),
            "fill_modified": lambda e: fill(e, "M"),
            "bank_fetch_shared": lambda e: bank_fetch(e, False),
            "bank_fetch_inval": lambda e: bank_fetch(e, True),
            "bank_invalidate": bank_invalidate,
            "release_wb_buffer": release_wb_buffer,
        })
        conditions.update({
            "reply_was_exclusive": reply_was_exclusive,
            "cmi_more_stops": cmi_more_stops,
        })
        actions.update({
            "load_reply_state": load_reply_state,
        })

    # ---- home-engine bindings -----------------------------------------------

    def _bind_home(self, senders, local_senders, conditions, actions) -> None:
        chip = self.chip

        def bank_home_lookup(entry: TsrfEntry, exclusive: bool) -> None:
            bank = self._bank(entry)
            addr = entry.addr

            def on_done(kind: str, version: int, direntry: DirectoryEntry,
                        no_others: bool) -> None:
                code = "HOME_CLEAN" if kind == "clean" else "HOME_DIRTY"
                self.resume_entry(
                    entry, code, version=version, dir_entry=direntry,
                    no_other_sharers=no_others,
                    owner=direntry.owner,
                    sharers=sorted(direntry.sharers - {entry.vars["req_node"]}),
                )

            self._effect(entry, bank.service_home_lookup, addr, exclusive,
                         entry.vars["req_node"], on_done,
                         entry.vars.get("probe"))

        def data_reply(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.DATA_REPLY, entry.vars["req_node"],
                       version=entry.vars.get("version", 0))

        def data_excl_reply(entry: TsrfEntry) -> None:
            count = entry.vars.get("inval_count", 0)
            wants_data = entry.vars.get("req_ptype") != PacketType.EXCLUSIVE
            ptype = (PacketType.DATA_EXCLUSIVE_REPLY if wants_data
                     else PacketType.ACK_REPLY)
            self._send(entry, ptype, entry.vars["req_node"],
                       version=entry.vars.get("version", 0), inval_count=count)

        def fwd_read_to_owner(entry: TsrfEntry) -> None:
            excl = entry.vars.get("fetch_excl", False)
            ptype = (PacketType.FWD_READ_EXCLUSIVE if excl
                     else PacketType.FWD_READ)
            if not excl:
                # The owner will downgrade and send the data home as a
                # sharing write-back; until it lands, memory is stale and
                # the line must stay serialised at the home bank.
                self._bank(entry).expect_sharing_wb(entry.addr)
            self._send(entry, ptype, entry.vars["owner"],
                       req_node=entry.vars["req_node"],
                       req_cpu=entry.vars.get("req_cpu", 0))

        def fwd_readx_to_owner(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.FWD_READ_EXCLUSIVE,
                       entry.vars["owner"],
                       req_node=entry.vars["req_node"],
                       req_cpu=entry.vars.get("req_cpu", 0))

        def dir_write(entry: TsrfEntry) -> None:
            # A None dir_next still releases the bank's home-side hold.
            bank = self._bank(entry)
            self._effect(entry, bank.dir_write, entry.addr,
                         entry.vars.get("dir_next"))

        def bank_mem_write(entry: TsrfEntry) -> None:
            bank = self._bank(entry)
            addr = entry.addr

            def on_done() -> None:
                self.resume_entry(entry, "BANK_DONE")

            self._effect(entry, bank.service_mem_write, addr,
                         entry.vars.get("version", 0), on_done)

        def wb_ack(entry: TsrfEntry) -> None:
            self._send(entry, PacketType.WRITEBACK_ACK, entry.vars["req_node"])

        def sharing_wb_done(entry: TsrfEntry) -> None:
            bank = self._bank(entry)
            self._effect(entry, bank.sharing_wb_arrived, entry.addr)

        def local_inval_done(entry: TsrfEntry) -> None:
            bank = self._bank(entry)
            self._effect(entry, bank.local_inval_done, entry.addr)

        def fill_local(entry: TsrfEntry) -> None:
            msg = entry.vars["_msg"]
            on_fill = entry.vars.get("on_fill")
            if on_fill is not None:
                from .messages import MESI

                state = (MESI.MODIFIED if entry.vars.get("fetch_excl")
                         else MESI.SHARED)
                self._effect(entry, on_fill, msg.info.get("version", 0), state)

        def inval_to_sharer(entry: TsrfEntry) -> None:
            target = entry.vars["_cur_sharer"]
            self._send(entry, PacketType.INVALIDATE, target,
                       req_node=entry.vars["req_node"],
                       epoch=entry.vars.get("version"))

        def cmi_launch(entry: TsrfEntry) -> None:
            chain = entry.vars["_cur_chain"]
            nxt, rest = chain[0], tuple(chain[1:])
            self._send(entry, PacketType.CMI_INVALIDATE, nxt,
                       req_node=entry.vars["req_node"], chain=rest,
                       epoch=entry.vars.get("version"))

        # ---- conditions ----------------------------------------------------

        def no_other_sharers(entry: TsrfEntry) -> int:
            return 1 if entry.vars.get("no_other_sharers") else 0

        def has_remote_sharers(entry: TsrfEntry) -> int:
            return 1 if self._sharer_list(entry) else 0

        def use_cmi(entry: TsrfEntry) -> int:
            return 1 if len(self._sharer_list(entry)) > MAX_CMI_MESSAGES else 0

        def more_sharers(entry: TsrfEntry) -> int:
            return 1 if entry.vars.get("_sharer_queue") else 0

        def more_missiles(entry: TsrfEntry) -> int:
            return 1 if entry.vars.get("_chain_queue") else 0

        def is_sharing_wb(entry: TsrfEntry) -> int:
            return 1 if entry.vars.get("sharing") else 0

        # ---- actions -------------------------------------------------------

        def dir_add_sharer(entry: TsrfEntry, _op: int) -> None:
            current = entry.vars.get("dir_entry") or DirectoryEntry.uncached()
            entry.vars["dir_next"] = add_sharer(
                current, entry.vars["req_node"], chip.num_nodes
            )

        def dir_make_exclusive(entry: TsrfEntry, _op: int) -> None:
            entry.vars["dir_next"] = make_exclusive(entry.vars["req_node"])
            entry.vars["acks_needed"] = entry.vars.get("inval_count", 0)

        def dir_make_exclusive_local(entry: TsrfEntry, _op: int) -> None:
            # The home node's own exclusivity is never tracked in the
            # directory (home sharers are covered by the on-chip state).
            entry.vars["dir_next"] = DirectoryEntry.uncached()
            needed = entry.vars.get("inval_count", 0)
            entry.vars["acks_needed"] = needed
            if needed > entry.vars.get("acks_got", 0):
                chip.register_pending_acks(entry.vars.get("req_cpu", 0),
                                           entry.addr)

        def dir_share_with_owner(entry: TsrfEntry, _op: int) -> None:
            owner = entry.vars["owner"]
            if entry.vars.get("fetch_excl"):
                if entry.vars.get("is_local"):
                    entry.vars["dir_next"] = DirectoryEntry.uncached()
                else:
                    entry.vars["dir_next"] = make_exclusive(entry.vars["req_node"])
                return
            sharers = {owner}
            if not entry.vars.get("is_local"):
                sharers.add(entry.vars["req_node"])
            entry.vars["dir_next"] = DirectoryEntry(
                DirState.SHARED, frozenset(sharers), None
            )

        def dir_clear(entry: TsrfEntry, _op: int) -> None:
            current = entry.vars.get("dir_entry")
            if current is None:
                current = chip.dirstore.read(entry.addr)
            if (current.state == DirState.EXCLUSIVE
                    and current.owner != entry.vars["req_node"]):
                # Late write-back: the home already granted the line to a
                # new owner (the forward crossed the WB in flight).  The
                # directory stays as-is; the WB is acked and its data is
                # version-superseded.
                entry.vars["dir_next"] = current
                return
            remaining = set(current.sharers) - {entry.vars["req_node"]}
            if not remaining:
                entry.vars["dir_next"] = DirectoryEntry.uncached()
            else:
                entry.vars["dir_next"] = DirectoryEntry(
                    DirState.SHARED if len(remaining) <= 4 else DirState.SHARED_COARSE,
                    frozenset(remaining), None,
                )

        def next_sharer(entry: TsrfEntry, _op: int) -> None:
            queue = entry.vars.get("_sharer_queue")
            if queue is None:
                queue = list(self._sharer_list(entry))
                entry.vars["_sharer_queue"] = queue
                entry.vars["inval_count"] = len(queue)
            entry.vars["_cur_sharer"] = queue.pop(0)

        def plan_cmi_action(entry: TsrfEntry, _op: int) -> None:
            sharers = self._sharer_list(entry)
            plan = plan_cmi(chip.topology, chip.node_id,
                            entry.vars["req_node"], sharers)
            entry.vars["_chain_queue"] = list(plan.chains)
            entry.vars["inval_count"] = len(plan.chains)

        def next_missile(entry: TsrfEntry, _op: int) -> None:
            entry.vars["_cur_chain"] = entry.vars["_chain_queue"].pop(0)

        senders.update({
            "data_reply": data_reply,
            "data_excl_reply": data_excl_reply,
            "fwd_read_to_owner": fwd_read_to_owner,
            "fwd_readx_to_owner": fwd_readx_to_owner,
            "wb_ack": wb_ack,
            "inval_to_sharer": inval_to_sharer,
            "cmi_launch": cmi_launch,
        })
        local_senders.update({
            "bank_home_lookup": lambda e: bank_home_lookup(e, False),
            "bank_home_lookup_x": lambda e: bank_home_lookup(e, True),
            "dir_write": dir_write,
            "bank_mem_write": bank_mem_write,
            "fill_local": fill_local,
            "sharing_wb_done": sharing_wb_done,
            "local_inval_done": local_inval_done,
        })
        conditions.update({
            "no_other_sharers": no_other_sharers,
            "has_remote_sharers": has_remote_sharers,
            "use_cmi": use_cmi,
            "more_sharers": more_sharers,
            "more_missiles": more_missiles,
            "is_sharing_wb": is_sharing_wb,
        })
        actions.update({
            "dir_add_sharer": dir_add_sharer,
            "dir_make_exclusive": dir_make_exclusive,
            "dir_make_exclusive_local": dir_make_exclusive_local,
            "dir_share_with_owner": dir_share_with_owner,
            "dir_clear": dir_clear,
            "next_sharer": next_sharer,
            "plan_cmi": plan_cmi_action,
            "next_missile": next_missile,
        })

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
