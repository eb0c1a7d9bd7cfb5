"""Multi-threaded kernel suite: real code for the coherence protocol.

Five parameterized kernels, each assembled from source through the
two-pass assembler (:mod:`repro.isa.assembler`) and exercising a
distinct sharing idiom the Piranha protocol has to get right:

* **spinlock** — ``ldq_l``/``stq_c`` test-and-set lock guarding a shared
  counter (contended atomic read-modify-write + lock-line bouncing);
* **barrier** — sense-reversing barrier, N CPUs for R rounds
  (atomic increment + broadcast release, one ``mb`` per round);
* **ring** — producer/consumer pairs message-passing over shared ring
  slots with ``mb``-ordered flag publication (point-to-point
  communication misses, L1→L1 forwarding);
* **memcpy** — per-CPU private block copy using the ``wh64``
  exclusive-without-data write hint (cold misses + write hints, zero
  sharing: a *negative* control for the communication checks);
* **false_sharing** — CPUs hammer distinct quadwords packed into the
  same cache lines (pure false-sharing ping-pong).

Every kernel runs two ways through :func:`run_functional` (interleaved
:class:`~repro.isa.cpu.FunctionalCpu` steps over one
:class:`~repro.isa.cpu.SharedMemory` — the architectural reference) and
:class:`KernelWorkload` (an :class:`~repro.isa.cpu.IsaThread` frontend
through the full event-driven system).  Both end in a final memory
image; :mod:`repro.isa.validate` gates on the two being bit-identical.

The kernels are *determinate*: their final memory image is independent
of interleaving (that is what the locks/barriers/fences are for), which
is what makes the functional-vs-timed comparison exact rather than
statistical.  :func:`run_functional` checks this directly by running
several seeded interleavings and insisting the images agree.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.messages import ReplySource
from .assembler import assemble
from .cpu import FunctionalCpu, IsaThread, SharedMemory

# ---------------------------------------------------------------------------
# shared data layout (everything below 0x8000 so pointers fit lda's
# signed 16-bit displacement; distinct kernels use disjoint regions so a
# combined suite could share one memory)

LOCK_ADDR = 0x4000        # spinlock word (line-aligned)
COUNTER_ADDR = 0x4040     # the counter it guards (its own line)

BAR_COUNT = 0x1000        # barrier arrival counter
BAR_SENSE = 0x1040        # barrier release word (holds completed rounds)
BAR_DONE = 0x1080         # per-CPU final round number, 8*tid (packed)

RING_DATA = 0x2000        # pair p, slot s payload @ +p*slots*64 + s*64
RING_FLAG = 0x2800        # matching full/empty flags, one line per slot
RING_SUM = 0x3000         # per-pair consumer checksum @ +p*64

MEMCPY_SRC = 0x5000       # per-CPU source block @ +tid*lines*64
MEMCPY_DST = 0x6000       # per-CPU destination block @ +tid*lines*64

FS_BASE = 0x7000          # false sharing: quadword tid%8 of line tid//8

_REGION_LIMIT = 0x8000    # lda r, imm(r31) reaches [0, 0x7fff]


@dataclass(frozen=True)
class IsaKernelParams:
    """Parameters for one kernel run.

    ``iterations`` is the per-CPU unit count (lock acquisitions, barrier
    rounds, messages per pair, lines copied, increments — the kernel's
    natural unit), the field :class:`KernelWorkload` names as its
    ``units_attr``.
    """

    kernel: str = "spinlock"
    iterations: int = 12
    ring_slots: int = 2           # ring: slots per producer/consumer pair
    max_instructions: int = 400_000   # per-CPU cap (spin loops included)


# ---------------------------------------------------------------------------
# kernel program builders: tid -> assembly source


def _spinlock_program(tid: int, nthreads: int, p: IsaKernelParams) -> str:
    return f"""
        lda   r10, {LOCK_ADDR}(r31)
        lda   r11, {COUNTER_ADDR}(r31)
        lda   r12, {p.iterations}(r31)
    again:
    acquire:
        ldq_l r1, 0(r10)
        bne   r1, acquire           ; lock held: spin on the lock line
        lda   r1, 1(r31)
        stq_c r1, 0(r10)
        beq   r1, acquire           ; lost the line: retry
        ldq   r2, 0(r11)            ; critical section
        addq  r2, #1, r2
        stq   r2, 0(r11)
        stq   r31, 0(r10)           ; release
        subq  r12, #1, r12
        bne   r12, again
        halt
    """


def _barrier_program(tid: int, nthreads: int, p: IsaKernelParams) -> str:
    return f"""
        lda   r10, {BAR_COUNT}(r31)
        lda   r11, {BAR_SENSE}(r31)
        lda   r15, {nthreads}(r31)
        lda   r12, {p.iterations}(r31)
        bis   r31, r31, r14         ; completed-rounds counter
    round:
        addq  r14, #1, r14          ; this round's number
    arrive:
        ldq_l r1, 0(r10)
        addq  r1, #1, r2
        bis   r2, r31, r1
        stq_c r1, 0(r10)
        beq   r1, arrive
        cmpeq r2, r15, r3
        bne   r3, last
    spin:
        ldq   r4, 0(r11)            ; wait for this round's release
        cmpeq r4, r14, r5
        beq   r5, spin
        br    next
    last:
        stq   r31, 0(r10)           ; reset arrivals for the next round
        mb                          ; reset must precede the release
        stq   r14, 0(r11)           ; publish round completion
    next:
        subq  r12, #1, r12
        bne   r12, round
        lda   r16, {BAR_DONE + 8 * tid}(r31)
        stq   r14, 0(r16)           ; record my final round
        halt
    """


def _ring_addrs(pair: int, p: IsaKernelParams) -> Tuple[int, int, int]:
    span = p.ring_slots * 64
    data, flag, summ = (RING_DATA + pair * span, RING_FLAG + pair * span,
                        RING_SUM + pair * 64)
    if flag + span > RING_SUM or RING_SUM + (pair + 1) * 64 > LOCK_ADDR:
        raise ValueError(
            f"ring layout overflow: pair {pair} x {p.ring_slots} slots")
    return data, flag, summ


def _ring_producer(pair: int, p: IsaKernelParams) -> str:
    data, flag, _ = _ring_addrs(pair, p)
    return f"""
        lda   r10, {data}(r31)
        lda   r11, {flag}(r31)
        lda   r12, {p.iterations}(r31)
        lda   r18, {p.ring_slots * 64}(r31)
        bis   r31, r31, r14         ; slot byte offset
        lda   r15, {pair + 1}(r31)  ; payload = (pair+1)<<16 | seq
        sll   r15, #16, r15
    send:
        lda   r15, 1(r15)
        addq  r10, r14, r16         ; &data[slot]
        addq  r11, r14, r17         ; &flag[slot]
    full:
        ldq   r1, 0(r17)
        bne   r1, full              ; slot still full: spin
        stq   r15, 0(r16)           ; write the payload
        mb                          ; payload before publication
        lda   r2, 1(r31)
        stq   r2, 0(r17)            ; publish
        lda   r14, 64(r14)
        cmpeq r14, r18, r3
        beq   r3, sent
        bis   r31, r31, r14         ; wrap the ring
    sent:
        subq  r12, #1, r12
        bne   r12, send
        halt
    """


def _ring_consumer(pair: int, p: IsaKernelParams) -> str:
    data, flag, summ = _ring_addrs(pair, p)
    return f"""
        lda   r10, {data}(r31)
        lda   r11, {flag}(r31)
        lda   r12, {p.iterations}(r31)
        lda   r18, {p.ring_slots * 64}(r31)
        lda   r19, {summ}(r31)
        bis   r31, r31, r14         ; slot byte offset
        bis   r31, r31, r20         ; checksum
    recv:
        addq  r10, r14, r16
        addq  r11, r14, r17
    empty:
        ldq   r1, 0(r17)
        beq   r1, empty             ; slot still empty: spin
        mb                          ; acquire: flag before payload
        ldq   r2, 0(r16)
        addq  r20, r2, r20
        mb                          ; payload read before slot release
        stq   r31, 0(r17)           ; mark empty
        lda   r14, 64(r14)
        cmpeq r14, r18, r3
        beq   r3, took
        bis   r31, r31, r14
    took:
        subq  r12, #1, r12
        bne   r12, recv
        stq   r20, 0(r19)           ; publish the checksum
        halt
    """


def _ring_selfpair(pair: int, p: IsaKernelParams) -> str:
    """Degenerate single-CPU pair (odd thread counts / P1): the same
    slot protocol, produced and consumed by one CPU in program order."""
    data, flag, summ = _ring_addrs(pair, p)
    return f"""
        lda   r10, {data}(r31)
        lda   r11, {flag}(r31)
        lda   r12, {p.iterations}(r31)
        lda   r18, {p.ring_slots * 64}(r31)
        lda   r19, {summ}(r31)
        bis   r31, r31, r14
        bis   r31, r31, r20
        lda   r15, {pair + 1}(r31)
        sll   r15, #16, r15
    step:
        lda   r15, 1(r15)
        addq  r10, r14, r16
        addq  r11, r14, r17
        stq   r15, 0(r16)
        mb
        lda   r2, 1(r31)
        stq   r2, 0(r17)
        mb
        ldq   r2, 0(r16)
        addq  r20, r2, r20
        mb
        stq   r31, 0(r17)
        lda   r14, 64(r14)
        cmpeq r14, r18, r3
        beq   r3, next
        bis   r31, r31, r14
    next:
        subq  r12, #1, r12
        bne   r12, step
        stq   r20, 0(r19)
        halt
    """


def _ring_program(tid: int, nthreads: int, p: IsaKernelParams) -> str:
    if nthreads == 1:
        return _ring_selfpair(0, p)
    if tid == nthreads - 1 and nthreads % 2:
        return _ring_selfpair(tid // 2, p)
    if tid % 2 == 0:
        return _ring_producer(tid // 2, p)
    return _ring_consumer(tid // 2, p)


def _memcpy_bounds(tid: int, p: IsaKernelParams) -> Tuple[int, int]:
    src = MEMCPY_SRC + tid * p.iterations * 64
    dst = MEMCPY_DST + tid * p.iterations * 64
    if src + p.iterations * 64 > MEMCPY_DST or \
            dst + p.iterations * 64 > FS_BASE:
        raise ValueError(
            f"memcpy layout overflow: tid {tid} x {p.iterations} lines")
    return src, dst


def _memcpy_program(tid: int, nthreads: int, p: IsaKernelParams) -> str:
    src, dst = _memcpy_bounds(tid, p)
    return f"""
        lda   r1, {src}(r31)
        lda   r2, {dst}(r31)
        lda   r3, {p.iterations}(r31)
    line:
        wh64  0(r2)                 ; take the line without fetching it
        lda   r4, 8(r31)
    qw:
        ldq   r5, 0(r1)
        stq   r5, 0(r2)
        lda   r1, 8(r1)
        lda   r2, 8(r2)
        subq  r4, #1, r4
        bne   r4, qw
        subq  r3, #1, r3
        bne   r3, line
        halt
    """


def _fs_slot(tid: int) -> int:
    addr = FS_BASE + (tid // 8) * 64 + (tid % 8) * 8
    if addr >= _REGION_LIMIT:
        raise ValueError(f"false-sharing layout overflow: tid {tid}")
    return addr


def _false_sharing_program(tid: int, nthreads: int,
                           p: IsaKernelParams) -> str:
    return f"""
        lda   r10, {_fs_slot(tid)}(r31)
        lda   r12, {p.iterations}(r31)
    bump:
        ldq   r1, 0(r10)            ; my own quadword -- but the line is
        addq  r1, #1, r1            ; shared with seven neighbours
        stq   r1, 0(r10)
        subq  r12, #1, r12
        bne   r12, bump
        halt
    """


# ---------------------------------------------------------------------------
# initial memory + architectural postconditions


def _memcpy_pattern(tid: int, qw: int) -> int:
    return ((tid + 1) << 32) + qw + 1


def _memcpy_init(memory: SharedMemory, nthreads: int,
                 p: IsaKernelParams) -> None:
    for tid in range(nthreads):
        src, _ = _memcpy_bounds(tid, p)
        for qw in range(p.iterations * 8):
            memory.store_q(src + qw * 8, _memcpy_pattern(tid, qw))


def _no_init(memory: SharedMemory, nthreads: int,
             p: IsaKernelParams) -> None:
    return None


def _spinlock_check(image: Dict[int, int], nthreads: int,
                    p: IsaKernelParams) -> None:
    total = nthreads * p.iterations
    got = image.get(COUNTER_ADDR, 0)
    assert got == total, (
        f"spinlock lost updates: counter={got}, expected {total}")
    assert LOCK_ADDR not in image, "spinlock left held"


def _barrier_check(image: Dict[int, int], nthreads: int,
                   p: IsaKernelParams) -> None:
    assert image.get(BAR_SENSE, 0) == p.iterations, (
        f"barrier sense={image.get(BAR_SENSE, 0)}, "
        f"expected {p.iterations}")
    assert BAR_COUNT not in image, "barrier arrivals not reset"
    for tid in range(nthreads):
        got = image.get(BAR_DONE + 8 * tid, 0)
        assert got == p.iterations, (
            f"cpu {tid} completed {got}/{p.iterations} rounds")


def _ring_pairs(nthreads: int) -> List[Tuple[int, bool]]:
    """(pair, selfpair) list for a thread count."""
    if nthreads == 1:
        return [(0, True)]
    pairs = [(i, False) for i in range(nthreads // 2)]
    if nthreads % 2:
        pairs.append(((nthreads - 1) // 2, True))
    return pairs


def _ring_check(image: Dict[int, int], nthreads: int,
                p: IsaKernelParams) -> None:
    m = p.iterations
    for pair, _self in _ring_pairs(nthreads):
        base = ((pair + 1) << 16)
        expected = m * base + m * (m + 1) // 2
        _, _, summ = _ring_addrs(pair, p)
        got = image.get(summ, 0)
        assert got == expected, (
            f"ring pair {pair}: checksum {got:#x} != {expected:#x}")
        span = p.ring_slots * 64
        for s in range(p.ring_slots):
            assert RING_FLAG + pair * span + s * 64 not in image, (
                f"ring pair {pair} slot {s} left full")


def _memcpy_check(image: Dict[int, int], nthreads: int,
                  p: IsaKernelParams) -> None:
    for tid in range(nthreads):
        src, dst = _memcpy_bounds(tid, p)
        for qw in range(p.iterations * 8):
            want = _memcpy_pattern(tid, qw)
            assert image.get(src + qw * 8, 0) == want, (
                f"memcpy cpu {tid} source corrupted at qw {qw}")
            assert image.get(dst + qw * 8, 0) == want, (
                f"memcpy cpu {tid} bad copy at qw {qw}")


def _false_sharing_check(image: Dict[int, int], nthreads: int,
                         p: IsaKernelParams) -> None:
    for tid in range(nthreads):
        got = image.get(_fs_slot(tid), 0)
        assert got == p.iterations, (
            f"false-sharing cpu {tid}: slot={got}, "
            f"expected {p.iterations} (lost updates on a private word!)")


@dataclass(frozen=True)
class KernelDef:
    """One kernel: program builder, memory preload, postcondition."""

    name: str
    program: Callable[[int, int, IsaKernelParams], str]
    init_memory: Callable[[SharedMemory, int, IsaKernelParams], None]
    check_final: Callable[[Dict[int, int], int, IsaKernelParams], None]
    uses_llsc: bool
    uses_wh64: bool


KERNELS: Dict[str, KernelDef] = {
    "spinlock": KernelDef("spinlock", _spinlock_program, _no_init,
                          _spinlock_check, uses_llsc=True, uses_wh64=False),
    "barrier": KernelDef("barrier", _barrier_program, _no_init,
                         _barrier_check, uses_llsc=True, uses_wh64=False),
    "ring": KernelDef("ring", _ring_program, _no_init, _ring_check,
                      uses_llsc=False, uses_wh64=False),
    "memcpy": KernelDef("memcpy", _memcpy_program, _memcpy_init,
                        _memcpy_check, uses_llsc=False, uses_wh64=True),
    "false_sharing": KernelDef("false_sharing", _false_sharing_program,
                               _no_init, _false_sharing_check,
                               uses_llsc=False, uses_wh64=False),
}

KERNEL_NAMES = tuple(sorted(KERNELS))


def kernel_programs(kernel: str, nthreads: int,
                    params: IsaKernelParams) -> List[List[int]]:
    """Assemble the per-thread instruction words for one kernel."""
    kdef = KERNELS[kernel]
    return [assemble(kdef.program(tid, nthreads, params))
            for tid in range(nthreads)]


def expected_membars(kernel: str, nthreads: int,
                     params: IsaKernelParams) -> int:
    """Analytic ``mb`` count from the program structure (exact)."""
    m = params.iterations
    if kernel == "barrier":
        return m                       # one per round, by the last arriver
    if kernel == "ring":
        # 1 mb per produce + 2 per consume, selfpair or not
        return 3 * m * len(_ring_pairs(nthreads))
    return 0


def expected_wh64(kernel: str, nthreads: int,
                  params: IsaKernelParams) -> int:
    return nthreads * params.iterations if kernel == "memcpy" else 0


# ---------------------------------------------------------------------------
# memory-image canonicalisation (shared by both execution models)


def memory_image(memory: SharedMemory) -> Dict[int, int]:
    """The non-zero final words, sorted by address.  Zero words are
    dropped on *both* sides of the comparison: the functional model
    materialises explicit zeros (lock releases, wh64 zero-fill) that an
    untouched word is architecturally indistinguishable from."""
    return {addr: value for addr, value in sorted(memory.words.items())
            if value}


def image_digest(image: Dict[int, int]) -> str:
    blob = json.dumps([[addr, value] for addr, value in sorted(image.items())],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# execution model 1: interleaved functional reference


@dataclass
class FunctionalRun:
    """Outcome of one interleaved functional execution."""

    kernel: str
    nthreads: int
    seed: int
    image: Dict[int, int]
    retired: List[int]              # per-tid instructions retired
    stq_c_failures: List[int]       # per-tid failed store-conditionals
    steps: int                      # total interleaved steps taken

    @property
    def digest(self) -> str:
        return image_digest(self.image)


def run_functional(kernel: str, nthreads: int,
                   params: Optional[IsaKernelParams] = None,
                   seed: int = 0) -> FunctionalRun:
    """Run one kernel on ``nthreads`` functional CPUs over one shared
    memory, interleaving them in a seeded pseudo-random order.

    The schedule is round-based — every non-halted CPU takes 1..8 steps
    per round, in a per-round shuffled order — so spin loops always make
    progress while the seed still varies the interleaving enough to
    shake out lost-update bugs.  The architectural postcondition
    (:attr:`KernelDef.check_final`) is asserted before returning.
    """
    params = params or IsaKernelParams(kernel=kernel)
    kdef = KERNELS[kernel]
    memory = SharedMemory()
    kdef.init_memory(memory, nthreads, params)
    cpus = [FunctionalCpu(words, memory, agent=tid)
            for tid, words in
            enumerate(kernel_programs(kernel, nthreads, params))]
    rng = random.Random(seed)
    budget = nthreads * params.max_instructions
    steps = 0
    live = list(range(nthreads))
    while live:
        rng.shuffle(live)
        for tid in list(live):
            for _ in range(rng.randint(1, 8)):
                cpus[tid].step()
                steps += 1
                if cpus[tid].state.halted:
                    break
            if steps > budget:
                raise RuntimeError(
                    f"{kernel}: functional run exceeded "
                    f"{budget} interleaved steps (livelock?)")
        live = [tid for tid in live if not cpus[tid].state.halted]
    image = memory_image(memory)
    kdef.check_final(image, nthreads, params)
    return FunctionalRun(
        kernel=kernel, nthreads=nthreads, seed=seed, image=image,
        retired=[c.state.instructions_retired for c in cpus],
        stq_c_failures=[c.state.stq_c_failures for c in cpus],
        steps=steps)


# ---------------------------------------------------------------------------
# execution model 2: timed workload through the full system


class KernelWorkload:
    """Workload frontend: one kernel across every CPU of the system.

    ``thread_for`` hands each (node, cpu) slot an :class:`IsaThread`
    over a shared functional memory, so the timed run's stores/loads
    interleave in simulated-time order through the real L1/L2/directory
    hierarchy.  ``post_run`` folds the architectural outcome — final
    memory image + digest, per-CPU retirement/``stq_c`` state, protocol
    counters and the exact stall decomposition — into
    ``result.extras["isa"]``, which is JSON-shaped and deterministic, so
    it rides the result cache like any other payload-adjacent document.
    """

    units_attr = "iterations"

    def __init__(self, params: IsaKernelParams, cpus_per_node: int = 8,
                 num_nodes: int = 1) -> None:
        if params.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {params.kernel!r}; "
                f"available: {', '.join(KERNEL_NAMES)}")
        self.params = params
        self.cpus_per_node = cpus_per_node
        self.num_nodes = num_nodes
        self.name = f"isa-{params.kernel}"
        self.ilp = IsaThread.ilp
        self.nthreads = cpus_per_node * num_nodes
        self.memory = SharedMemory()
        KERNELS[params.kernel].init_memory(self.memory, self.nthreads,
                                           params)
        self._words = kernel_programs(params.kernel, self.nthreads, params)
        #: tid -> FunctionalCpu, for post-run architectural inspection
        self.cpus: Dict[int, FunctionalCpu] = {}

    def _tid(self, node: int, cpu: int) -> int:
        return node * self.cpus_per_node + cpu

    def thread_for(self, node: int, cpu: int):
        tid = self._tid(node, cpu)
        if tid >= self.nthreads:
            return None
        from ..workloads.base import WorkloadThread

        fcpu = FunctionalCpu(self._words[tid], self.memory, agent=tid,
                             code_base=0x7000_0000 + tid * 0x1000)
        self.cpus[tid] = fcpu
        thread = IsaThread(fcpu,
                           max_instructions=self.params.max_instructions)
        return WorkloadThread(iter(thread), ilp=self.ilp, name=thread.name)

    # -- post-run architectural audit -------------------------------------

    def post_run(self, system, result) -> None:
        for tid in sorted(self.cpus):
            state = self.cpus[tid].state
            if not state.halted:
                raise RuntimeError(
                    f"{self.name}: cpu {tid} did not reach halt "
                    f"(pc={state.pc}, "
                    f"retired={state.instructions_retired})")
        image = memory_image(self.memory)
        counters = system.sample_counters()
        stall = {src.name.lower(): int(sum(
            cpu.stall_ps[src] for cpu in system.all_cpus()))
            for src in ReplySource}
        stall["fence"] = int(sum(
            cpu.fence_stall_ps for cpu in system.all_cpus()))
        result.extras["isa"] = {
            "kernel": self.params.kernel,
            "nthreads": self.nthreads,
            "mem_digest": image_digest(image),
            "mem_image": {f"{addr:#x}": value
                          for addr, value in image.items()},
            "cpus": {
                str(tid): {
                    "retired": self.cpus[tid].state.instructions_retired,
                    "stq_c_failures": self.cpus[tid].state.stq_c_failures,
                    "halted": self.cpus[tid].state.halted,
                }
                for tid in sorted(self.cpus)
            },
            "counters": {
                key: int(counters[key])
                for key in ("instructions", "l1_lookups", "l1_hits",
                            "l1_upgrades", "l2_requests", "l2_hits",
                            "l2_fwds", "l2_upgrades", "l2_local_mem",
                            "l2_remote_mem", "l2_remote_dirty",
                            "packets_sent")
            },
            "wh64_issued": int(sum(
                cpu.c_wh64.value for cpu in system.all_cpus())),
            "membars": int(sum(
                cpu.c_membar.value for cpu in system.all_cpus())),
            "stall_ps": stall,
        }


@dataclass(frozen=True)
class IsaKernelFactory:
    """Picklable, cache-tokenable factory for the harness/sweep paths.

    The frozen-dataclass repr is the workload token
    (:func:`repro.harness.cache.workload_token`), so every kernel and
    parameter choice lands in the memo and disk cache keys for free —
    the same folding discipline as every prior subsystem.
    """

    params: Optional[IsaKernelParams] = None

    @staticmethod
    def scaled(scale: float) -> IsaKernelParams:
        return scaled_params("spinlock", scale)

    def __call__(self, config, num_nodes: int) -> KernelWorkload:
        from ..harness.runner import scale_factor

        return KernelWorkload(self.params or self.scaled(scale_factor()),
                              cpus_per_node=config.cpus, num_nodes=num_nodes)


def scaled_params(kernel: str, scale: float = 1.0) -> IsaKernelParams:
    """REPRO_SCALE-aware defaults: enough iterations per CPU that the
    sharing pattern dominates cold-start, small enough that a 32-CPU
    timed run stays interactive."""
    base = {"spinlock": 8, "barrier": 6, "ring": 12, "memcpy": 8,
            "false_sharing": 24}[kernel]
    return IsaKernelParams(kernel=kernel,
                           iterations=max(2, int(base * scale)))
