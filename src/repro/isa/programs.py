"""Sample assembly programs for examples and tests."""

from __future__ import annotations

from .assembler import assemble


def spinlock_increment(lock: int, counter: int, times: int) -> list:
    """Acquire a ldq_l/stq_c spinlock, bump a shared counter, release;
    repeat ``times`` times."""
    return assemble(f"""
        lda   r10, {lock}(r31)
        lda   r11, {counter}(r31)
        lda   r12, {times}(r31)
    again:
    acquire:
        ldq_l r1, 0(r10)
        bne   r1, acquire           ; lock held: spin
        lda   r1, 1(r31)
        stq_c r1, 0(r10)
        beq   r1, acquire           ; stq_c failed: retry
        ldq   r2, 0(r11)            ; critical section
        addq  r2, #1, r2
        stq   r2, 0(r11)
        stq   r31, 0(r10)           ; release
        subq  r12, #1, r12
        bne   r12, again
        halt
    """)
