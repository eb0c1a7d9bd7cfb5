"""Deliberate protocol mutations for differential testing.

Each mutation installs a deterministic fault into a built
:class:`~repro.core.system.PiranhaSystem` by overriding *instance*
methods (never classes — systems in the same process stay isolated).
An override is a :func:`functools.partial` of a module-level fault
function that falls through to the class's method, so a mutated system
still snapshots through stock pickle.
A shared :class:`Ticker` makes the fault fire on every Nth opportunity
system-wide, so a mutated run is exactly as reproducible as a clean
one.

These serve two purposes: they prove the fuzz oracles can actually see
protocol bugs (CI runs a mutated smoke alongside the clean one), and
they give the shrinker realistic failures to minimise.  The roster is
chosen so the two oracles have distinct blind spots covered:

``lost_inval``
    a remote invalidation is acknowledged without invalidating —
    visible both to the structural sanitizer (hidden copies at quiesce)
    and to the reference checker (stale-value reads);
``stale_share``
    a SHARED fill serves the previous version of the line — the
    structures stay perfectly consistent, only *values* are wrong, so
    the reference checker alone catches it;
``skip_fence``
    a memory barrier reports completion while invalidation acks are
    still outstanding — the paper's eager-exclusive-reply window leaks
    past the MB, breaking exactly the message-passing axiom the
    reference checker's membar tracking encodes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

from ..core.messages import MESI


class Ticker:
    """Shared deterministic trigger: fires every *period*-th opportunity."""

    def __init__(self, period: int) -> None:
        self.period = max(1, int(period))
        self.calls = 0
        self.fired = 0

    def fire(self) -> bool:
        self.calls += 1
        if self.calls % self.period:
            return False
        self.fired += 1
        return True


#: name -> installer(system, ticker)
MUTATIONS: Dict[str, Callable] = {}


def _mutation(name: str):
    def register(fn):
        MUTATIONS[name] = fn
        return fn
    return register


def apply_mutation(system, name: str, period: int = 1) -> Ticker:
    """Install mutation *name* into *system*; returns its Ticker so the
    caller can report how often the fault actually fired."""
    try:
        installer = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r} (have: {sorted(MUTATIONS)})")
    ticker = Ticker(period)
    installer(system, ticker)
    return ticker


@_mutation("lost_inval")
def _lost_inval(system, ticker: Ticker) -> None:
    """Every Nth remote invalidation acks without touching the caches."""
    for node in system.nodes:
        for bank in node.banks:
            bank.service_invalidate = partial(_lost_inval_fault, ticker, bank)


def _lost_inval_fault(ticker: Ticker, bank, line, on_done, entry,
                      epoch=None) -> None:
    if ticker.fire():
        bank.schedule(bank.t_tag + bank.t_ics, on_done, entry)
        return
    type(bank).service_invalidate(bank, line, on_done, entry, epoch)


@_mutation("stale_share")
def _stale_share(system, ticker: Ticker) -> None:
    """Every Nth SHARED fill delivers the line's previous version."""
    for node in system.nodes:
        for bank in node.banks:
            bank._fill = partial(_stale_share_fault, ticker, bank)


def _stale_share_fault(ticker: Ticker, bank, req, line, state, owner,
                       version, dirty, source) -> None:
    if state == MESI.SHARED and version > 0 and ticker.fire():
        version -= 1
    type(bank)._fill(bank, req, line, state, owner, version, dirty, source)


@_mutation("skip_fence")
def _skip_fence(system, ticker: Ticker) -> None:
    """Every Nth memory barrier completes without draining the CPU's
    outstanding invalidation acks."""
    for node in system.nodes:
        node.fence = partial(_skip_fence_fault, ticker, node)


def _skip_fence_fault(ticker: Ticker, node, cpu_id, resume) -> bool:
    if ticker.fire():
        return True
    return type(node).fence(node, cpu_id, resume)
