"""Deterministic random-number substreams.

Every stochastic element of the simulation (workload address streams,
router arbitration tie-breaks, the DC-balanced encoder's random 19th bit)
draws from a named substream derived from a single root seed.  This makes
every experiment bit-reproducible while keeping streams statistically
independent of one another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Tag = Union[str, int]


def substream(root_seed: int, *tags: Tag) -> random.Random:
    """Return an independent :class:`random.Random` for ``(root_seed, *tags)``.

    The same (seed, tags) pair always produces the same stream; distinct
    tags produce statistically independent streams.  SHA-256 is used purely
    as a stable mixing function (Python's ``hash`` is salted per-process and
    unsuitable).
    """
    material = repr((root_seed,) + tags).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def derive_seed(root_seed: int, *tags: Tag) -> int:
    """Return a stable 63-bit integer seed for ``(root_seed, *tags)``."""
    material = repr((root_seed,) + tags).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)
