"""Shared helpers for the package's randomized APIs.

:func:`resolve_rng` is the one sanctioned way to turn a ``(seed, rng)``
pair into a random stream; lint R1 exempts this module, which is why it
may touch :mod:`random` directly.
"""

from __future__ import annotations

import random
from typing import Optional, Union

__all__ = ["resolve_rng"]


def resolve_rng(
    seed: Optional[Union[int, str]] = None,
    rng: Optional[random.Random] = None,
    default_seed: int = 0,
) -> random.Random:
    """The one way every randomized API turns ``(seed, rng)`` into a stream.

    Callers pass *either* a ``seed`` (a fresh ``random.Random(seed)`` is
    returned, so fixed seeds give byte-identical runs) *or* an existing
    ``rng`` to share a stream across calls; passing both is ambiguous and
    raises.  With neither, ``default_seed`` keeps the historical
    deterministic default of each call site.  String seeds are for derived
    streams (``f"{seed}:diff:{i}"``) — namespacing one integer seed into
    many independent, individually replayable streams.
    """
    if rng is not None:
        if seed is not None:
            raise ValueError("pass either seed or rng, not both")
        return rng
    return random.Random(default_seed if seed is None else seed)
