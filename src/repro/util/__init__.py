"""Utility helpers shared across the reproduction.

Everything in the project is deterministic: all randomness flows through
seeded :class:`random.Random` instances created by :func:`repro.util.rand.rng`
or forked with :func:`repro.util.rand.fork`.  Pure compile-style
derivations (script bytecode, regex parses, eTLD+1) are
memoised process-wide through :mod:`repro.util.lru` (see DESIGN §11).
"""

from repro.util.ids import IdMinter
from repro.util.lru import (
    LruCache,
    cache_stats,
    caches_disabled,
    caches_enabled,
    clear_all_caches,
    set_caches_enabled,
)
from repro.util.rand import fork, rng, weighted_choice, zipf_weights

__all__ = [
    "IdMinter",
    "LruCache",
    "cache_stats",
    "caches_disabled",
    "caches_enabled",
    "clear_all_caches",
    "fork",
    "rng",
    "set_caches_enabled",
    "weighted_choice",
    "zipf_weights",
]
