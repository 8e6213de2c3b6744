"""Cross-session structure sharing with content-addressed entries.

Identical-config tenants running identical workloads pass through
identical position states step for step, so the tree build, the grouped
or dual interaction lists, and the flat index expansions one session
computes are exactly the artifacts every twin session needs at the same
step.  The :class:`SharedStructureCache` makes that reuse safe by
construction: entries are keyed by

* the structure key (``"octree"`` / ``"bvh"`` / ``"octree-2stage"``),
* a **complete config fingerprint** (:func:`config_fingerprint` —
  every field that can influence a cached structure or list: algorithm,
  tree grid bits, curve, multipole order, theta, traversal, group size,
  cc_mac, expansion order, eval mode, gravity), and
* a **state digest** (:func:`state_digest` — blake2b over the exact
  position and mass bytes).

A hit therefore proves the cached entry was built from bit-identical
inputs under a bit-identical configuration — serving a stale or
mismatched list is structurally impossible, with no age bookkeeping to
get wrong across sessions.  Eviction is LRU under a byte budget, with
hit/miss/eviction counters for the per-tenant metrics lanes.

Sharing engages only for ``tree_update="rebuild"``,
``tree_reuse_steps=1``, ``ranks=1`` configurations (the service-layer
default): every other mode keeps epoch state across steps (the
session's :class:`~repro.maintenance.TreeMaintainer` or distributed
runtime), which is inherently private.  Unsupported configs fall
through to the session's own state untouched.

The cache plugs into :mod:`repro.core.algorithms` through the
``"_shared"`` marker of a simulation's tree-cache dict — see
``Simulation(tree_cache={"_shared": shared})``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict

import numpy as np

from repro.maintenance.policy import MaintenancePolicy

#: Config fields that cannot influence any cached structure, list, or
#: per-epoch precompute: integration step size, accounting-only widths,
#: and the distributed-fabric parameters (sharing requires ranks=1).
_FINGERPRINT_EXCLUDED = (
    "dt",
    "simt_width",
    "interconnect",
    "ranks_per_node",
    "inter_interconnect",
    "rebalance_steps",
    "unsafe_relax_policy",
)


def config_fingerprint(config) -> str:
    """Deterministic fingerprint of every cache-relevant config field."""
    fields = dataclasses.asdict(config)
    for name in _FINGERPRINT_EXCLUDED:
        fields.pop(name, None)
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def state_digest(x: np.ndarray, m: np.ndarray) -> str:
    """blake2b over the exact position + mass bytes (shape-prefixed)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((x.shape, str(x.dtype))).encode())
    h.update(np.ascontiguousarray(x).tobytes())
    h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def entry_nbytes(entry) -> int:
    """Approximate byte size of a cache entry (ndarray payloads)."""
    seen: set[int] = set()

    def walk(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            return int(obj.nbytes)
        if isinstance(obj, dict):
            return sum(walk(v) for v in obj.values())
        if isinstance(obj, (tuple, list)):
            return sum(walk(v) for v in obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return sum(
                walk(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            )
        if hasattr(obj, "__dict__"):
            return walk(vars(obj))
        return 0

    return walk(entry)


class SharedStructureCache:
    """Content-addressed LRU cache of structure-cache entries.

    One instance is shared by every session the server hosts with
    sharing enabled.  ``lookup`` returns the full entry dict (structure,
    force-ready ``"tree"``, and any interaction lists / flat expansions
    previous force evaluations stored into it) or ``None``; ``store``
    inserts a fresh entry that the ongoing force evaluation then
    populates in place — so the *lists* built this step are shared as
    soon as they exist.
    """

    def __init__(self, byte_budget: int = 256 * 1024 * 1024):
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        self.byte_budget = int(byte_budget)
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        self.stats = {
            "hits": 0, "misses": 0, "stores": 0, "evictions": 0,
        }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Current payload bytes (recomputed: entries grow in place)."""
        return sum(entry_nbytes(e) for e in self._entries.values())

    @staticmethod
    def supports(config) -> bool:
        """Sharing is exact only for stateless-across-steps configs."""
        return MaintenancePolicy.mode_for(config) == "rebuild" and config.ranks == 1

    def _key(self, struct_key: str, config, system) -> tuple:
        return (
            struct_key,
            config_fingerprint(config),
            state_digest(system.x, system.m),
        )

    def _charge_digest(self, system, ctx) -> None:
        """Model the digest pass: one streaming read of x and m."""
        if ctx is None:
            return
        with ctx.step("encode"):
            ctx.counters.add(
                bytes_read=float(system.x.nbytes + system.m.nbytes),
                loop_iterations=float(system.n),
                kernel_launches=1.0,
            )

    # ------------------------------------------------------------------
    def lookup(self, struct_key: str, config, system, *, ctx=None):
        """The shared entry for this exact (config, state), or None."""
        if not self.supports(config):
            return None
        self._charge_digest(system, ctx)
        key = self._key(struct_key, config, system)
        entry = self._entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        self._entries.move_to_end(key)
        return entry

    def store(self, struct_key: str, config, system, structure, *, ctx=None):
        """Insert a fresh entry; returns it (None when unsupported)."""
        if not self.supports(config):
            return None
        entry = {"structure": structure}
        key = self._key(struct_key, config, system)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats["stores"] += 1
        self._evict()
        return entry

    def _evict(self) -> None:
        """Drop LRU entries until the byte budget holds (keep newest)."""
        while len(self._entries) > 1 and self.nbytes > self.byte_budget:
            self._entries.popitem(last=False)
            self.stats["evictions"] += 1

    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        """Counters + occupancy for metrics and bench records."""
        total = self.stats["hits"] + self.stats["misses"]
        return {
            **self.stats,
            "entries": len(self._entries),
            "nbytes": self.nbytes,
            "hit_rate": self.stats["hits"] / total if total else 0.0,
        }
