"""Simulated multi-rank domain decomposition (``ranks=K`` in the config).

Layers, bottom up:

* :mod:`repro.distributed.partition` — Hilbert-key-range decomposition
  (static equal-count or work-weighted splits);
* :mod:`repro.distributed.let` — locally-essential-tree halo selection
  with the grouped traversal's conservative MAC, plus the cross-rank
  force (the single-rank force driver with foreign targets);
* :mod:`repro.distributed.fabric` — alpha-beta interconnect model
  (uniform or NVLink-intra / IB-inter hierarchical topologies);
* :mod:`repro.distributed.balance` — rebalance cadence and counter-fed
  per-body work weights;
* :mod:`repro.distributed.runtime` — the BSP pipeline binding them to
  ``core.Simulation``.
"""

from repro.distributed.balance import WorkBalancer
from repro.distributed.fabric import Fabric, FabricTraffic
from repro.distributed.let import (
    LETPlan,
    build_let_plan,
    let_node_bytes,
    remote_accelerations,
)
from repro.distributed.partition import (
    DECOMPOSITION_MODES,
    DomainDecomposition,
    decompose,
    hilbert_keys,
)
from repro.distributed.runtime import DistributedReport, DistributedRuntime

__all__ = [
    "WorkBalancer",
    "Fabric",
    "FabricTraffic",
    "LETPlan",
    "build_let_plan",
    "let_node_bytes",
    "remote_accelerations",
    "DECOMPOSITION_MODES",
    "DomainDecomposition",
    "decompose",
    "hilbert_keys",
    "DistributedReport",
    "DistributedRuntime",
]
