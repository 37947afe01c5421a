"""Multi-node transaction processing (§2, [Ra91]/[Ra92]).

One substrate for both of the paper's multi-node models, selected by
``ClusterConfig.sharing``:

* ``"nothing"`` (default): the workload-allocation argument's sharded
  Debit-Credit database across loosely coupled computing modules.
  ``num_nodes`` complete single-node TPSIM stacks (own devices,
  buffer, lock table, log) over disjoint branch shards, presumed-abort
  2PC with per-phase log forces through each node's real log device,
  per-node crash injection with GEM failover for in-doubt pieces, and
  a price-performance model for ``$/tps`` comparisons.
* ``"disk"``: data sharing ([BHR91]/[Ra91]).  Nodes with their own
  CPUs and buffers over one shared database, central locking,
  broadcast invalidation and an optional global extended memory
  (:mod:`repro.cluster.shared_disk`).

Import note: this module stays import-light (config, partitioning,
workload).  Build a runnable cluster through
:meth:`ClusterConfig.build_system` or import
:class:`repro.cluster.system.ClusterSystem` directly — the system
module pulls in the recovery and distributed layers.
"""

from repro.cluster.config import (
    DEFAULT_NODE_PRICE,
    ClusterConfig,
    cluster_config,
    node_scheme,
)
from repro.cluster.cost import cluster_cost, node_cost
from repro.cluster.partition import PartitionMap
from repro.cluster.workload import ShardedDebitCreditWorkload

__all__ = [
    "DEFAULT_NODE_PRICE",
    "ClusterConfig",
    "PartitionMap",
    "ShardedDebitCreditWorkload",
    "cluster_config",
    "cluster_cost",
    "node_cost",
    "node_scheme",
]
