"""The multi-node cluster: N nodes plus the glue between them.

:class:`ClusterSystem` wires ``num_nodes`` nodes onto one simulation
environment and routes every transaction to a node: its home node when
it has one, round-robin otherwise.  ``ClusterConfig.sharing`` picks
the node model:

* ``"nothing"``: complete per-node stacks
  (:class:`~repro.cluster.node.ClusterNode`) over disjoint shards,
  with the little shared state two-phase commit needs — the **GEM
  decision table** (commit decisions mirrored into global extended
  memory at decision-force time, which lets a survivor resolve a
  crashed coordinator's in-doubt participants; presumed abort for
  everything not in the table) and the **pending-piece registry** the
  GEM failover walks;
* ``"disk"``: data-sharing nodes
  (:class:`~repro.cluster.shared_disk.SharedDiskNode`) over one shared
  database (:class:`~repro.cluster.shared_disk.SharedDisk`).

Both modes talk over one **message bus** (send/receive CPU bursts +
wire latency) and share one run loop, result path and per-node
accounting.  The public surface mirrors
:class:`~repro.core.model.TransactionSystem` (``run`` / ``snapshot`` /
``tm.submit``), so the experiment runner and exporters treat a cluster
point exactly like a central one.  A shared-nothing point adds a
populated ``cluster`` block to its Results (nodes, $ cost, 2PC
counters) and prefixes device names with the node (``n0:db0``); a
shared-disk point reports its one storage subsystem unprefixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.cost import cluster_cost
from repro.cluster.faults import ClusterFaultInjector
from repro.cluster.node import ClusterNode
from repro.cluster.shared_disk import SharedDisk, SharedDiskNode
from repro.cluster.twopc import RemotePiece
from repro.core.metrics import MetricsCollector, Results
from repro.core.model import measured_run
from repro.core.transaction import Transaction
from repro.distributed.messages import MessageBus
from repro.sim import Environment, RandomStreams

__all__ = ["ClusterRouter", "ClusterSystem", "NodeResults"]


@dataclass
class NodeResults:
    """One node's share of the measurement window (committed only)."""

    node_id: int
    committed: int
    cpu_utilization: float


class ClusterRouter:
    """The system's ``tm``: submits to the home node (round-robin for a
    transaction without one), aggregates queues."""

    def __init__(self, system: "ClusterSystem"):
        self.system = system
        self._next = 0

    def submit(self, tx: Transaction) -> None:
        nodes = self.system.nodes
        home = getattr(tx, "home_node", None)
        if home is None:
            home = self._next
            self._next = (home + 1) % len(nodes)
        nodes[home].tm.submit(tx)

    @property
    def input_queue_length(self) -> int:
        # The saturation guard trips on the *worst* node: one diverging
        # shard makes the whole cluster's response times unbounded.
        return max(node.tm.input_queue_length
                   for node in self.system.nodes)

    @property
    def submitted(self) -> int:
        return sum(node.tm.submitted for node in self.system.nodes)


class ClusterSystem:
    """N-node cluster: shared-nothing with presumed-abort 2PC, or
    shared-disk data sharing."""

    def __init__(self, config: ClusterConfig, workload,
                 seed: Optional[int] = None):
        config.validate()
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(seed if seed is not None
                                     else config.seed)
        self.metrics = MetricsCollector(self.env)
        self.bus = MessageBus(self.env, config.coupling)
        #: The shared database of ``sharing="disk"`` (``None`` when the
        #: nodes own shards).
        self.shared: Optional[SharedDisk] = None
        if config.sharing == "disk":
            self.shared = SharedDisk(self)
            node_type = SharedDiskNode
        else:
            self.metrics.cluster_enabled = True
            self.metrics.cluster_nodes = config.num_nodes
            self.metrics.cluster_cost = cluster_cost(config)
            node_type = ClusterNode
        # Observability rides on the node template's TraceConfig.  The
        # tracer must exist before the nodes: each node wires a
        # per-node view (shared span buffer, node-tagged) into its own
        # components.
        trace_cfg = config.node.trace
        self.tracer = None
        self.telemetry = None
        if trace_cfg.enabled:
            from repro.trace.tracer import Tracer

            self.tracer = Tracer(self.env, streams=self.streams,
                                 sample=trace_cfg.sample,
                                 max_spans=trace_cfg.max_spans)
            self.metrics.tracer = self.tracer
        if trace_cfg.latency_detail:
            self.metrics.latency_detail = True
            self.metrics.slo_threshold = trace_cfg.slo_ms / 1000.0
        self.nodes = [node_type(i, self) for i in range(config.num_nodes)]
        self.tm = ClusterRouter(self)
        if trace_cfg.telemetry_interval > 0:
            from repro.trace.telemetry import TelemetrySampler

            self.telemetry = TelemetrySampler(
                self, trace_cfg.telemetry_interval,
                max_samples=trace_cfg.telemetry_max_samples)
            self.metrics.telemetry = self.telemetry
        self.faults = ClusterFaultInjector(self)
        #: GEM-mirrored commit decisions (tx_id -> True), written at
        #: decision-force time, dropped once every participant learned
        #: the outcome.
        self.decisions: Dict[int, bool] = {}
        #: Live distributed transactions: tx_id -> (home, pieces).
        self._pending: Dict[int, Tuple[int, List[RemotePiece]]] = {}
        self._branch_counter = 0
        self._node_completed_base = [0] * config.num_nodes
        self.workload = workload
        self._started = False

    # -- 2PC shared state ------------------------------------------------
    def next_branch_id(self) -> int:
        """Unique id for a branch transaction.  Negative, so branch ids
        can never collide with workload tx ids in a node's lock table."""
        self._branch_counter += 1
        return -self._branch_counter

    def register_pieces(self, tx, pieces: List[RemotePiece]) -> None:
        self._pending[tx.tx_id] = (tx.home_node, pieces)

    def pending_pieces(self, tx) -> List[RemotePiece]:
        """The registered remote pieces of ``tx`` (none if local)."""
        entry = self._pending.get(tx.tx_id)
        return entry[1] if entry is not None else []

    def clear_pieces(self, tx) -> None:
        self._pending.pop(tx.tx_id, None)
        self.decisions.pop(tx.tx_id, None)

    def record_decision(self, tx_id: int) -> None:
        """Mirror a forced commit decision into GEM."""
        self.decisions[tx_id] = True

    def resolve_in_doubt(self, node_id: int) -> None:
        """GEM failover for a crashed coordinator: every piece it left
        pending commits if its decision is mirrored, else aborts
        (presumed abort)."""
        orphaned = [tx_id for tx_id, (home, _) in self._pending.items()
                    if home == node_id]
        resolved = 0
        for tx_id in orphaned:
            _, pieces = self._pending.pop(tx_id)
            outcome = "commit" if self.decisions.pop(tx_id, False) \
                else "abort"
            for piece in pieces:
                if not piece.decision.triggered:
                    piece.decision.succeed(outcome)
                    resolved += 1
        if resolved:
            self.metrics.record_failover(resolved)

    # -- lifecycle (mirrors TransactionSystem) ---------------------------
    def start_workload(self) -> None:
        if not self._started:
            prewarm = getattr(self.workload, "prewarm", None)
            if prewarm is not None:
                prewarm(self if self.shared is None else self.shared)
            self.faults.start()
            if self.telemetry is not None:
                self.telemetry.start()
            self.workload.start(self)
            self._started = True

    def _reset_measurements(self) -> None:
        self.metrics.reset()
        for node in self.nodes:
            node.cpu.reset_stats()
        if self.shared is not None:
            self.shared.reset_stats()
        else:
            for node in self.nodes:
                node.storage.reset_stats()
        self.bus.stats.reset()
        self._node_completed_base = [node.tm.completed
                                     for node in self.nodes]

    def run(self, warmup: float = 5.0, duration: float = 30.0,
            saturation_queue_limit: Optional[int] = None) -> Results:
        return measured_run(
            self, warmup, duration, saturation_queue_limit,
            default_queue_limit=4 * self.config.node.cm.mpl,
        )

    def snapshot(self) -> Results:
        if self.shared is not None:
            devices = self.shared.storage.utilization_report()
        else:
            devices = {}
            for node in self.nodes:
                for name, report in \
                        node.storage.utilization_report().items():
                    devices[f"n{node.node_id}:{name}"] = report
        cpu_util = sum(n.cpu.utilization for n in self.nodes) / \
            len(self.nodes)
        return self.metrics.finalize(
            cpu_utilization=cpu_util,
            device_utilization=devices,
        )

    def node_results(self) -> List[NodeResults]:
        """Per-node committed counts for the measurement window only
        (deltas against the post-warm-up baseline, matching the
        committed-only rule of the shared metrics)."""
        return [
            NodeResults(
                node_id=node.node_id,
                committed=node.tm.completed -
                self._node_completed_base[node.node_id],
                cpu_utilization=node.cpu.utilization,
            )
            for node in self.nodes
        ]

    def message_stats(self) -> Dict[str, int]:
        return self.bus.stats.as_dict()
