"""Sharded Debit-Credit workload for the cluster.

The Debit-Credit database is range-partitioned by branch: node *n*
owns ``branches_per_node`` branches with their tellers, accounts and
history.  Every transaction arrives at the home node of its branch; a
configurable ``distributed_fraction`` of transactions debit an account
owned by a *different* node — the classic "15% remote account"
reading of the benchmark's K%-rule under sharding — and must commit
through two-phase commit.  The remaining home-node accesses (HISTORY
append, BRANCH and TELLER updates) always stay local.

Reference order preserves the central workload's deadlock-free
discipline: the single ACCOUNT page is always (locally or remotely)
locked before the home BRANCH/TELLER page.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.partition import PartitionMap
from repro.cluster.twopc import ClusterTransaction
from repro.core.transaction import ObjectRef
from repro.workload.base import PoissonArrivals
from repro.workload.debit_credit import (
    P_ACCOUNT,
    P_BRANCH_TELLER,
    P_HISTORY,
)

__all__ = ["ShardedDebitCreditWorkload"]

_HISTORY_OBJECTS = 10_000_000  # circular append file, per node


class ShardedDebitCreditWorkload:
    """SOURCE generating sharded Debit-Credit transactions."""

    def __init__(self, arrival_rate_per_node: float,
                 num_nodes: int,
                 branches_per_node: int = 25,
                 tellers_per_branch: int = 10,
                 accounts_per_branch: int = 2_000,
                 account_block_factor: int = 10,
                 history_block_factor: int = 20,
                 distributed_fraction: float = 0.15):
        if arrival_rate_per_node <= 0:
            raise ValueError("arrival rate must be positive")
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if not 0.0 <= distributed_fraction <= 1.0:
            raise ValueError("distributed fraction must be in [0, 1]")
        self.arrival_rate_per_node = arrival_rate_per_node
        self.num_nodes = num_nodes
        self.branches_per_node = branches_per_node
        self.tellers_per_branch = tellers_per_branch
        self.accounts_per_branch = accounts_per_branch
        self.account_block_factor = account_block_factor
        self.history_block_factor = history_block_factor
        self.distributed_fraction = distributed_fraction
        self._bt_block = 1 + tellers_per_branch
        self._pmap = PartitionMap(num_nodes)
        self._history_cursors = [0] * num_nodes
        self._tx_counter = 0

    @classmethod
    def for_cluster(cls, config, arrival_rate_per_node: float,
                    distributed_fraction: float = 0.15
                    ) -> "ShardedDebitCreditWorkload":
        """Workload matching a ClusterConfig's shard geometry."""
        return cls(
            arrival_rate_per_node=arrival_rate_per_node,
            num_nodes=config.num_nodes,
            branches_per_node=config.branches_per_node,
            tellers_per_branch=config.tellers_per_branch,
            accounts_per_branch=config.accounts_per_branch,
            distributed_fraction=distributed_fraction,
        )

    def fingerprint_data(self) -> dict:
        """Simulation-determining parameters for the point cache
        (constructor arguments only; generation counters are per-run)."""
        return {
            "arrival_rate_per_node": self.arrival_rate_per_node,
            "num_nodes": self.num_nodes,
            "branches_per_node": self.branches_per_node,
            "tellers_per_branch": self.tellers_per_branch,
            "accounts_per_branch": self.accounts_per_branch,
            "account_block_factor": self.account_block_factor,
            "history_block_factor": self.history_block_factor,
            "distributed_fraction": self.distributed_fraction,
        }

    # -- record selection ------------------------------------------------
    def _account_ref(self, streams) -> ObjectRef:
        """One account reference in a node's local object space."""
        branch = streams.uniform_int("cdc-acct-branch", 0,
                                     self.branches_per_node - 1)
        offset = streams.uniform_int("cdc-account", 0,
                                     self.accounts_per_branch - 1)
        account = branch * self.accounts_per_branch + offset
        return ObjectRef(P_ACCOUNT, account,
                         account // self.account_block_factor, True,
                         tag="ACCOUNT")

    def make_transaction(self, streams) -> ClusterTransaction:
        # A global branch draw routed through the partition map, so the
        # map (not the workload) owns the account/branch -> node rule.
        global_branch = streams.uniform_int(
            "cdc-branch", 0,
            self.num_nodes * self.branches_per_node - 1)
        home = self._pmap.node_of(global_branch)
        branch = self._pmap.local_index(global_branch)
        teller = streams.uniform_int("cdc-teller", 0,
                                     self.tellers_per_branch - 1)
        distributed = self.num_nodes > 1 and streams.bernoulli(
            "cdc-dist", self.distributed_fraction)

        history = self._history_cursors[home]
        self._history_cursors[home] = (history + 1) % _HISTORY_OBJECTS

        bt_page = branch  # clustering: one page per branch
        branch_obj = branch * self._bt_block
        teller_obj = branch_obj + 1 + teller

        home_refs = [
            ObjectRef(P_HISTORY, history,
                      history // self.history_block_factor, True,
                      tag="HISTORY"),
            ObjectRef(P_BRANCH_TELLER, branch_obj, bt_page, True,
                      tag="BRANCH"),
            ObjectRef(P_BRANCH_TELLER, teller_obj, bt_page, True,
                      tag="TELLER"),
        ]
        remote_work: List[Tuple[int, Tuple[ObjectRef, ...]]] = []
        if distributed:
            # The account lives on another node: one remote piece,
            # executed and prepared there before any home lock is taken.
            other = streams.uniform_int("cdc-remote", 0,
                                        self.num_nodes - 2)
            remote = other if other < home else other + 1
            remote_work.append((remote, (self._account_ref(streams),)))
        else:
            home_refs.insert(0, self._account_ref(streams))
        self._tx_counter += 1
        return ClusterTransaction(self._tx_counter, "debit-credit",
                                  home_refs, home, remote_work)

    # -- warm start ------------------------------------------------------
    def prewarm(self, system) -> None:
        """Fill every node's buffer to LRU steady state, as the central
        workload does for one node."""
        for node in system.nodes:
            capacity = node.config.cm.buffer_size
            second_level = max(node.config.cm.nvem_cache_size,
                               max((u.cache_size for u in
                                    node.config.disk_units), default=0))
            n_txs = max(4000, 3 * (capacity + second_level))
            node.bm.prewarm_references(
                self._prewarm_refs(system.streams, node.node_id, n_txs))

    def _prewarm_refs(self, streams, node_id: int, n_txs: int):
        cursor = self._history_cursors[node_id]
        for _ in range(n_txs):
            acct = self._account_ref(streams)
            bt_page = streams.uniform_int("cdc-branch", 0,
                                          self.branches_per_node - 1)
            hist_page = cursor // self.history_block_factor
            cursor = (cursor + 1) % _HISTORY_OBJECTS
            yield P_ACCOUNT, acct.page_no, True
            yield P_HISTORY, hist_page, True
            yield P_BRANCH_TELLER, bt_page, True
            yield P_BRANCH_TELLER, bt_page, True
        self._history_cursors[node_id] = cursor

    # -- SOURCE ----------------------------------------------------------
    def start(self, system) -> None:
        source = PoissonArrivals(
            rate=self.arrival_rate_per_node * self.num_nodes,
            factory=lambda _n: self.make_transaction(system.streams),
            stream_name="arrivals-cluster",
        )
        source.start(system)
