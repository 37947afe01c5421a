"""Exact kernel-event counts of seed-fixed runs.

Every phase of the transaction lifecycle is one or more ``yield``s,
and each schedules kernel events; a lifecycle hook that adds or drops
one moves ``env._seq`` (events scheduled over the whole run).  Pinning
the count together with the committed transactions is the exact check
that the single-node, traced, 2PC and shared-disk paths still take the
same steps.
"""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, cluster_config, node_scheme
from repro.cluster.workload import ShardedDebitCreditWorkload
from repro.core.model import TransactionSystem
from repro.experiments.defaults import debit_credit_config, disk_only
from repro.workload.debit_credit import DebitCreditWorkload

#: (events scheduled, transactions committed over the whole run).
DEBIT_CREDIT_EVENTS = (6330, 277)
CLUSTER_2PC_EVENTS = (10893, 418)
#: Shared-disk cluster by GEM capacity (NVEM coupling).
SHARED_DISK_EVENTS = {2000: (23201, 379), 0: (12930, 377)}


def _debit_credit(traced: bool):
    config = debit_credit_config(disk_only())
    if traced:
        config.trace = dataclasses.replace(config.trace, enabled=True)
    config.validate()
    system = TransactionSystem(
        config, DebitCreditWorkload(arrival_rate=150.0), seed=5)
    system.run(warmup=0.4, duration=1.2)
    return system


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
def test_debit_credit_events_per_commit(traced):
    system = _debit_credit(traced)
    assert (system.tracer is not None) == traced
    if traced:
        assert system.tracer.spans
    assert (system.env._seq, system.tm.completed) == DEBIT_CREDIT_EVENTS


def test_cluster_2pc_events_per_commit():
    config = cluster_config(scheme=node_scheme(log="nvem"), num_nodes=2,
                            seed=1)
    workload = ShardedDebitCreditWorkload.for_cluster(
        config, arrival_rate_per_node=50.0, distributed_fraction=0.3)
    system = config.build_system(workload, seed=1)
    results = system.run(warmup=1.0, duration=3.0)
    assert results.cluster["distributed_commits"] > 0
    committed = sum(node.tm.completed for node in system.nodes)
    assert (system.env._seq, committed) == CLUSTER_2PC_EVENTS


@pytest.mark.parametrize("gem", sorted(SHARED_DISK_EVENTS),
                         ids=lambda gem: f"gem{gem}")
def test_shared_disk_events_per_commit(gem):
    config = ClusterConfig(node=debit_credit_config(disk_only()),
                           sharing="disk", num_nodes=2, gem_capacity=gem)
    system = config.build_system(DebitCreditWorkload(arrival_rate=200.0),
                                 seed=5)
    system.run(warmup=0.4, duration=1.2)
    committed = sum(node.tm.completed for node in system.nodes)
    assert (system.env._seq, committed) == SHARED_DISK_EVENTS[gem]
