"""Inter-node primitives of the multi-node cluster.

The paper's TPSIM "supports centralized and distributed transaction
systems" (§3) but evaluates only the central case; its conclusions
point at global extended memory for locally distributed systems
([BHR91], [Ra91]): speeding up inter-system communication and holding
globally shared data.  This package holds the two building blocks;
:mod:`repro.cluster` assembles them into systems (``sharing="nothing"``
for the sharded 2PC cluster, ``sharing="disk"`` for data sharing):

* :mod:`repro.distributed.messages` — inter-node messages (CPU overhead
  on both ends + coupling latency; NVEM-based coupling is fast).
* :mod:`repro.distributed.gem` — global extended memory: a shared
  second-level page cache all nodes hit (copies remain in GEM).

See ``examples/distributed_study.py`` and
``benchmarks/test_distributed.py`` for the data-sharing scaling study.
"""

from repro.distributed.gem import GlobalExtendedMemory
from repro.distributed.messages import CouplingConfig, MessageBus

__all__ = [
    "CouplingConfig",
    "GlobalExtendedMemory",
    "MessageBus",
]
