"""Static cluster configuration of the simulated YARN cluster.

Models the structural facts the resource optimizer obtains from the
Resource Manager in step 1 of the paper's architecture (Figure 3):
node count and sizes, min/max container allocation constraints, HDFS
block size, and the YARN convention that a container request is 1.5x the
JVM max heap (paper Section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.common import MB
from repro.errors import ClusterError

#: container request = CONTAINER_OVERHEAD_FACTOR x max heap (paper 5.1)
CONTAINER_OVERHEAD_FACTOR = 1.5
#: fraction of the max heap available as operation memory budget
#: (paper 5.1: "a memory budget of 70% of the max heap size")
BUDGET_FRACTION = 0.70


@dataclass
class ClusterConfig:
    """A homogeneous set of worker nodes managed by YARN."""

    num_nodes: int = 6
    node_memory_mb: int = 81920  # NM resource (80 GB)
    node_vcores: int = 24  # 2 x 6 cores x 2 (hyper-threading)
    node_physical_cores: int = 12
    node_disks: int = 12
    min_allocation_mb: int = 512
    max_allocation_mb: int = 81920
    hdfs_block_size_mb: int = 128
    num_reducers: int = 12  # SystemML default: 2 x number of nodes

    def __post_init__(self):
        if self.min_allocation_mb <= 0:
            raise ClusterError("min_allocation_mb must be positive")
        if self.max_allocation_mb < self.min_allocation_mb:
            raise ClusterError("max_allocation_mb below min_allocation_mb")
        if self.num_nodes <= 0:
            raise ClusterError("cluster needs at least one node")

    # -- capacity ----------------------------------------------------------

    @property
    def total_memory_mb(self):
        return self.num_nodes * self.node_memory_mb

    @property
    def total_vcores(self):
        return self.num_nodes * self.node_vcores

    @property
    def hdfs_block_size_bytes(self):
        return self.hdfs_block_size_mb * MB

    # -- heap / container conversions -------------------------------------

    def container_mb_for_heap(self, heap_mb):
        """Container request for a given max heap (1.5x rule), clamped to
        the cluster's min allocation and rounded up to whole MB."""
        return max(
            self.min_allocation_mb,
            int(math.ceil(heap_mb * CONTAINER_OVERHEAD_FACTOR)),
        )

    def heap_mb_for_container(self, container_mb):
        return container_mb / CONTAINER_OVERHEAD_FACTOR

    @property
    def min_heap_mb(self):
        """The one CP heap floor: the min allocation itself (the paper's
        "minimum of 512 MB").  The optimizer's grid, elastic grants, the
        adapter's fallback and the baselines all start here."""
        return float(self.min_allocation_mb)

    @property
    def max_heap_mb(self):
        """Largest heap whose container request the RM accepts."""
        return self.max_allocation_mb / CONTAINER_OVERHEAD_FACTOR

    def validate_heap_request(self, heap_mb):
        container = self.container_mb_for_heap(heap_mb)
        if container > self.max_allocation_mb:
            raise ClusterError(
                f"container request {container} MB exceeds max allocation "
                f"{self.max_allocation_mb} MB"
            )
        return container

    # -- task parallelism ----------------------------------------------------

    def max_parallel_containers(self, container_mb, reserved_mb=0):
        """Cluster-wide number of containers of the given size that fit,
        bounded by vcores (one task per vcore)."""
        per_node_mem = max(self.node_memory_mb - reserved_mb / self.num_nodes, 0)
        by_memory = self.num_nodes * int(per_node_mem // max(container_mb, 1))
        return max(0, min(by_memory, self.total_vcores))

    def map_task_parallelism(self, mr_heap_mb, reserved_mb=0):
        """Concurrent map tasks for a given task heap size."""
        container = self.container_mb_for_heap(mr_heap_mb)
        return self.max_parallel_containers(container, reserved_mb)

    # -- sharding ------------------------------------------------------------

    def partition(self, shards):
        """Split the cluster into ``shards`` node-disjoint sub-clusters.

        Nodes are dealt out as evenly as possible (the first
        ``num_nodes % shards`` partitions get one extra node); every
        partition keeps the node size and the min/max allocation
        constraints, so a container that can never be placed on the full
        cluster can never be placed on any partition either — the
        admission verdicts of a sharded server match the unsharded one.
        Reducer counts scale proportionally (at least one).
        """
        if shards <= 0:
            raise ClusterError("shards must be positive")
        if shards > self.num_nodes:
            raise ClusterError(
                f"cannot partition {self.num_nodes} nodes into "
                f"{shards} shards"
            )
        base, extra = divmod(self.num_nodes, shards)
        parts = []
        for index in range(shards):
            nodes = base + (1 if index < extra else 0)
            parts.append(replace(
                self,
                num_nodes=nodes,
                num_reducers=max(
                    1, round(self.num_reducers * nodes / self.num_nodes)
                ),
            ))
        return parts


def paper_cluster():
    """The 1+6 node cluster of the paper's experimental setting
    (Section 5.1): 80 GB NMs, 512 MB/80 GB min/max allocation, 128 MB
    HDFS blocks, 12 reducers."""
    return ClusterConfig()


def small_cluster(num_nodes=2, node_memory_mb=8192, node_vcores=4):
    """A laptop-scale cluster configuration useful in tests/examples."""
    return ClusterConfig(
        num_nodes=num_nodes,
        node_memory_mb=node_memory_mb,
        node_vcores=node_vcores,
        node_physical_cores=max(1, node_vcores // 2),
        node_disks=2,
        min_allocation_mb=256,
        max_allocation_mb=node_memory_mb,
        num_reducers=2 * num_nodes,
    )
