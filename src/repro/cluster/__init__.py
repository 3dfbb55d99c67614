"""Simulated cluster substrate: YARN resource management, MapReduce job
timing, HDFS, a Spark-like stateful executor model, and a discrete-event
multi-application simulator for throughput experiments.
"""

from repro.cluster.config import ClusterConfig, paper_cluster, small_cluster
from repro.cluster.load import ClusterLoad, mr_slowdown
from repro.cluster.mesos import OfferBasedAllocator, OfferStream, ResourceOffer
from repro.cluster.resources import ResourceConfig
from repro.cluster.yarn import Container, NodeManager, ResourceManager

__all__ = [
    "ClusterConfig",
    "ResourceConfig",
    "Container",
    "NodeManager",
    "ResourceManager",
    "paper_cluster",
    "small_cluster",
    "ClusterLoad",
    "mr_slowdown",
    "OfferBasedAllocator",
    "OfferStream",
    "ResourceOffer",
]
