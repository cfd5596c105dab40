"""Network partitionability and traffic localization (Section 4).

When a scalable parallel computer runs several jobs, each job gets an
exclusive *processor cluster*; ideally the network partitions so that

* clusters never contend for a channel (**contention-free**), and
* a cluster of ``c`` nodes owns exactly ``c`` channels between every
  pair of adjacent stages (**channel-balanced**).

This package makes the paper's Section 4 executable:

* :mod:`repro.partition.cubes` -- k-ary m-cubes and base cubes
  (Definitions 5 and 6), generalized to *binary* cubes for
  ``k = 2**j`` (Theorem 2's relaxation);
* :mod:`repro.partition.analysis` -- per-stage channel usage of a
  cluster under intra-cluster traffic, the contention-free and
  channel-balanced predicates, and the named theorem checkers
  (Lemma 1, Theorems 2, 3 and 4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cubes": ("Cube",),
    "analysis": (
        "PartitionReport", "bmin_cluster_line_usage", "check_partition",
        "cluster_channel_usage", "clusters_are_contention_free",
        "is_channel_balanced",
    ),
})

__all__ = [
    "Cube",
    "PartitionReport",
    "bmin_cluster_line_usage",
    "check_partition",
    "cluster_channel_usage",
    "clusters_are_contention_free",
    "is_channel_balanced",
]
