"""Workload generation: traffic patterns, clusterings and arrival processes.

Reproduces Section 5.1's workload model:

* Poisson packet generation per node (negative-exponential inter-arrival
  times), message length uniform on [8, 1024] flits, FCFS source queues
  (:mod:`repro.traffic.workload`);
* four destination patterns -- uniform, x% hot-spot (Pfister-Norton),
  perfect k-shuffle permutation and i-th butterfly permutation
  (:mod:`repro.traffic.patterns`);
* node clusterings -- global, cluster-16, cluster-32, with the cube /
  butterfly-channel-reduced / butterfly-channel-shared variants and
  per-cluster traffic ratios like 4:1:1:1 (:mod:`repro.traffic.clusters`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "bursty": ("ArrivalSpec", "MMPPArrivals", "ParetoOnOffArrivals"),
    "clusters": ("ClusterSpec", "cluster_16", "cluster_32", "global_cluster"),
    "patterns": (
        "ButterflyPermutationPattern", "HotSpotPattern", "PermutationPattern",
        "ShufflePattern", "TrafficPattern", "UniformPattern",
    ),
    "trace": (
        "Trace", "TraceFormatError", "TraceRecord", "TraceWorkload",
        "read_trace", "synthesize_trace", "write_trace",
    ),
    "workload": ("MessageSizeModel", "Workload"),
})

__all__ = [
    "ArrivalSpec",
    "ButterflyPermutationPattern",
    "ClusterSpec",
    "HotSpotPattern",
    "MMPPArrivals",
    "MessageSizeModel",
    "ParetoOnOffArrivals",
    "PermutationPattern",
    "ShufflePattern",
    "Trace",
    "TraceFormatError",
    "TraceRecord",
    "TraceWorkload",
    "UniformPattern",
    "Workload",
    "cluster_16",
    "cluster_32",
    "global_cluster",
    "read_trace",
    "synthesize_trace",
    "write_trace",
]
