#!/usr/bin/env python3
"""Quickstart: simulate one network under uniform traffic.

Builds the paper's 64-node two-dilated cube MIN (the winner of the
study), offers uniform traffic at 40% of injection bandwidth, and prints
the steady-state latency/throughput measurement.

Run:  python examples/quickstart.py [tmin|dmin|vmin|bmin] [load]
"""

import sys

from repro.experiments.config import SCALED
from repro.experiments.runner import install_workload, measure, warm_up
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.traffic.clusters import global_cluster
from repro.traffic.patterns import UniformPattern
from repro.traffic.workload import Workload
from repro.wormhole import WormholeEngine, build_network


def main() -> None:
    kind = sys.argv[1] if len(sys.argv) > 1 else "dmin"
    load = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4

    # 1. The simulation environment and the network (64 nodes, 4x4
    #    switches, 3 stages -- the paper's geometry).
    env = Environment()
    network = build_network(kind, k=4, n=3, topology="cube")
    engine = WormholeEngine(env, network, rng=RandomStream(42, "engine"))

    # 2. Uniform Poisson traffic at the requested offered load, with
    #    the scaled preset's short messages so the example finishes in
    #    seconds (MessageSizeModel.paper() has the paper's 8-1024 flits).
    workload = Workload(
        global_cluster(),
        UniformPattern,
        offered_load=load,
        sizes=SCALED.sizes,
    )
    install_workload(engine, workload, RandomStream(42, "workload"))

    # 3. Warm up for 300 deliveries, then measure a steady-state window
    #    of 1,500 deliveries (the scaled preset's protocol).
    warm_up(engine, SCALED)
    m, _ = measure(engine, SCALED)

    print(f"network : {kind.upper()} (64 nodes, 4x4 switches, 3 stages)")
    print(f"load    : {load:.0%} of injection bandwidth per node")
    print(f"cycles  : {m.cycles:.0f} measured ({m.delivered_packets} packets)")
    print(f"latency : {m.avg_latency:.1f} cycles avg "
          f"({m.avg_latency_us:.2f} us at 20 flits/us), p95 {m.p95_latency:.0f}")
    print(f"thruput : {m.throughput_percent:.1f}% of max theoretical")
    print(f"queues  : max {m.max_queue_len} "
          f"({'sustainable' if m.sustainable else 'saturated'})")


if __name__ == "__main__":
    main()
