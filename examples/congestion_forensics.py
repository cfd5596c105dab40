#!/usr/bin/env python3
"""Congestion forensics with the packet tracer.

Runs the shuffle-permutation workload (Fig. 20a's killer) on a TMIN
with tracing enabled, then shows *where* the congestion lives: the
blocking-hotspot ranking points at exactly the channels the static
analysis predicts are shared by four source/destination pairs, and a
victim packet's timeline shows the stalls.

Run:  python examples/congestion_forensics.py
"""

from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.topology.equivalence import channel_load
from repro.topology.mins import cube_min
from repro.topology.permutations import PerfectShuffle
from repro.wormhole import WormholeEngine, build_network
from repro.wormhole.trace import Tracer


def main() -> None:
    k, n = 4, 3
    env = Environment()
    engine = WormholeEngine(env, build_network("tmin", k, n), rng=RandomStream(1))
    tracer = Tracer()
    engine.bus.attach(tracer)

    shuffle = PerfectShuffle(k, n)
    pairs = [(s, shuffle(s)) for s in range(64) if s != shuffle(s)]

    print("offering two rounds of the shuffle permutation (60 pairs each)...")
    rs = RandomStream(2)
    packets = []
    for _ in range(2):
        for s, d in pairs:
            packets.append(engine.offer(s, d, rs.uniform_int(16, 48)))
    engine.drain(max_cycles=500_000)
    print(f"delivered {engine.stats.delivered_packets} packets "
          f"in {env.now:g} cycles\n")

    print("dynamic blocking hotspots (tracer):")
    for label, count in tracer.blocking_hotspots(top=6):
        print(f"  {label:<16} blocked headers {count} times")
    print()

    print("static channel load (theory) -- the 4-sharing the paper names:")
    spec = cube_min(k, n)
    load = channel_load(spec, pairs)
    worst = sorted(load.items(), key=lambda kv: -kv[1])[:6]
    for (boundary, pos), paths in worst:
        print(f"  boundary {boundary}, position {pos:2d}: {paths} paths")
    print()

    slowest = max(packets, key=lambda p: p.latency)
    print("slowest packet's life:")
    print(tracer.format_timeline(slowest.pid))


if __name__ == "__main__":
    main()
