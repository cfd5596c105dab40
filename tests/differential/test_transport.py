"""Engine-tier bit-identity of the end-to-end reliable transport.

The transport (:mod:`repro.transport`) threads an entire reliability
protocol -- sequence numbers, ack packets flowing *backwards* through
the same fabric, RTO timers with seeded jittered backoff, AIMD send
windows -- through the engine's offer path and its cold event bus.
Every one of those mechanisms claims path-independence:

* the transport consumes only its own forked RNG stream (one draw per
  retransmit scheduling), so engine and workload draws are untouched;
* all bus callbacks do bookkeeping and arm timed callbacks
  (``Environment.call_later``), so no nested ``offer`` can reorder
  engine work within a cycle;
* timer staleness is token-based, not time-compared, so the tiers'
  different kernel event populations (the fast tier's span-sleep clock
  skips wake events that the reference dispatches) cannot change which
  retransmissions fire.

These tests storm every network (hard MTBF-style fault plan + loss at
the admission door where configured) and assert the complete
snapshots -- measurement with the transport counters, delivery
records, end-to-end tallies, and the full sorted outcome map -- are
equal across the fast and reference tiers.  A short
``rto_base`` makes timeouts actually fire inside the 12k-cycle runs.
"""

import pytest

from tests.differential.harness import NETWORK_KINDS, assert_identical

#: Enough offered traffic that windows fill and sheds recur.
LOAD = 0.7

#: Past-saturation load for the capacity-12 admission queue cases.
OVERLOAD = 0.9

#: Short timers so RTO fires, backoff escalates, and (with the fault
#: plan's hard cut) flows can abort within the differential horizon.
STORM = {"rto_base": 64.0, "rto_max": 512.0, "ack_delay": 2.0}


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_transport_under_faults_identical(kind):
    """The acceptance storm: reliable transport recovering from a hard
    wire cut, on all four of the paper's networks."""
    assert_identical(kind, "uniform", LOAD, faults=True, transport=STORM)


@pytest.mark.parametrize("kind", ("tmin", "dmin"))
def test_transport_shed_storm_identical(kind):
    """Loss at the admission door (shed-newest drops fresh offers, so
    retransmissions are the only path to delivery)."""
    assert_identical(
        kind, "uniform", OVERLOAD, overload="shed-newest", transport=STORM
    )


def test_transport_shed_oldest_identical():
    """Shed-oldest evicts a *different* registered packet synchronously
    during the offer call -- the reentrant loss path."""
    assert_identical(
        "dmin", "uniform", OVERLOAD, overload="shed-oldest", transport=STORM
    )


def test_governed_transport_identical():
    """The sweep's "both" mode: AIMD governor throttling sources while
    the transport retransmits around the sheds."""
    assert_identical(
        "vmin",
        "uniform",
        OVERLOAD,
        overload="shed-newest",
        governed=True,
        transport=STORM,
    )


def test_transport_watchdog_identical():
    """A recovering watchdog over the transport (SourceRetry suppressed
    -- retransmission is the recovery layer)."""
    assert_identical(
        "tmin",
        "uniform",
        OVERLOAD,
        overload="shed-oldest",
        watchdog=True,
        transport=STORM,
    )


def test_transport_hotspot_identical():
    """Non-uniform traffic concentrates both data and reverse-direction
    ack contention on the hot module."""
    assert_identical("bmin", "hotspot", LOAD, faults=True, transport=STORM)


@pytest.mark.parametrize("kind", ("tmin", "vmin"))
def test_transport_sanitized_identical(kind):
    """The full storm with the runtime sanitizer armed on every tier."""
    assert_identical(
        kind, "uniform", LOAD, faults=True, transport=STORM, sanitize=True
    )


@pytest.mark.parametrize("arrival", ["pareto", "mmpp"])
def test_bursty_arrivals_identical(arrival):
    """The bursty arrival processes re-draw through the same per-source
    streams; their mixture draws must consume identically on all tiers."""
    assert_identical("dmin", "uniform", LOAD, arrival=arrival)


def test_bursty_transport_identical():
    """Pareto on-off bursts feeding the reliable transport under the
    fault storm: clustered sends stress window exhaustion."""
    assert_identical(
        "tmin", "uniform", LOAD, faults=True, transport=STORM,
        arrival="pareto",
    )


def test_mmpp_shuffle_identical():
    """Modulated arrivals on a permutation pattern (every source has a
    single fixed destination -- one flow per node pair)."""
    assert_identical("bmin", "shuffle", LOAD, arrival="mmpp")
