"""Event-for-event certification of the optimized engines' publish sites.

Attaching a hot bus sink (the :class:`EventRecorder`) makes the fast
engine take its exact-event-order channel sweep, and
every inject / acquire / block / release / transmit / deliver publish
must then match the reference engine's stream element-for-element --
ordering included.  This is strictly stronger than end-state equality:
it pins the *within-cycle* schedule of every path.  Snapshots compare
without the kernel event counters (see :mod:`tests.differential.harness`).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.traffic.workload import MessageSizeModel
from tests.differential.harness import (
    CFG,
    NETWORK_KINDS,
    EventRecorder,
    run_case,
    strip_kernel_counters,
)


def _assert_streams_match(kind: str, load: float, **kwargs) -> None:
    """The fast tier reproduces the reference's event stream."""
    rec_ref = EventRecorder()
    snap_ref = run_case(kind, "uniform", load, "reference", sink=rec_ref, **kwargs)
    rec = EventRecorder()
    snap = run_case(kind, "uniform", load, "fast", sink=rec, **kwargs)
    assert strip_kernel_counters(snap) == strip_kernel_counters(snap_ref)
    # Compare element-wise for a readable first-divergence message.
    for i, (a, b) in enumerate(zip(rec.events, rec_ref.events)):
        assert a == b, (
            f"{kind}/load={load}: fast event stream diverges at "
            f"index {i}: fast={a} reference={b}"
        )
    assert len(rec.events) == len(rec_ref.events)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("load", (0.2, 0.8))
def test_event_stream_identity(kind: str, load: float) -> None:
    """4 networks x 2 loads with a hot recording sink (8 cases)."""
    _assert_streams_match(kind, load)


@pytest.mark.parametrize("kind", ("dmin", "bmin", "vmin"))
def test_event_stream_identity_with_faults(kind: str) -> None:
    """Hot sink + fault injection: aborts and repairs in the stream."""
    _assert_streams_match(kind, 0.7, faults=True)


#: Long fixed messages at light load: most worms free-run between
#: grants, so a sink attaching mid-run finds ledger rows to unwind.
CFG_STREAM = replace(
    CFG,
    warmup_packets=10,
    measure_packets=60,
    max_cycles=30_000,
    sizes=MessageSizeModel("fixed", 256, 256),
)


@pytest.mark.parametrize(
    "kind, net_kwargs, load, at",
    (
        pytest.param("dmin", None, 0.2, 1500.0, id="dmin"),
        pytest.param("vmin", None, 0.2, 1500.0, id="vmin"),
        pytest.param(
            "torus3d", {"k": 4, "n": 3, "router": "adaptive"}, 0.2, 1500.0,
            id="torus3d",
        ),
        pytest.param("dmin", None, 0.8, 1400.0, id="dmin-loaded"),
    ),
)
def test_event_stream_identity_mid_run_attach(
    kind: str, net_kwargs, load: float, at: float, monkeypatch
) -> None:
    """A hot sink attaching while worms free-run: the fast tier must
    materialize them (on the VMIN and the torus, put their wires back
    on the channel sweep; on the torus, from buffers that are not all
    full), and on the MINs put their following lanes back on the sweep
    too, so the transmit log from the attach on matches the
    reference's, with every observable bit-identical.  On the loaded
    DMIN, worms are also parked at the attach, whose wires stay off the
    sweep until their grants.  (The sanitizer switches free-run off, so
    this case always runs without it.)"""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    rec_ref = EventRecorder()
    snap_ref = run_case(
        kind, "uniform", load, "reference", sink=rec_ref, sink_at=at,
        run_cfg=CFG_STREAM, net_kwargs=net_kwargs,
    )
    rec = EventRecorder()
    snap = run_case(
        kind, "uniform", load, "fast", sink=rec, sink_at=at,
        run_cfg=CFG_STREAM, net_kwargs=net_kwargs,
    )
    assert rec.free_running_at_attach > 0, "no worm free-ran at the attach"
    if kind == "vmin":
        # ... and lanes were following, which must rejoin the sweep.
        assert rec.following_at_attach > 0, "no lane followed at the attach"
    if load >= 0.6:
        # A MIN both parks and follows: both kinds of wire are off the
        # sweep at once.
        assert rec.parked_at_attach > 0, "no worm was parked at the attach"
        assert rec.following_at_attach > 0, "no lane followed at the attach"
    assert strip_kernel_counters(snap) == strip_kernel_counters(snap_ref)
    assert any(e[0] == "transmit" for e in rec.events)
    assert rec.events == rec_ref.events
