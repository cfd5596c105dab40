"""Differential certification: optimized engines == reference, bitwise.

Each case seeds one simulation point and runs it under every engine
tier, asserting the outcome snapshot -- measurement window, engine
counters, every delivery record, cycle count and clock -- is equal
(kernel event counts excepted: the span-sleep clock skips wakes by
design, see :mod:`tests.differential.harness`).  The grid spans all
four networks, two traffic patterns, light and near-saturation loads,
fault injection (soft + hard transient events, which exercise
abort/materialization on the fast path), and runs under the runtime
sanitizer (which disables the fast path's free-run shortcut and span
sleep, covering their fallback behaviour).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.traffic.workload import MessageSizeModel
from tests.differential.harness import (
    CFG,
    KERNEL_COUNTER_INDICES,
    NETWORK_KINDS,
    assert_identical,
    run_case,
    strip_kernel_counters,
)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("pattern", ("uniform", "shuffle"))
@pytest.mark.parametrize("load", (0.2, 0.9))
def test_fault_free_identity(kind: str, pattern: str, load: float) -> None:
    """4 networks x 2 patterns x 2 loads, no faults (16 cases)."""
    assert_identical(kind, pattern, load)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("load", (0.3, 0.8))
def test_faulted_identity(kind: str, load: float) -> None:
    """Soft + hard transient faults mid-run (8 cases).

    The hard event aborts in-flight worms, which on the fast path must
    first materialize any free-running worm's lane state; each fail
    and repair wakes the blocked headers that list the flipped channel.
    """
    assert_identical(kind, "uniform", load, faults=True)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("pattern", ("uniform", "shuffle"))
def test_sanitized_identity(kind: str, pattern: str) -> None:
    """Same grid under REPRO_SANITIZE=1 (8 cases).

    Both runs self-check the engine invariants every cycle, and the
    fast path runs with its free-run shortcut disabled -- so this also
    certifies the channel sweep's parking and following without
    fast-forwarding.
    """
    assert_identical(kind, pattern, 0.6, sanitize=True)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_sanitized_faulted_identity(kind: str) -> None:
    """Sanitizer and fault injection together (4 cases)."""
    assert_identical(kind, "uniform", 0.7, faults=True, sanitize=True)


def test_span_clock_fires_fewer_kernel_events(monkeypatch) -> None:
    """Long worms in a quiet DMIN: the default tier sleeps through most
    cycles, so it fires far fewer kernel events than the reference's
    one wake per cycle -- while every other observable stays equal."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)  # it stops spans
    streaming = replace(CFG, sizes=MessageSizeModel("fixed", 256, 256))
    ref = run_case("dmin", "uniform", 0.1, "reference", run_cfg=streaming)
    fast = run_case("dmin", "uniform", 0.1, "fast", run_cfg=streaming)
    assert strip_kernel_counters(fast) == strip_kernel_counters(ref)
    scheduled, fired = KERNEL_COUNTER_INDICES
    assert fast[scheduled] * 4 < ref[scheduled]
    assert fast[fired] * 4 < ref[fired]
