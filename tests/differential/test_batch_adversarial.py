"""Adversarial mode-switch cases aimed at the optimized tier's seams.

The fast engine's speed comes from mode switches the reference tier
never makes: the all-blocked exit (skip Phase A's scan), the span-sleep
clock (skip whole cycles, deferring service-order shuffle draws as
``_shuffle_debt``), and the free-run ledger.  Every switch has an
entry condition proven against engine state -- so the dangerous inputs
are the ones that *invalidate* that state mid-flight: faults landing
inside a burst, hard aborts while worms free-run, a governor
rewriting injection rates, and saturation workloads that thrash
between quiet spans and contended scans every few cycles.

Each case runs the fast/reference comparison of
:func:`tests.differential.harness.assert_identical`.  (The file and
some test names predate the retirement of the ``batch`` tier, which
was ``fast`` with a numpy-mirrored allocation stream.)
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.traffic.workload import MessageSizeModel
from tests.differential.harness import CFG, NETWORK_KINDS, assert_identical

#: Long fixed messages: worms stream for 128 cycles per hop-free
#: stretch, so the span-sleep clock builds real spans (and real shuffle
#: debt) for the mid-run fault events at t=250/600 to tear down.
CFG_LONG = replace(
    CFG,
    warmup_packets=20,
    measure_packets=80,
    max_cycles=30_000,
    sizes=MessageSizeModel("fixed", 128, 128),
)

#: Past-saturation load for the governor cases (mirrors test_overload).
OVERLOAD = 0.9


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_fault_mid_burst(kind):
    """Soft then hard faults land while long bursts are in flight:
    each flip must invalidate the blocked-decision caches that list
    the flipped channel (and keep the all-blocked exit's
    ``_blk_valid`` count exact), so both tiers stay identical."""
    assert_identical(kind, "uniform", 0.9, faults=True, run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", ("dmin", "bmin", "vmin"))
@pytest.mark.parametrize("load", (0.2, 0.4))
def test_abort_during_free_run(kind, load):
    """The t=600 hard fault cuts a wire under a quiet network: on the
    fast tier the victims are *free-running* (ledger rows mid-span),
    so the abort must materialize them, unwind lane
    ownership, and settle any deferred shuffle debt before the queue's
    membership changes.  On the VMIN the victims' wires are off the
    channel sweep's active list and must rejoin it."""
    assert_identical(kind, "uniform", load, faults=True, run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_governor_throttle_on_batch_tier(kind):
    """AIMD rate rewrites while the fast tier span-sleeps and
    free-runs worms: the governor's same-cycle updates must land on
    the same cycles as on the reference tier."""
    assert_identical(
        kind, "uniform", OVERLOAD, overload="shed-newest", governed=True
    )


@pytest.mark.parametrize("kind", ("dmin", "tmin"))
@pytest.mark.parametrize("replica", (1, 4))
def test_forced_vector_with_faults(kind, replica):
    """Faults against the fast tier: aborted ledger rows must leave
    the free-run schedule on the exact cycle the reference tier drops
    its worms.  Replica ``r`` runs master seed ``CFG.seed + r - 1``,
    so the same fault plan lands on two different traffic histories.
    (The test name predates the single Phase B path.)"""
    run_cfg = CFG.with_seed(CFG.seed + replica - 1)
    assert_identical(kind, "uniform", 0.7, faults=True, run_cfg=run_cfg)


@pytest.mark.parametrize("kind", ("dmin", "vmin"))
def test_saturation_thrash_sanitized(kind):
    """Hotspot saturation alternates all-blocked spans with contended
    scans every few cycles -- maximal mode-switch churn -- with the
    runtime sanitizer auditing channel state on every tier."""
    assert_identical(kind, "hotspot", 1.0, faults=True, sanitize=True)


@pytest.mark.parametrize("kind", ("dmin", "tmin"))
def test_watchdog_recovery_thrash(kind):
    """A recovering watchdog aborting stalled worms while the fast
    tier's clock span-sleeps: recovery runs at cycle boundaries, so the span
    gate must refuse to sleep past an armed check."""
    assert_identical(kind, "uniform", 0.8, faults=True, watchdog=True,
                     run_cfg=CFG_LONG)


@pytest.mark.parametrize("kind", ("bmin", "vmin"))
def test_shuffle_pattern_faulted_sanitized(kind):
    """Permutation traffic (every source one fixed destination) keeps
    pending queues short and shuffle debt frequent; faults plus the
    sanitizer audit the deferred-draw replay."""
    assert_identical(kind, "shuffle", 0.6, faults=True, sanitize=True)


def test_batch_tier_sanitized():
    """Fast tier + sanitizer: the per-cycle invariant walk reads
    ``_pending_route`` and lane state after every advance, so any
    stale fast-path cache surfaces immediately."""
    assert_identical("dmin", "uniform", 0.6, sanitize=True)
