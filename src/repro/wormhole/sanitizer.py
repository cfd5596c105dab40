"""Opt-in runtime sanitizer for the wormhole engine.

Set ``REPRO_SANITIZE=1`` (any value other than empty/``0``) and every
:class:`~repro.wormhole.engine.WormholeEngine` self-checks the
simulator's core invariants after each cycle:

* **buffer occupancy bounds** -- each switch-input buffer holds 0 or 1
  flits (the 1-flit buffers of Section 2.2); delivery lanes buffer
  nothing (the node consumes instantly);
* **ownership accounting** -- ``PhysChannel.owned_count`` matches the
  lanes actually owned (the hot path's O(1) cache never drifts);
* **flit conservation** -- for every in-flight worm, flits injected ==
  flits delivered + flits sitting in buffers along its chain, with
  every per-hop gap in {0, 1};
* **acquire/release pairing** -- a lane is only released once its
  owner's tail flit crossed the wire (``sent == length``), except
  during an explicit abort (fault recovery), which announces itself.

The checks are wired into the engine (see
``WormholeEngine.step_cycle`` / ``Lane.release``) but cost *nothing*
when disabled: the engine holds ``sanitizer = None`` and a release
checks one channel slot, which only a sanitizer fills (on its own
network's channels).  CI runs the whole tier-1 suite under
``REPRO_SANITIZE=1`` (the ``sanitize`` job).

``REPRO_SANITIZE_EVERY=N`` (default 1) thins the per-cycle sweep to
every N-th cycle for long soak runs; the release-pairing check always
runs.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.wormhole.channel import Lane
    from repro.wormhole.engine import WormholeEngine
    from repro.wormhole.network import SimNetwork
    from repro.wormhole.packet import Packet


class SanitizerError(AssertionError):
    """An engine invariant was violated (simulator bug or corruption)."""


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests runtime sanitizing."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def check_interval() -> int:
    """Per-cycle sweep thinning factor (``REPRO_SANITIZE_EVERY``)."""
    try:
        return max(1, int(os.environ.get("REPRO_SANITIZE_EVERY", "1")))
    except ValueError:
        return 1


class Sanitizer:
    """Per-engine invariant checker (created when sanitizing is on)."""

    def __init__(self, network: "SimNetwork") -> None:
        self.network = network
        self.every = check_interval()
        self.cycles_checked = 0
        self.violations = 0  # incremented before raising, for forensics
        for ch in network.topo_channels:
            ch.release_observer = self.on_release

    # -- release pairing (called from the channel layer) -----------------

    def on_release(self, lane: "Lane") -> None:
        """Validate one lane release (tail crossed, or explicit abort)."""
        owner = lane.owner
        if owner is None:  # releasing a free lane: always a bug
            self._fail(f"release of unowned lane {lane!r}")
        if getattr(owner, "_sanitize_aborting", False):
            return  # fault recovery flushes mid-worm; exempt
        if lane.sent != owner.length:
            self._fail(
                f"early release of {lane!r}: sent {lane.sent} of "
                f"{owner.length} flits (acquire/release pairing broken)"
            )

    # -- per-cycle sweep ---------------------------------------------------

    def check_cycle(self, engine: "WormholeEngine") -> None:
        """Assert all invariants; raise :class:`SanitizerError` on drift."""
        if engine.cycles_run % self.every:
            return
        self.cycles_checked += 1
        self._check_channels()
        self._check_packets(engine)
        if engine.fast:
            self._check_active_list(engine)

    def _check_active_list(self, engine: "WormholeEngine") -> None:
        """Fast-path invariants: active list, parked worms, header caches.

        * every channel with an owned lane is on the active list unless
          each of its owned lanes sleeps (a miss would silently freeze
          a worm): its worm is parked, or, on an engine that follows
          and has no hot sink (see
          ``WormholeEngine._phase_advance_fast``), it is a following
          lane (owned, not its worm's newest lane, its buffer full)
          whose worm's newest lane is listed or has just passed its
          header on (the sweep walks followers only from a listed lane
          of their worm).  A worm's newest lane alone on its wire,
          whose header reached the routing queue in this cycle's sweep
          (waiting, not yet cached as blocked), may be off it too.  A
          parked worm's wire is on the list only while an owner whose
          worm is not parked shares it.  A free-running worm's wires
          leave the list too, which is why the engine never free-runs
          a worm under the sanitizer;
        * the list is sorted by ``topo_order`` with no duplicates (the
          advance order must match the reference scan's);
        * each parked worm is ACTIVE, its header waits in the routing
          queue (cached as blocked, unless a release in this cycle's
          Phase B woke it) and none of its owned lanes is ready;
        * every cached blocked header's usable list is exactly what a
          fresh ``candidates()`` call would give, and none of those
          channels has a free lane (the cache must never hide a
          grantable channel).  Only a header listing a channel whose
          flip the next Phase A has yet to drain is exempt.
        """
        from repro.wormhole.packet import PacketState

        listed = {id(ch) for ch in engine._active}
        if len(listed) != len(engine._active):
            self._fail("fast path: active list holds duplicate channels")
        orders = [ch.topo_order for ch in engine._active]
        if orders != sorted(orders):
            self._fail(f"fast path: active list out of topo order: {orders}")
        parked: dict[int, "Packet"] = {}
        pending = {id(p) for p in engine._pending_route}
        for ch in self.network.topo_channels:
            on_list = id(ch) in listed
            if on_list != ch.in_active:
                self._fail(
                    f"{ch.label}: in_active={ch.in_active} disagrees with "
                    "actual active-list membership"
                )
            if ch.owned_count == 0:
                continue
            owners = ch.owners()
            for p in owners:
                if p._parked:
                    parked[id(p)] = p
            if not on_list:
                self._check_unlisted(engine, ch, pending)
            elif all(p._parked for p in owners):
                self._fail(
                    f"{ch.label}: a parked worm's wire is on the fast "
                    "path's active list with no other owner awake"
                )
        for p in parked.values():
            if p.state is not PacketState.ACTIVE:
                self._fail(f"pkt#{p.pid}: parked in state {p.state.value}")
            if not p.needs_route or id(p) not in pending:
                self._fail(
                    f"pkt#{p.pid}: parked but its header is not waiting "
                    "in the routing queue"
                )
            lanes = p.lanes
            for i in range(len(lanes) - 1, -1, -1):
                lane = lanes[i]
                if lane.owner is not p:
                    break
                if (
                    lane.sent < p.length
                    and (i == 0 or lanes[i - 1].buf != 0)
                    and (lane.buf == 0 or lane.channel.is_delivery)
                ):
                    self._fail(
                        f"pkt#{p.pid}: parked but {lane.channel.label} "
                        "is ready to move a flit"
                    )
        flipped = {id(ch) for ch in engine._flips or ()}
        for p in engine._pending_route:
            usable = p._blk_usable
            if usable is None:
                continue
            candidates = self.network.candidates(p)
            if any(id(ch) in flipped for ch in candidates):
                continue  # the next Phase A wakes it
            fresh = [ch for ch in candidates if not ch.faulty]
            if fresh != usable:
                self._fail(
                    f"pkt#{p.pid}: cached usable channels "
                    f"{[ch.label for ch in usable]} but its candidates "
                    f"now give {[ch.label for ch in fresh]}"
                )
            for ch in usable:
                for lane in ch.lanes:
                    if lane.owner is None:
                        self._fail(
                            f"pkt#{p.pid}: cached as blocked but "
                            f"{ch.label}.{lane.index} is free"
                        )

    def _check_unlisted(
        self, engine: "WormholeEngine", ch, pending: set
    ) -> None:
        """The owned wire ``ch`` is off the active list: every owned
        lane on it must be a parked worm's, a following lane, or (alone
        on the wire) a lane whose header just arrived (see
        :meth:`_check_active_list`)."""
        follow = engine._following and not engine.bus.hot
        for lane in ch.lanes:
            p = lane.owner
            if p is None or p._parked:
                continue
            if follow:
                head = p.lanes[-1]
                arrived = (
                    p.needs_route and p._blk_usable is None and id(p) in pending
                )
                if lane is not head:
                    if not lane.buf:
                        self._fail(
                            f"{ch.label}: an empty body lane of pkt#{p.pid} "
                            "is off the active list"
                        )
                    if head.channel.in_active or arrived:
                        continue
                    self._fail(
                        f"{ch.label}: a following lane of pkt#{p.pid}, whose "
                        f"newest lane {head.channel.label} is off the active "
                        "list"
                    )
                if arrived and ch.owned_count == 1:
                    continue
            self._fail(
                f"{ch.label}: owned_count={ch.owned_count} but the channel "
                f"is missing from the fast path's active list (pkt#{p.pid} "
                "is awake on it)"
            )

    def _check_channels(self) -> None:
        for ch in self.network.topo_channels:
            owned = sum(1 for lane in ch.lanes if lane.owner is not None)
            if owned != ch.owned_count:
                self._fail(
                    f"{ch.label}: owned_count={ch.owned_count} but "
                    f"{owned} lanes are owned"
                )
            for lane in ch.lanes:
                if ch.is_delivery:
                    if lane.buf != 0:
                        self._fail(
                            f"{lane!r}: delivery lanes have no buffer, "
                            f"yet buf={lane.buf}"
                        )
                elif not 0 <= lane.buf <= 1:
                    self._fail(
                        f"{lane!r}: 1-flit buffer holds {lane.buf} flits"
                    )
                if lane.owner is not None and not (
                    0 <= lane.sent <= lane.owner.length
                ):
                    self._fail(
                        f"{lane!r}: sent={lane.sent} outside "
                        f"[0, {lane.owner.length}]"
                    )

    def _check_packets(self, engine: "WormholeEngine") -> None:
        for p in engine.in_flight_packets():
            if not p.lanes:
                continue  # header still waiting for its first grant
            # A released lane passed the pairing check, so all length
            # flits crossed it; an owned lane has crossed lane.sent.
            eff = [
                lane.sent if lane.owner is p else p.length for lane in p.lanes
            ]
            for i in range(len(eff) - 1):
                gap = eff[i] - eff[i + 1]
                if gap < 0:
                    self._fail(
                        f"pkt#{p.pid}: downstream lane "
                        f"{p.lanes[i + 1].channel.label} ahead of upstream "
                        f"({eff[i + 1]} > {eff[i]} flits) -- conservation "
                        "broken"
                    )
                if not p.lanes[i].channel.is_delivery and gap > 1:
                    self._fail(
                        f"pkt#{p.pid}: {gap} flits buffered after "
                        f"{p.lanes[i].channel.label} (1-flit buffers)"
                    )
            last = p.lanes[-1]
            if last.channel.is_delivery and last.owner is p:
                if p.delivered_flits != last.sent:
                    self._fail(
                        f"pkt#{p.pid}: delivered_flits={p.delivered_flits} "
                        f"but delivery lane streamed {last.sent}"
                    )
            elif p.delivered_flits not in (0, p.length):
                self._fail(
                    f"pkt#{p.pid}: {p.delivered_flits} flits delivered "
                    "without holding a delivery lane"
                )

    def _fail(self, message: str) -> None:
        self.violations += 1
        raise SanitizerError(f"REPRO_SANITIZE: {message}")
