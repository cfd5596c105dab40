"""Deterministic end-to-end reliability over ``SimNetwork`` endpoints.

:class:`ReliableTransport` turns the fabric's loss signals (sheds,
fault aborts, watchdog stall-aborts) into a closed loop the way real
endpoints do:

* every message belongs to a *flow* (one ``(src, dst)`` pair) and gets
  a per-flow sequence number;
* acknowledgements are cumulative-plus-selective and travel as real
  small reverse-direction packets through the *same* fabric (so acks
  can themselves be shed or aborted -- a lost ack is recovered by the
  data retransmission timer, never retried on its own);
* unacked segments retransmit on timeout with exponential backoff and
  seeded ± jitter (one RNG draw per scheduling decision, from the
  transport's *own* forked stream, so engine allocation draws are
  untouched and all three engine tiers stay bit-identical);
* the send window is AIMD: +``ai_step`` per cumulative-advance ack,
  halved on every loss signal -- the end-to-end counterpart of the
  fabric-level AIMD governor (:mod:`repro.stability.governor`);
* the receiver suppresses duplicates (retransmissions that crossed a
  slow original, or data whose ack was lost) and re-acks them;
* a flow whose segment exhausts ``max_attempts`` is *aborted* --
  surfaced in ``stats.flows_aborted`` and per-message
  :attr:`~ReliableTransport.outcomes`, never a hang: the unacked
  backlog is cancelled and the flow stays usable for later sends.

Like :class:`repro.faults.recovery.SourceRetry`, the transport is a
cold-kind bus subscriber (``deliver``/``abort``/``shed`` only), so the
per-flit hot path pays nothing (``bus.hot`` stays False).  Bus
callbacks fire inside the engine's cycle step, so they only do
bookkeeping and arm timed callbacks
(:meth:`~repro.sim.core.Environment.call_later`) -- every
``engine.offer`` happens between cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from repro.wormhole.packet import Packet, PacketState

FlowKey = tuple[int, int]


@dataclass(frozen=True)
class TransportConfig:
    """Transport knobs; defaults mirror ``TRANSPORT_DEFAULTS`` in serve.

    ``max_attempts`` counts total injections of one segment (first try
    included), so ``max_attempts=1`` aborts the flow on the first loss.
    """

    window: int = 4            # initial send window (segments in flight)
    max_window: int = 32       # additive-increase cap
    ai_step: int = 1           # window += ai_step per cum-advancing ack
    rto_base: float = 256.0    # initial retransmission timeout (cycles)
    rto_factor: float = 2.0    # exponential backoff per loss signal
    rto_max: float = 8192.0    # backoff cap
    jitter: float = 0.25       # +- fraction on every retransmit delay
    max_attempts: int = 8      # injections per segment before flow abort
    ack_length: int = 4        # flits per acknowledgement packet
    ack_delay: float = 4.0     # cycles between delivery and its ack

    def __post_init__(self) -> None:
        if self.window < 1 or self.max_window < self.window:
            raise ValueError("need 1 <= window <= max_window")
        if self.ai_step < 1:
            raise ValueError("ai_step must be >= 1")
        if self.rto_base <= 0 or self.rto_factor < 1.0 or self.rto_max <= 0:
            raise ValueError("need rto_base > 0, rto_factor >= 1, rto_max > 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.ack_length < 1:
            raise ValueError("ack_length must be >= 1")
        if self.ack_delay <= 0:
            raise ValueError("ack_delay must be positive")


class _Segment:
    """One unacked message on the wire (or awaiting retransmission)."""

    __slots__ = ("seq", "length", "attempts", "rto", "timer_token", "live_pid")

    def __init__(self, seq: int, length: int, rto: float) -> None:
        self.seq = seq
        self.length = length
        self.attempts = 0          # injections so far
        self.rto = rto             # current timeout / backoff base
        self.timer_token = 0       # bumped to invalidate armed timers
        self.live_pid = -1         # newest injection's pid (-1 = none)


class _Flow:
    """Sender + receiver state for one ``(src, dst)`` pair."""

    __slots__ = (
        "key", "next_seq", "buffer", "inflight", "window",
        "rcv_cum", "rcv_ooo", "cancelled", "pump_pending",
    )

    def __init__(self, key: FlowKey, window: int) -> None:
        self.key = key
        self.next_seq = 0
        #: queued (seq, length) not yet allowed into the window
        self.buffer: deque[tuple[int, int]] = deque()
        #: seq -> live _Segment
        self.inflight: dict[int, _Segment] = {}
        self.window = window
        #: highest seq with every seq' <= it consumed (cumulative ack)
        self.rcv_cum = -1
        #: consumed seqs above the cumulative point (out of order)
        self.rcv_ooo: set[int] = set()
        #: seqs abandoned by a flow abort (late arrivals suppressed)
        self.cancelled: set[int] = set()
        self.pump_pending = False

    def settled(self) -> bool:
        return not self.buffer and not self.inflight


class ReliableTransport:
    """Installs end-to-end acked delivery onto a live engine.

    Usage::

        tp = ReliableTransport(engine, TransportConfig(), rng)
        ... tp.send(src, dst, length) from source processes ...
        tp.quiesce()           # drain fabric + retransmit pipeline
        tp.delivered_ratio()   # unique messages delivered end to end

    :attr:`outcomes` maps ``(src, dst, seq)`` to ``"delivered"`` or
    ``"aborted"`` once settled; :meth:`send` returns that key.
    """

    def __init__(
        self,
        engine: WormholeEngine,
        config: Optional[TransportConfig] = None,
        rng: Optional[RandomStream] = None,
    ) -> None:
        self.engine = engine
        self.env = engine.env
        self.config = config if config is not None else TransportConfig()
        self.rng = rng if rng is not None else RandomStream(0, name="transport")
        self._flows: dict[FlowKey, _Flow] = {}
        #: data pid -> (flow key, seq, length); stale pids stay
        #: registered so a slow original delivering after a
        #: retransmit counts as a dup.
        self._data_pids: dict[int, tuple[FlowKey, int, int]] = {}
        #: ack pid -> (flow key, cum, sack) snapshotted at offer time
        self._ack_pids: dict[int, tuple[FlowKey, int, int]] = {}
        #: (src, dst, seq) -> "delivered" | "aborted"
        self.outcomes: dict[tuple[int, int, int], str] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_aborted = 0
        self.flows_aborted = 0
        self.acks_lost = 0
        #: deferred actions (retransmits / pumps / ack sends) not yet run
        self.pending = 0
        # Cold-kind subscriber (deliver/abort/shed): bus.hot stays False.
        engine.bus.attach(self)

    # -- sending -----------------------------------------------------------

    def send(self, src: int, dst: int, length: int) -> tuple[int, int, int]:
        """Enqueue one reliable message; returns its outcome key.

        Never blocks and never refuses: admission pressure is absorbed
        by the window/buffer and the backoff machinery.
        """
        if src == dst:
            raise ValueError("transport send needs src != dst")
        if length < 1:
            raise ValueError("length must be >= 1")
        flow = self._flow((src, dst))
        seq = flow.next_seq
        flow.next_seq += 1
        flow.buffer.append((seq, length))
        self.messages_sent += 1
        self._pump(flow)
        return (src, dst, seq)

    def _flow(self, key: FlowKey) -> _Flow:
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = _Flow(key, self.config.window)
        return flow

    def _pump(self, flow: _Flow) -> None:
        """Move buffered messages into the window (offers packets)."""
        while flow.buffer and len(flow.inflight) < flow.window:
            seq, length = flow.buffer.popleft()
            seg = _Segment(seq, length, self.config.rto_base)
            flow.inflight[seq] = seg
            self._inject(flow, seg)

    def _inject(self, flow: _Flow, seg: _Segment) -> None:
        seg.attempts += 1
        if seg.attempts > 1:
            self.engine.stats.retransmitted_packets += 1
        src, dst = flow.key
        packet = self.engine.offer(src, dst, seg.length)
        if packet is None or packet.state is PacketState.SHED:
            # Blocked admission refused the injection, or shed-newest
            # dropped it at the door.  The attempt is spent; back off
            # (the shed event for our own clone is ignored by on_shed
            # because the pid was never registered).
            self._on_loss(flow, seg, shrink=packet is not None)
            return
        seg.live_pid = packet.pid
        self._data_pids[packet.pid] = (flow.key, seg.seq, seg.length)
        self.env.call_later(seg.rto, self._rto_timer, flow, seg, seg.timer_token)

    # -- bus callbacks (bookkeeping + timer arming only) -------------------

    def on_deliver(self, t: float, p: Packet) -> None:
        data = self._data_pids.pop(p.pid, None)
        if data is not None:
            self._data_arrived(*data)
            return
        ack = self._ack_pids.pop(p.pid, None)
        if ack is not None:
            self._ack_arrived(*ack)

    def on_abort(self, t: float, p: Packet) -> None:
        self._packet_lost(p.pid)

    def on_shed(self, t: float, p: Packet) -> None:
        # Covers shed-oldest victims of our *own* later offers too: any
        # registered pid that gets shed takes the loss path.
        self._packet_lost(p.pid)

    def _packet_lost(self, pid: int) -> None:
        data = self._data_pids.pop(pid, None)
        if data is not None:
            key, seq, _length = data
            flow = self._flows[key]
            seg = flow.inflight.get(seq)
            if seg is not None and seg.live_pid == pid:
                self._on_loss(flow, seg, shrink=True)
            return
        if self._ack_pids.pop(pid, None) is not None:
            # A lost ack is never retried; the data RTO recovers.
            self.acks_lost += 1

    # -- loss / retransmission ---------------------------------------------

    def _on_loss(self, flow: _Flow, seg: _Segment, *, shrink: bool) -> None:
        if flow.inflight.get(seg.seq) is not seg:
            return
        seg.timer_token += 1
        seg.live_pid = -1
        if shrink:
            flow.window = max(1, flow.window // 2)
        if seg.attempts >= self.config.max_attempts:
            self._abort_flow(flow)
            return
        delay = self._jittered(seg.rto)
        seg.rto = min(seg.rto * self.config.rto_factor, self.config.rto_max)
        self.pending += 1
        self.env.call_later(delay, self._retransmit, flow, seg, seg.timer_token)

    def _jittered(self, base: float) -> float:
        """One RNG draw per retransmit-scheduling decision."""
        if self.config.jitter:
            base *= 1.0 + self.config.jitter * (2.0 * self.rng.random() - 1.0)
        return max(base, 1.0)

    def _retransmit(self, flow: _Flow, seg: _Segment, token: int) -> None:
        self.pending -= 1
        if flow.inflight.get(seg.seq) is not seg or seg.timer_token != token:
            return
        self._inject(flow, seg)

    def _rto_timer(self, flow: _Flow, seg: _Segment, token: int) -> None:
        if flow.inflight.get(seg.seq) is not seg or seg.timer_token != token:
            return
        # No ack and no loss signal within the timeout: assume loss
        # (the original may still be crawling through congestion; a
        # crossing duplicate is suppressed at the receiver).
        self.engine.stats.rto_fires += 1
        # The slow original (if any) stays registered: its eventual
        # deliver counts as a duplicate, and because _on_loss clears
        # live_pid, its later abort/shed is ignored as stale.
        self._on_loss(flow, seg, shrink=True)

    def _abort_flow(self, flow: _Flow) -> None:
        """Give up the flow's unacked backlog; never a hang."""
        self.flows_aborted += 1
        self.engine.stats.flows_aborted += 1
        src, dst = flow.key
        for seq, seg in flow.inflight.items():
            seg.timer_token += 1
            flow.cancelled.add(seq)
            if self.outcomes.setdefault((src, dst, seq), "aborted") == "aborted":
                self.messages_aborted += 1
        flow.inflight.clear()
        for seq, _length in flow.buffer:
            flow.cancelled.add(seq)
            if self.outcomes.setdefault((src, dst, seq), "aborted") == "aborted":
                self.messages_aborted += 1
        flow.buffer.clear()
        flow.window = 1

    # -- receiver ----------------------------------------------------------

    def _data_arrived(self, key: FlowKey, seq: int, length: int) -> None:
        flow = self._flows[key]
        if seq <= flow.rcv_cum or seq in flow.rcv_ooo or seq in flow.cancelled:
            # Duplicate (retransmission crossed the original, or the
            # ack was lost) or a cancelled straggler: suppress, re-ack.
            self.engine.stats.dup_acks += 1
        else:
            flow.rcv_ooo.add(seq)
            while flow.rcv_cum + 1 in flow.rcv_ooo or (
                flow.rcv_cum + 1 in flow.cancelled
            ):
                flow.rcv_cum += 1
                flow.rcv_ooo.discard(flow.rcv_cum)
            src, dst = key
            self.engine.stats.goodput_flits += length
            self.messages_delivered += 1
            self.outcomes[(src, dst, seq)] = "delivered"
        self.pending += 1
        self.env.call_later(self.config.ack_delay, self._send_ack, flow, seq)

    def _send_ack(self, flow: _Flow, sack: int) -> None:
        self.pending -= 1
        # Snapshot the receive state at send time (delayed acks carry
        # the freshest cumulative point).
        cum = flow.rcv_cum
        src, dst = flow.key
        packet = self.engine.offer(dst, src, self.config.ack_length)
        if packet is None or packet.state is PacketState.SHED:
            self.acks_lost += 1
            return
        self.engine.stats.ack_packets += 1
        self._ack_pids[packet.pid] = (flow.key, cum, sack)

    # -- sender ack processing ---------------------------------------------

    def _ack_arrived(self, key: FlowKey, cum: int, sack: int) -> None:
        flow = self._flows[key]
        acked = [seq for seq in flow.inflight if seq <= cum]
        if sack in flow.inflight and sack > cum:
            acked.append(sack)
        if not acked:
            return
        for seq in acked:
            seg = flow.inflight.pop(seq)
            seg.timer_token += 1
            if seg.live_pid >= 0:
                self._data_pids.pop(seg.live_pid, None)
        flow.window = min(
            flow.window + self.config.ai_step, self.config.max_window
        )
        if flow.buffer and not flow.pump_pending:
            flow.pump_pending = True
            self.pending += 1
            self.env.call_later(1.0, self._deferred_pump, flow)

    def _deferred_pump(self, flow: _Flow) -> None:
        self.pending -= 1
        flow.pump_pending = False
        self._pump(flow)

    # -- reporting / draining ----------------------------------------------

    def delivered_ratio(self) -> float:
        """Fraction of settled messages that ended delivered."""
        if not self.outcomes:
            return float("nan")
        done = sum(1 for o in self.outcomes.values() if o == "delivered")
        return done / len(self.outcomes)

    @property
    def idle(self) -> bool:
        return self.pending == 0 and all(
            f.settled() for f in self._flows.values()
        )

    def quiesce(self, max_cycles: int = 1_000_000) -> None:
        """Drain the fabric *and* the transport pipeline.

        Keeps running while backoff timers or windowed backlogs hold
        messages outside the network.  Raises if the combined system
        fails to settle -- the "never a hang" guarantee is enforced,
        not assumed.
        """
        self.engine.drain(max_cycles, held=lambda: self.pending + sum(
            len(f.buffer) + len(f.inflight) for f in self._flows.values()
        ))

    def __repr__(self) -> str:
        return (
            f"<ReliableTransport flows={len(self._flows)} "
            f"sent={self.messages_sent} delivered={self.messages_delivered} "
            f"aborted={self.messages_aborted} pending={self.pending}>"
        )
