"""Runtime sanitizer: clean runs pass, corrupted state is caught."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import Environment, ProcessCrash
from repro.sim.rng import RandomStream
from repro.verify import Sanitizer, SanitizerError, sanitize_enabled
from repro.wormhole import WormholeEngine, build_network
from repro.wormhole.packet import PacketState
from repro.wormhole.sanitizer import check_interval

SRC = Path(__file__).resolve().parents[2] / "src"


def make_engine(kind="tmin", sanitize=True, **kwargs):
    env = Environment()
    net = build_network(kind, k=2, n=3, **kwargs)
    eng = WormholeEngine(env, net, rng=RandomStream(7), sanitize=sanitize)
    return env, eng


# ------------------------------------------------------------- opt-in


def test_enable_flag_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "yes")
    assert sanitize_enabled()


def test_check_interval_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE_EVERY", raising=False)
    assert check_interval() == 1
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "16")
    assert check_interval() == 16
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "junk")
    assert check_interval() == 1
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "-3")
    assert check_interval() == 1


def test_engine_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    _, eng = make_engine(sanitize=None)
    assert eng.sanitizer is None


def test_engine_on_via_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _, eng = make_engine(sanitize=None)
    assert isinstance(eng.sanitizer, Sanitizer)


def test_unsanitized_engine_imports_no_verifier():
    """With sanitizing off, building an engine imports neither
    ``repro.verify`` nor networkx (a fresh process proves it)."""
    code = (
        "import sys\n"
        "from repro.sim import Environment\n"
        "from repro.wormhole import WormholeEngine, build_network\n"
        "WormholeEngine(Environment(), build_network('dmin', 2, 3))\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
        "assert 'repro.verify' not in sys.modules, 'repro.verify imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_SANITIZE", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------- clean runs


@pytest.mark.parametrize("kind", ["tmin", "dmin", "vmin", "bmin"])
def test_clean_traffic_passes(kind):
    env, eng = make_engine(kind)
    rng = RandomStream(3)
    packets = []
    for i in range(40):
        src = rng.uniform_int(0, 7)
        dst = rng.uniform_int(0, 7)
        while dst == src:
            dst = rng.uniform_int(0, 7)
        packets.append(eng.offer(src, dst, rng.uniform_int(1, 24)))
    eng.drain()
    assert all(p.state is PacketState.DELIVERED for p in packets)
    assert eng.sanitizer.cycles_checked > 0
    assert eng.sanitizer.violations == 0


def test_hard_fault_abort_is_exempt():
    """Fault recovery flushes a worm mid-flight; the pairing check must
    accept the abort's early releases."""
    from repro.faults import FaultPlan

    env, eng = make_engine("tmin")
    p = eng.offer(0, 6, 200)
    eng.start()
    env.run(until=5)
    route_labels = [ln.channel.label for ln in p.lanes]
    # Fail a channel the worm actually holds, to force an abort.
    plan = FaultPlan.single(at=1, channel=route_labels[1], severity="hard")
    inj = plan.install(env, eng.network, eng)
    env.run(until=50)
    assert inj.killed_worms == 1
    assert p.state is PacketState.FAILED
    assert eng.sanitizer.violations == 0


# ----------------------------------------------------- corruption traps


def _first_owned_lane(eng):
    for ch in eng.network.topo_channels:
        for lane in ch.lanes:
            if lane.owner is not None and not ch.is_delivery:
                return lane
    raise AssertionError("no owned lane in flight")


def _run_until_in_flight(env, eng):
    eng.offer(0, 6, 500)
    eng.start()
    env.run(until=6)


def test_catches_buffer_overflow(monkeypatch):
    env, eng = make_engine()
    _run_until_in_flight(env, eng)
    lane = _first_owned_lane(eng)
    lane.buf = 5  # cosmic ray
    with pytest.raises((SanitizerError, ProcessCrash), match="1-flit buffer"):
        env.run(until=env.now + 5)


def test_catches_ownership_drift(monkeypatch):
    env, eng = make_engine()
    _run_until_in_flight(env, eng)
    lane = _first_owned_lane(eng)
    lane.channel.owned_count += 1
    with pytest.raises((SanitizerError, ProcessCrash), match="owned_count"):
        env.run(until=env.now + 5)


def test_catches_conservation_break(monkeypatch):
    env, eng = make_engine()
    _run_until_in_flight(env, eng)
    lane = _first_owned_lane(eng)
    lane.sent += 3  # downstream claims flits upstream never sent
    with pytest.raises((SanitizerError, ProcessCrash)):
        env.run(until=env.now + 5)


def test_catches_early_release():
    env, eng = make_engine()
    _run_until_in_flight(env, eng)
    lane = _first_owned_lane(eng)
    assert lane.sent < lane.owner.length
    with pytest.raises(SanitizerError, match="pairing"):
        lane.release()


def test_catches_release_of_free_lane():
    env, eng = make_engine()
    free = None
    for ch in eng.network.topo_channels:
        for lane in ch.lanes:
            if lane.owner is None:
                free = lane
                break
        if free:
            break
    with pytest.raises(SanitizerError, match="unowned"):
        free.release()


def test_two_sanitized_engines_both_catch_early_release():
    """Each sanitizer hooks its own network's channels: a second
    sanitized engine in the process must not silence the first."""
    env1, eng1 = make_engine()
    env2, eng2 = make_engine("dmin")
    for env, eng in ((env1, eng1), (env2, eng2)):
        _run_until_in_flight(env, eng)
    for eng in (eng1, eng2):
        lane = _first_owned_lane(eng)
        with pytest.raises(SanitizerError, match="pairing"):
            lane.release()
        assert eng.sanitizer.violations == 1


def test_foreign_channels_are_not_policed():
    """Channels outside every sanitized network (unit-test fixtures,
    unsanitized engines) carry no release hook."""
    from repro.wormhole.channel import PhysChannel
    from repro.wormhole.packet import Packet

    _, eng = make_engine()  # hooks its own channels only
    ch = PhysChannel("standalone")
    assert ch.release_observer is None
    lane = ch.lanes[0]
    lane.acquire(Packet(0, 0, 1, 4, 0.0))
    lane.release()  # mid-worm, but not our network: no SanitizerError
    assert eng.sanitizer.violations == 0


def test_zero_cost_when_disabled():
    """sanitize=False engines neither create a Sanitizer nor hook their
    channels -- even after a sanitized engine was built."""
    make_engine()
    _, eng = make_engine(sanitize=False)
    assert eng.sanitizer is None
    assert all(ch.release_observer is None for ch in eng.network.topo_channels)
