"""Shared fixtures for the wormhole simulator tests."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole import WormholeEngine, build_network


@pytest.fixture
def make_engine():
    """Factory: build (env, engine) for a network kind and geometry."""

    def _make(kind, k=2, n=3, seed=42, **kwargs):
        env = Environment()
        net = build_network(kind, k=k, n=n, **kwargs)
        engine = WormholeEngine(env, net, rng=RandomStream(seed))
        return env, engine

    return _make


@pytest.fixture
def default_tier(monkeypatch):
    """Run with the default tier and no sanitizer, whatever the caller set."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
