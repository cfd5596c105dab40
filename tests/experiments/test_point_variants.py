"""Parity pins for every simulation-point variant.

Each variant runs one seeded point and reduces its whole result to a
SHA-256 digest of the canonical payload JSON.  The digests were
recorded before the variants were rebased on the shared point
lifecycle in :mod:`repro.experiments.runner` (build, install, warm up
and measure), so any drift in RNG fork labels, layer construction order
or the warm-up/window protocol shows up here as a changed digest.

The engine tier never changes results, so the same digests hold under
``REPRO_ENGINE=fast`` and ``reference`` and under
``REPRO_SANITIZE=1``.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.experiments.availability import availability_point
from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.runner import run_point
from repro.experiments.stability import stability_point
from repro.experiments.traced import run_traced_point
from repro.experiments.transport import transport_point
from repro.experiments.workload_spec import WorkloadSpec
from repro.metrics.collector import measurement_to_dict
from repro.serve.canonical import payload_json
from repro.serve.compute import run_point_spec
from repro.serve.job import FaultSpec, PointSpec

NET = NetworkConfig("dmin", k=2, n=3)
WL = WorkloadSpec(k=2, n=3)
#: The batched variants measure a fixed cycle window; keep it short.
SHORT = replace(SMOKE, max_cycles=8_000)


def digest(obj) -> str:
    return hashlib.sha256(payload_json(obj).encode()).hexdigest()


def plain_point():
    return measurement_to_dict(run_point(NET, WL.builder(SMOKE), 0.4, SMOKE))


def traced_point():
    measurement, obs = run_traced_point(NET, WL, 0.4, SMOKE)
    summary = obs.to_dict()
    del summary["kernel"]  # wall-clock and tier-dependent kernel counts
    return {"measurement": measurement_to_dict(measurement), "obs": summary}


def availability():
    return availability_point(NetworkConfig("tmin"), SMOKE, 0.05)


def stability():
    return stability_point(NET, SHORT, 0.9, knee_throughput=0.3)


def transport():
    return transport_point(NET, SHORT, 0.6, knee_throughput=0.3)


def spec_faulted():
    return run_point_spec(
        PointSpec(
            NET, WL, 0.4, 7, SMOKE,
            faults=FaultSpec(rate=0.2, mttr=200.0),
        )
    )


def spec_transport():
    return run_point_spec(
        PointSpec(
            NET, WL, 0.6, 7, SMOKE,
            faults=FaultSpec(rate=0.1), transport={},
        )
    )


def spec_stability():
    return run_point_spec(PointSpec(NET, WL, 0.9, 7, SHORT, stability={}))


#: name -> (variant, digest recorded before the lifecycle refactor).
VARIANTS = {
    "run_point": (
        plain_point,
        "a624d15b0bcb1bef1b59f9b71a100afe3764f68ade5f2838b611c756e834c96a",
    ),
    "run_traced_point": (
        traced_point,
        "2bf17aa24e5c5dd8c6d9cbce9aed97d8553ace413e3b92a1dadfa1aea7268be1",
    ),
    "availability_point": (
        availability,
        "4ed99a6a81571b713c3b3b216b9c892ee6eaa5c27786dda65d518717fc8afb83",
    ),
    "stability_point": (
        stability,
        "343b68c578ec952f742434850aa3ab5075090fc3ba512a1e63ce5c6e4271a726",
    ),
    "transport_point": (
        transport,
        "08ff8c285821a18d03e0516aa4153d9ec48bfd4e38227ebdb42695397d123baf",
    ),
    "run_point_spec/faults": (
        spec_faulted,
        "84095eb1a80c2ddff0e147c0aa7f1dbdda6600ba8c31a44210c97c0f7e7559c0",
    ),
    "run_point_spec/transport": (
        spec_transport,
        "4087de662a6a86b32f96be859b69014921f5cca73bb6e8e9eb8ede185886b109",
    ),
    "run_point_spec/stability": (
        spec_stability,
        "7c77d63ded8f918b804403e1fe6ee72a8b7f3ba40ac8cc6e241afdc8e36b39d5",
    ),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_point_variant_digest(name):
    run, expected = VARIANTS[name]
    assert digest(run()) == expected
