"""Transport-config points through the serving layer.

``PointSpec.transport`` selects the end-to-end reliability execution
path (:func:`repro.serve.compute._run_transport_point`).  These tests
pin the contracts that keep the cache sound around it: canonical
normalization (two spellings of one config cannot split keys), key
stability for pre-existing non-transport jobs, mutual exclusion with
the stability path, engine-tier key equivalence (the retired
``batch`` name hashes as fast), and deterministic payloads carrying the end-to-end tallies.
"""

import json

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.workload_spec import WorkloadSpec
from repro.serve.canonical import payload_json
from repro.serve.compute import run_point_spec
from repro.serve.job import (
    TRANSPORT_DEFAULTS,
    FaultSpec,
    JobSpec,
    PointSpec,
    validate_transport,
)
from repro.transport import TransportConfig

NET = NetworkConfig(kind="dmin", k=2, n=3)
WL = WorkloadSpec(k=2, n=3)


def spec_with(transport):
    return JobSpec(
        networks=(NET,),
        run=SMOKE,
        workload=WL,
        loads=(0.4,),
        seeds=(7,),
        transport=transport,
    )


# -------------------------------------------------------- normalization


def test_defaults_are_materialized():
    assert validate_transport({}) == dict(sorted(TRANSPORT_DEFAULTS.items()))
    assert validate_transport(None) is None


def test_defaults_match_dataclass():
    assert TransportConfig(**TRANSPORT_DEFAULTS) == TransportConfig()


def test_two_spellings_one_key():
    implicit = PointSpec(NET, WL, 0.4, 7, SMOKE, transport={"window": 8})
    explicit = PointSpec(
        NET, WL, 0.4, 7, SMOKE,
        transport={**TRANSPORT_DEFAULTS, "window": 8},
    )
    assert implicit.transport == explicit.transport
    assert implicit.key() == explicit.key()


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown transport key"):
        validate_transport({"rto": 100.0})


def test_bad_values_rejected():
    with pytest.raises(ValueError):
        validate_transport({"window": 0})
    with pytest.raises(ValueError):
        validate_transport({"jitter": 2.0})
    with pytest.raises(ValueError, match="mapping"):
        validate_transport([1, 2])


def test_values_coerced():
    cfg = validate_transport({"window": 8.0, "rto_base": 100})
    assert cfg["window"] == 8 and isinstance(cfg["window"], int)
    assert cfg["rto_base"] == 100.0 and isinstance(cfg["rto_base"], float)


def test_transport_and_stability_exclusive():
    with pytest.raises(ValueError, match="combine stability and transport"):
        PointSpec(NET, WL, 0.4, 7, SMOKE, stability={}, transport={})


def test_transport_with_faults_allowed():
    point = PointSpec(
        NET, WL, 0.4, 7, SMOKE,
        faults=FaultSpec(rate=0.05),
        transport={},
    )
    assert point.transport is not None


# ------------------------------------------------------------ round-trip


def test_jobspec_round_trips_with_transport():
    spec = spec_with({"window": 8, "rto_base": 64.0})
    again = JobSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.job_id == spec.job_id
    assert again.points()[0].transport == spec.points()[0].transport


def test_plain_jobs_keep_their_job_id():
    """`to_dict` omits a None transport block, so every job_id minted
    before the field existed still addresses the same manifest."""
    spec = spec_with(None)
    assert "transport" not in spec.to_dict()
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_plain_point_key_has_no_transport():
    point = PointSpec(NET, WL, 0.4, 7, SMOKE)
    assert "transport" not in point.config()


def test_batch_hashes_as_fast():
    fast = PointSpec(NET, WL, 0.4, 7, SMOKE, transport={}, engine="fast")
    batch = PointSpec(NET, WL, 0.4, 7, SMOKE, transport={}, engine="batch")
    assert fast.key() == batch.key()


# --------------------------------------------------------------- payload


@pytest.fixture(scope="module")
def payload():
    (point,) = spec_with({"rto_base": 64.0, "rto_max": 1024.0}).points()
    return run_point_spec(point)


def test_payload_carries_transport_block(payload):
    block = payload["transport"]
    assert block["config"]["rto_base"] == 64.0
    assert block["messages_sent"] > 0
    assert (
        block["messages_delivered"] + block["messages_aborted"]
        <= block["messages_sent"]
    )
    assert payload["measurement"]["delivered_packets"] > 0


def test_payload_is_deterministic(payload):
    (point,) = spec_with({"rto_base": 64.0, "rto_max": 1024.0}).points()
    again = run_point_spec(point)
    assert payload_json(again) == payload_json(payload)


def test_payload_is_json_serializable(payload):
    json.loads(payload_json(payload))


def test_payload_identical_across_engines(payload):
    (point,) = spec_with({"rto_base": 64.0, "rto_max": 1024.0}).points()
    for engine in ("fast", "reference"):
        other = run_point_spec(
            PointSpec(
                point.network, point.workload, point.load, point.seed,
                point.run, engine=engine, transport=point.transport,
            )
        )
        assert payload_json(other) == payload_json(payload)
