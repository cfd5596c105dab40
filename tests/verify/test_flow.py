"""Tests for the interprocedural purity analyzer (``repro.verify.flow``).

Three layers: resolution-precision units on tiny in-memory projects
(the cases that made early drafts cry wolf), the seeded negative
control (an env read three calls deep **must** be convicted -- a
vacuous analyzer fails CI), and the repo gate itself (the shipped
compute closure certifies PURE with every allowlist entry used and
justified).
"""

from pathlib import Path

import pytest

from repro.verify.flow import (
    DEFAULT_ENTRY_POINTS,
    IMPURE_FIXTURE_ENTRY,
    PURITY_ALLOWLIST,
    ProjectAnalysis,
    ProjectGraph,
    certify,
    negative_control_certificate,
)
from repro.verify.flow.__main__ import main as flow_main

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src" / "repro"


def analyze(sources: dict) -> ProjectAnalysis:
    return ProjectAnalysis.from_sources(sources, package="fixture")


def kinds_of(cert) -> set:
    return {v.effect.kind for v in cert.violations}


# ------------------------------------------------- effect classification


def test_env_read_is_flagged():
    cert = certify(
        analyze({"fixture.m": "import os\ndef f():\n    return os.environ['X']\n"}),
        entries=("fixture.m.f",), allowlist={},
    )
    assert kinds_of(cert) == {"env-read"}


def test_wall_clock_and_unseeded_rng_flagged():
    src = (
        "import random\nimport time\n"
        "def f():\n    return time.monotonic() + random.random()\n"
    )
    cert = certify(
        analyze({"fixture.m": src}), entries=("fixture.m.f",), allowlist={}
    )
    assert kinds_of(cert) == {"wall-clock", "unseeded-rng"}


def test_seeded_random_is_sanctioned():
    """random.Random(seed) is the RandomStream core -- never flagged."""
    src = "import random\ndef f(seed):\n    return random.Random(seed)\n"
    cert = certify(
        analyze({"fixture.m": src}), entries=("fixture.m.f",), allowlist={}
    )
    assert cert.ok


def test_zero_arg_random_constructor_is_flagged():
    src = "import random\ndef f():\n    return random.Random()\n"
    cert = certify(
        analyze({"fixture.m": src}), entries=("fixture.m.f",), allowlist={}
    )
    assert kinds_of(cert) == {"unseeded-rng"}


def test_str_replace_is_not_filesystem():
    src = "def f(s):\n    return s.replace('a', 'b')\n"
    cert = certify(
        analyze({"fixture.m": src}), entries=("fixture.m.f",), allowlist={}
    )
    assert cert.ok


def test_global_mutation_flagged():
    src = "COUNT = 0\ndef f():\n    global COUNT\n    COUNT += 1\n"
    cert = certify(
        analyze({"fixture.m": src}), entries=("fixture.m.f",), allowlist={}
    )
    assert kinds_of(cert) == {"global-mut"}


# --------------------------------------------------- call-graph precision


def test_effect_propagates_through_calls():
    srcs = {
        "fixture.inner": "import os\ndef leaf():\n    return os.getenv('X')\n",
        "fixture.outer": (
            "from fixture.inner import leaf\n"
            "def entry():\n    return leaf()\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.outer.entry",), allowlist={})
    assert not cert.ok
    assert cert.violations[0].chain == (
        "fixture.outer.entry", "fixture.inner.leaf",
    )


def test_bound_method_handed_to_a_call_is_an_edge():
    """A timed callback (``env.call_later(d, self.fire)``) runs later:
    the method it names is in the closure of the arming function."""
    src = (
        "import os\n"
        "class T:\n"
        "    def arm(self, env):\n        env.call_later(1.0, self.fire, 3)\n"
        "    def fire(self, n):\n        return os.environ['X']\n"
    )
    cert = certify(
        analyze({"fixture.m": src}), entries=("fixture.m.T.arm",), allowlist={}
    )
    assert kinds_of(cert) == {"env-read"}
    assert cert.violations[0].chain == ("fixture.m.T.arm", "fixture.m.T.fire")


def test_bus_subscription_is_an_edge():
    """A bus subscriber's callbacks run when the bus publishes:
    ``bus.attach(self)`` reaches every ``on_*`` method, inherited ones
    included, and nothing else of the subscriber."""
    src = (
        "import os, time\n"
        "class Base:\n"
        "    def on_abort(self, t, p):\n        return time.time()\n"
        "class Sub(Base):\n"
        "    def __init__(self, engine):\n        engine.bus.attach(self)\n"
        "    def on_deliver(self, t, p):\n        self._arrived(p)\n"
        "    def _arrived(self, p):\n        return os.environ['X']\n"
        "    def unused(self):\n        return open('f')\n"
    )
    cert = certify(
        analyze({"fixture.m": src}),
        entries=("fixture.m.Sub.__init__",),
        allowlist={},
    )
    assert kinds_of(cert) == {"env-read", "wall-clock"}
    chains = {v.chain for v in cert.violations}
    assert (
        "fixture.m.Sub.__init__",
        "fixture.m.Sub.on_deliver",
        "fixture.m.Sub._arrived",
    ) in chains
    assert ("fixture.m.Sub.__init__", "fixture.m.Base.on_abort") in chains


def test_unreachable_impurity_is_not_charged():
    srcs = {
        "fixture.m": (
            "import os\n"
            "def pure():\n    return 1\n"
            "def dirty():\n    return os.environ['X']\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.m.pure",), allowlist={})
    assert cert.ok


def test_function_level_import_resolves():
    srcs = {
        "fixture.inner": "import time\ndef leaf():\n    return time.time()\n",
        "fixture.outer": (
            "def entry():\n"
            "    from fixture.inner import leaf\n"
            "    return leaf()\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.outer.entry",), allowlist={})
    assert kinds_of(cert) == {"wall-clock"}


def test_super_call_resolves_through_bases_only():
    """`super().__init__()` must not union every __init__ in the project."""
    srcs = {
        "fixture.base": (
            "class Base:\n"
            "    def __init__(self):\n        self.x = 1\n"
        ),
        "fixture.sub": (
            "from fixture.base import Base\n"
            "import os\n"
            "class Unrelated:\n"
            "    def __init__(self):\n        self.y = os.environ['X']\n"
            "class Child(Base):\n"
            "    def __init__(self):\n        super().__init__()\n"
            "def entry():\n    return Child()\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.sub.entry",), allowlist={})
    assert cert.ok, [v.witness() for v in cert.violations]


def test_typed_receiver_does_not_name_match():
    """A receiver typed by annotation resolves in its own class, not to
    every same-named method in the project."""
    srcs = {
        "fixture.m": (
            "import time\n"
            "class Quiet:\n"
            "    def ping(self):\n        return 1\n"
            "class Loud:\n"
            "    def ping(self):\n        return time.time()\n"
            "def entry(q: Quiet):\n    return q.ping()\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.m.entry",), allowlist={})
    assert cert.ok


def test_untyped_receiver_unions_conservatively():
    srcs = {
        "fixture.m": (
            "import time\n"
            "class Loud:\n"
            "    def ping(self):\n        return time.time()\n"
            "def entry(q):\n    return q.ping()\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.m.entry",), allowlist={})
    assert kinds_of(cert) == {"wall-clock"}


def test_tuple_unpack_types_from_return_annotation():
    srcs = {
        "fixture.m": (
            "import time\n"
            "class Env:\n"
            "    def run(self):\n        return 1\n"
            "class Svc:\n"
            "    def run(self):\n        return time.time()\n"
            "def build() -> tuple[Env, int]:\n    return Env(), 0\n"
            "def entry():\n"
            "    env, n = build()\n"
            "    return env.run()\n"
        ),
    }
    cert = certify(analyze(srcs), entries=("fixture.m.entry",), allowlist={})
    assert cert.ok, [v.witness() for v in cert.violations]


def test_allowlist_is_a_summary_barrier():
    srcs = {
        "fixture.m": (
            "import os\n"
            "def sink():\n    return os.environ['X']\n"
            "def entry():\n    return sink()\n"
        ),
    }
    cert = certify(
        analyze(srcs),
        entries=("fixture.m.entry",),
        allowlist={"fixture.m.sink": "proven benign for this test"},
    )
    assert cert.ok
    assert cert.allowlist_uses == {
        "fixture.m.sink": "proven benign for this test"
    }


def test_missing_entry_point_fails_certification():
    cert = certify(
        analyze({"fixture.m": "def f():\n    return 1\n"}),
        entries=("fixture.m.nope",), allowlist={},
    )
    assert not cert.ok and cert.missing_entries == ["fixture.m.nope"]


# ------------------------------------------------------- negative control


def test_negative_control_convicts_the_impure_fixture():
    cert = negative_control_certificate()
    assert not cert.ok
    assert {"env-read", "wall-clock"} <= kinds_of(cert)


def test_negative_control_witness_chain_is_three_deep():
    cert = negative_control_certificate()
    env_chains = [
        v.chain for v in cert.violations if v.effect.kind == "env-read"
    ]
    assert env_chains, "env read not convicted"
    chain = env_chains[0]
    assert chain[0] == IMPURE_FIXTURE_ENTRY
    assert len(chain) == 4  # entry -> build_config -> choose_mode -> read_mode
    assert chain[-1] == "fixture.depths.read_mode"


def test_witness_renders_entry_to_sink():
    cert = negative_control_certificate()
    witness = cert.violations[0].witness()
    assert IMPURE_FIXTURE_ENTRY in witness and "::" in witness


# ------------------------------------------------------------- repo gate


@pytest.fixture(scope="module")
def repo_analysis():
    return ProjectAnalysis.from_package(SRC, "repro")


@pytest.fixture(scope="module")
def repo_cert(repo_analysis):
    return certify(repo_analysis, entries=DEFAULT_ENTRY_POINTS)


def test_repo_compute_closure_certifies_pure(repo_cert):
    assert repo_cert.ok, "\n".join(v.witness() for v in repo_cert.violations)


def test_repo_every_allowlist_entry_is_used(repo_cert):
    """No dead allowlist weight: every justified exception is live."""
    assert repo_cert.unused_allowlist == []
    assert set(repo_cert.allowlist_uses) == set(PURITY_ALLOWLIST)


def test_repo_entry_points_all_exist(repo_cert):
    assert repo_cert.missing_entries == []
    assert repo_cert.reachable > 100  # the closure is the real engine


def test_repo_closure_contains_bus_callbacks(repo_analysis):
    """The transport's and the retry layer's bus callbacks -- and what
    they call -- are in the certified closure: serve's transport and
    faulted points run them."""
    calls = {q: fn.calls for q, fn in repo_analysis.graph.functions.items()}
    seen = set(DEFAULT_ENTRY_POINTS)
    queue = list(seen)
    while queue:
        for callee in calls.get(queue.pop(), ()):
            if callee not in seen and callee not in PURITY_ALLOWLIST:
                seen.add(callee)
                queue.append(callee)
    transport = "repro.transport.reliable.ReliableTransport."
    retry = "repro.faults.recovery.SourceRetry."
    for name in (
        *(transport + m for m in (
            "on_deliver", "on_abort", "on_shed",
            "_data_arrived", "_ack_arrived", "_send_ack",
        )),
        *(retry + m for m in (
            "on_offer", "on_deliver", "on_abort", "on_shed",
            "_on_fail", "_reinject", "_watchdog",
        )),
    ):
        assert name in seen, f"{name} is outside the certified closure"


def test_certificate_json_shape(repo_cert):
    d = repo_cert.to_dict()
    assert d["ok"] is True
    assert d["version"] == 1
    assert set(d["assumptions"]) == {
        "dynamic_calls_unresolved", "generic_methods_skipped",
    }
    for name, why in d["allowlist_uses"].items():
        assert name.startswith("repro.") and len(why) > 20


# -------------------------------------------------------------------- CLI


def test_cli_negative_control_passes():
    assert flow_main(["--negative-control", "-q"]) == 0


def test_cli_certify_writes_json(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = flow_main(["--certify", "--json", str(out), "-q"])
    assert rc == 0
    assert out.exists()
    capsys.readouterr()


def test_cli_fails_on_impure_entries(capsys):
    # Certifying the whole serve layer (cache writes!) must fail and
    # print a witness -- proving the gate can reject real code, not
    # just fixtures.
    rc = flow_main(["--certify", "--entry", "repro.serve.cache.ResultCache.put"])
    assert rc == 1
    outerr = capsys.readouterr()
    assert "WITNESS" in outerr.out and "filesystem" in outerr.out


def test_graph_from_package_parses_everything():
    graph = ProjectGraph.from_package(SRC, "repro")
    assert "repro.serve.compute.run_point_spec" in graph.functions
    assert "repro.wormhole.engine.WormholeEngine.step_cycle" in graph.functions
