"""Static verification of the paper's correctness claims.

The paper *proves* its correctness properties -- turnaround routing is
deadlock-free (Section 3.2.1), offers ``k**t`` shortest paths of length
``2(t+1)`` (Theorem 1), and cube networks partition into
contention-free, channel-balanced clusters (Lemma 1, Theorems 2-4).
The simulator had only ever *exercised* those properties dynamically: a
routing or topology regression surfaced as a mysterious
``DeadlockError`` mid-sweep.  This package turns every theorem into a
machine-checked, pre-flight gate:

* :mod:`repro.verify.cdg` -- builds the **channel dependency graph** of
  a live :class:`~repro.wormhole.network.SimNetwork` by enumerating
  every legal routing decision, and checks the Dally-Seitz acyclicity
  condition with a concrete cycle witness on failure;
* :mod:`repro.verify.properties` -- exhaustive path-count /
  path-length / partitionability checks per network configuration,
  bundled into a :class:`~repro.verify.properties.VerificationReport`;
* :mod:`repro.verify.lint` -- an AST linter for simulator hazards
  (raw ``random.*``, wall-clock time, float ``==`` on sim time,
  mutable default arguments, holds without a release path), run by
  ``tools/lint_sim.py`` and CI;
* :mod:`repro.wormhole.sanitizer` (re-exported here) -- an opt-in
  (``REPRO_SANITIZE=1``) runtime sanitizer asserting flit
  conservation, buffer occupancy bounds and acquire/release pairing
  every cycle; it lives beside the engine so that building an engine
  never imports this package (or networkx);
* :mod:`repro.verify.negative` -- a deliberately *cyclic* routing
  variant the CDG verifier must reject (the checker's negative
  control).

Command line::

    python -m repro.verify --network bmin --k 2 --n 4
    python -m repro.verify --all-small       # every k**n <= 64 config
    python -m repro.verify --negative-control
"""

from repro.verify.cdg import (
    CDGResult,
    CyclicRouteError,
    build_cdg,
    build_escape_cdg,
    check_acyclic,
    check_escape_acyclic,
    check_escape_coverage,
    enumerate_routes,
    find_cycle_witness,
    iter_escape_dependencies,
)
from repro.verify.negative import (
    BrokenDatelineTorus,
    EscapelessNetwork,
    ReascendingBidirectionalNetwork,
    build_direct_negative_control,
    build_negative_control,
)
from repro.verify.properties import (
    CheckResult,
    VerificationReport,
    all_small_configs,
    all_small_direct_configs,
    verify_config,
    verify_network,
)
from repro.wormhole.sanitizer import Sanitizer, SanitizerError, sanitize_enabled

__all__ = [
    "BrokenDatelineTorus",
    "CDGResult",
    "CheckResult",
    "CyclicRouteError",
    "EscapelessNetwork",
    "ReascendingBidirectionalNetwork",
    "Sanitizer",
    "SanitizerError",
    "VerificationReport",
    "all_small_configs",
    "all_small_direct_configs",
    "build_cdg",
    "build_direct_negative_control",
    "build_escape_cdg",
    "build_negative_control",
    "check_acyclic",
    "check_escape_acyclic",
    "check_escape_coverage",
    "enumerate_routes",
    "find_cycle_witness",
    "iter_escape_dependencies",
    "sanitize_enabled",
    "verify_config",
    "verify_network",
]
