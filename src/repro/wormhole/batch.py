"""Compatibility shim for the retired ``batch`` engine tier.

``batch`` is now an alias of ``fast`` (see
:func:`repro.wormhole.engine.resolve_engine`), which serves its
allocation draws from :class:`repro.sim.rng.PrefetchStream` without
numpy.  The frozen benchmark suite still calls :func:`require_numpy`
before a ``batch`` repetition; this module goes when that suite is
re-baselined.
"""


def require_numpy() -> None:
    """No-op: the ``batch`` alias needs no optional dependency."""
