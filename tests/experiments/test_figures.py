"""Tests for the figure builders, report rendering and shape checks.

Full-figure regeneration is exercised at SMOKE fidelity or below; the
statistically meaningful runs live in benchmarks/ (SCALED preset).  Here
we verify structure, determinism hooks and the *robust* physical
signatures (e.g. the exact 25% permutation cap) that hold even in tiny
runs.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import SMOKE
from repro.experiments.figures import (
    FIGURE_BUILDERS,
    FigureResult,
    fig16,
    fig18,
    fig20,
)
from repro.experiments.report import render_figure, render_sweep, shape_checks
from repro.experiments.runner import sweep
from repro.experiments.figures import (
    BMIN,
    CUBE_DMIN,
    CUBE_TMIN,
    CUBE_VMIN,
    shuffle_workload,
    uniform_workload,
)
from repro.traffic.clusters import global_cluster

TINY = replace(
    SMOKE, warmup_packets=20, measure_packets=150, loads=(0.25, 0.6)
)


def test_figure_builders_registry():
    assert sorted(FIGURE_BUILDERS) == ["fig16", "fig17", "fig18", "fig19", "fig20"]


def test_fig16_structure_and_rendering():
    fig = fig16(TINY)
    assert isinstance(fig, FigureResult)
    assert len(fig.series) == 5
    assert "cube TMIN / global" in fig.labels
    text = render_figure(fig)
    assert "fig16" in text and "thr %" in text
    assert fig.by_label("cube TMIN / global").points
    with pytest.raises(KeyError):
        fig.by_label("nope")


def test_fig16_global_equivalence_holds_even_tiny():
    """Cube and butterfly TMIN coincide under global uniform traffic."""
    fig = fig16(TINY)
    cube = fig.by_label("cube TMIN / global").max_sustained_throughput()
    butt = fig.by_label("butterfly TMIN / global").max_sustained_throughput()
    assert abs(cube - butt) < max(4.0, 0.15 * cube)


def test_fig18_ordering_dmin_over_tmin():
    """The headline: DMIN beats TMIN, robust even in tiny runs."""
    fig = fig18(TINY)
    dmin = fig.by_label("DMIN / global").max_sustained_throughput()
    tmin = fig.by_label("TMIN / global").max_sustained_throughput()
    assert dmin > tmin
    checks = shape_checks(fig)
    by_claim = {c.claim: c for c in checks}
    assert by_claim["global: DMIN best"].passed
    assert by_claim["global: TMIN worst"].passed


def test_fig20_static_quarter_cap():
    """Under shuffle traffic TMIN and VMIN cap at exactly 25%: four
    source/destination pairs share one channel (Section 5.3.3)."""
    wb = shuffle_workload(TINY)
    for net in (CUBE_TMIN, CUBE_VMIN):
        s = sweep(net, wb, TINY, loads=(0.6,), label=net.label)
        thr = s.points[0].measurement.throughput_percent
        assert thr <= 25.5
        assert thr >= 20.0  # and the cap is actually approached


def test_fig20_dmin_and_bmin_clear_the_cap():
    wb = shuffle_workload(TINY)
    for net in (CUBE_DMIN, BMIN):
        s = sweep(net, wb, TINY, loads=(0.6,), label=net.label)
        assert s.points[0].measurement.throughput_percent > 30.0


def test_shape_checks_cover_every_figure():
    fig = fig16(TINY)
    assert shape_checks(fig)
    bogus = FigureResult("fig99", "t", "e", fig.series)
    with pytest.raises(ValueError):
        shape_checks(bogus)


def test_shape_check_str():
    fig = fig16(TINY)
    for chk in shape_checks(fig):
        text = str(chk)
        assert text.startswith(("[PASS]", "[FAIL]"))


def test_render_sweep_marks_unsaturated_points():
    wb = uniform_workload(global_cluster(), TINY)
    s = sweep(CUBE_TMIN, wb, TINY, loads=(0.25,))
    text = render_sweep(s)
    assert "0.25" in text and ("yes" in text or "NO" in text)


def test_cli_smoke(capsys):
    from repro.experiments.__main__ import main

    rc = main(["--figure", "fig16", "--mode", "smoke"])
    out = capsys.readouterr().out
    assert "fig16" in out and "shape checks" in out
    assert rc in (0, 1)


def test_cli_failed_replay_fails_a_combined_run(monkeypatch, capsys):
    """A replay that reports FAIL fails the whole call, even when a
    figure runs after it."""
    from repro.experiments import __main__ as cli

    monkeypatch.setattr(cli, "_run_replay", lambda args, run_cfg: 1)
    monkeypatch.setattr(cli, "shape_checks", lambda fig: [])
    rc = cli.main(["--replay", "x", "--figure", "fig16", "--mode", "smoke"])
    assert "fig16" in capsys.readouterr().out
    assert rc == 1


def test_cli_requires_target(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main([])
