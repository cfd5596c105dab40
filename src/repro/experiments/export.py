"""Machine-readable export of sweeps and figures (CSV and JSON).

Every regenerated figure can be dumped for downstream plotting::

    fig = fig18(SCALED)
    write_figure_csv(fig, "fig18.csv")
    write_figure_json(fig, "fig18.json")

The CSV is long-form (one row per series x load point) so it loads
directly into pandas/R; the JSON mirrors the dataclasses.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.experiments.runner import SweepResult
from repro.metrics.summary import MEASUREMENT_COLUMNS, measurement_row

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.figures import FigureResult

#: Column order of the long-form CSV: the two identity columns plus the
#: shared Measurement registry (extend the registry, not this list; see
#: :data:`repro.metrics.summary.MEASUREMENT_COLUMNS`).
CSV_FIELDS = ["series", "offered_load"] + [
    c.name for c in MEASUREMENT_COLUMNS
]


def sweep_rows(sweep: SweepResult) -> list[dict]:
    """Long-form dict rows of one sweep."""
    rows = []
    for p in sweep.points:
        m = p.measurement
        if m is None:  # crashed point from a partial parallel run
            continue
        row = {"series": sweep.label, "offered_load": p.offered_load}
        row.update(measurement_row(m))
        rows.append(row)
    return rows


def write_rows_csv(
    rows, fields: list[str], path: Union[str, Path]
) -> Path:
    """Write dict rows under a fixed header; returns the path.

    The shared CSV back end of the figure exporter and the sweep
    service's manifest exporter (:mod:`repro.serve.export`).
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_figure_csv(fig: FigureResult, path: Union[str, Path]) -> Path:
    """Write every series of a figure as long-form CSV; returns the path."""
    return write_rows_csv(
        [row for sweep in fig.series for row in sweep_rows(sweep)],
        CSV_FIELDS,
        path,
    )


def _jsonable(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    return value


def write_figure_json(fig: FigureResult, path: Union[str, Path]) -> Path:
    """Write a figure (metadata + all points) as JSON; returns the path."""
    path = Path(path)
    payload = {
        "figure_id": fig.figure_id,
        "title": fig.title,
        "expectation": fig.expectation,
        "series": [
            {
                "label": sweep.label,
                "points": [
                    {k: _jsonable(v) for k, v in row.items()}
                    for row in sweep_rows(sweep)
                ],
            }
            for sweep in fig.series
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def read_figure_csv(path: Union[str, Path]) -> list[dict]:
    """Read a long-form CSV back into typed dict rows (round-trip aid).

    Type conversions come from the column registry, so columns added
    there round-trip automatically.  Columns present in an older CSV
    but unknown to the registry stay strings.
    """
    rows = []
    with Path(path).open() as fh:
        for raw in csv.DictReader(fh):
            row: dict = dict(raw)
            row["offered_load"] = float(row["offered_load"])
            for col in MEASUREMENT_COLUMNS:
                if col.name in row:
                    row[col.name] = col.convert(row[col.name])
            rows.append(row)
    return rows
