"""mypy-strict perimeter (CI's ``typecheck`` job, local when available).

mypy is a CI-only dependency, so the actual run is skipped on images
without it; the configuration itself is pinned unconditionally so the
strict perimeter cannot silently shrink.
"""

import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
STRICT_PACKAGES = {"repro.serve", "repro.verify", "repro.sim", "repro.metrics"}


def mypy_config() -> dict:
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["tool"]["mypy"]


def test_strict_perimeter_is_declared():
    cfg = mypy_config()
    assert cfg["strict"] is True
    assert set(cfg["packages"]) == STRICT_PACKAGES
    assert cfg["modules"] == ["repro.wormhole.sanitizer"]
    assert cfg["mypy_path"] == "src"


def test_mypy_strict_passes():
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
