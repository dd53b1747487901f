"""The demos run to completion against the package in src/ and print what
their golden files in tests/golden/demos/ hold."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN_DIR / "demos" / f"{demo.stem}.txt").read_text()
