"""The receiver calibration scan still picks the values the presets ship."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import tbqkd

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate.py"


def test_presets_match_the_scan_winners():
    # the script imports the same tbqkd as this test
    package_root = str(Path(tbqkd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "presets match the scan winners" in result.stdout.splitlines()
