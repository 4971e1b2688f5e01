"""Package metadata: ``pyproject.toml`` names the package and its version.

``setup.py`` is a shim that defers every field to ``pyproject.toml``.
Asking setuptools for the name and version from the repository root
must print ``repro`` and ``repro.__version__``, offline and without
leaving build files behind.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]


def test_setup_reports_name_and_version_from_pyproject():
    before = sorted(p.name for p in ROOT.iterdir())
    done = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro", repro.__version__]
    assert sorted(p.name for p in ROOT.iterdir()) == before
    assert not list((ROOT / "src").glob("*.egg-info"))
