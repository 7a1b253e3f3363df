"""The packaging metadata in ``setup.py`` matches the package itself."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_reports_package_name_and_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split()[-2:] == ["repro", repro.__version__]
