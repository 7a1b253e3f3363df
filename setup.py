"""Setuptools metadata for the ``repro`` package (the only packaging file).

The version is read from ``src/repro/__init__.py``, its single source.  The
package installs in fully offline environments (no access to PyPI for build
isolation, no ``wheel`` package) via::

    pip install -e . --no-build-isolation --no-use-pep517

which falls back to the classic ``setup.py develop`` code path.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE)

setup(
    name="repro",
    version=_VERSION.group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy>=1.13"],
)
