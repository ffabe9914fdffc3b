"""Setup shim: enables editable installs where `wheel` is unavailable.

All project metadata lives in pyproject.toml. `pip install -e .
--no-build-isolation --no-deps` builds an editable wheel, which needs the
`wheel` package on setuptools older than 70.1; where it is missing (an
offline image with the setuptools that ensurepip bundles), `python setup.py
develop` installs the package in editable mode from the same metadata.
"""

from setuptools import setup

setup()
