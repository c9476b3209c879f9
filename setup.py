"""Setuptools shim.

The execution environment has no network and no ``wheel`` package, so the
modern PEP 517 editable-install path is unavailable; this classic ``setup.py``
lets ``pip install -e . --no-build-isolation`` (and plain ``pip install -e .``
on older pips) fall back to the legacy develop install.  All package
metadata lives here; the repository has no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "ETA2: Expertise-Aware Truth Analysis and Task Allocation in Mobile "
        "Crowdsourcing (ICDCS 2017 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
