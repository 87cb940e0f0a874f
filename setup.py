"""Package metadata for ``pip install -e .``.

The importable package is ``repro`` under ``src/``; its only runtime
dependency is numpy.  The test suite additionally uses pytest and
hypothesis, which are not install requirements.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'Exploiting Long-Distance Interactions and "
        "Tolerating Atom Loss in Neutral Atom Quantum Architectures'"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
)
