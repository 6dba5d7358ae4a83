"""Setup shim.

The execution environment has setuptools but no ``wheel`` package and no
network, so PEP-517 editable installs (``pip install -e .``) cannot build a
wheel.  This shim lets ``python setup.py develop`` (which pip falls back to)
install the package in editable mode; there is no pyproject.toml, so the
metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of 'Benchmarking the Linear Algebra "
                "Awareness of TensorFlow and PyTorch' (IPDPSW 2022)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["laab = repro.experiments.cli:main"]},
)
