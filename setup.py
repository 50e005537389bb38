"""Legacy setup shim for offline editable installs (see pyproject.toml)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'On the Parallelization of MCMC for Community "
        "Detection' (ICPP 2022): SBP, A-SBP and H-SBP with a DCSBM substrate"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
