"""Setup shim.

This environment is offline with setuptools 65 and no ``wheel`` package,
so PEP 660 editable installs cannot build. The shim enables the legacy
path: ``pip install -e . --no-build-isolation --no-use-pep517``
(or plain ``pip install -e .`` where the toolchain is newer).

Installs a ``wanify`` console script wrapping the CLI
(:func:`repro.cli.main`), equivalent to ``python -m repro``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-wanify",
    version="1.2.0",
    description=(
        "Reproduction of WANify: gauging and balancing runtime WAN "
        "bandwidth for geo-distributed data analytics"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "wanify = repro.cli:main",
        ]
    },
)
