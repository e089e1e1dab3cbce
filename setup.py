"""Packaging for the SBI/SWI reproduction.

Installs the ``repro`` package from ``src/`` and the ``repro`` console
script (the same entry point as ``python -m repro``).  Kept as a plain
``setup.py`` so `python setup.py develop` still works on environments
without the ``wheel`` package (pip editable installs need
bdist_wheel).
"""

from setuptools import find_packages, setup

setup(
    name="repro-sbi-swi",
    version="1.6.0",
    description=(
        "Cycle-level reproduction of 'Simultaneous Branch and Warp "
        "Interweaving for Sustained GPU Performance' (ISCA 2012)"
    ),
    packages=find_packages("src"),
    package_dir={"": "src"},
    # PEP 561: the package ships inline type annotations.
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
