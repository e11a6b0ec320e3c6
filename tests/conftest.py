"""Shared fixtures for the test suite."""

import importlib
import os
import pkgutil
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.lib import tsmc90_library  # noqa: E402
from repro.workloads import (  # noqa: E402
    fir_design,
    idct_design,
    interpolation_design,
    resizer_design,
    resizer_main_design,
)


@pytest.fixture(scope="session")
def library():
    """The TSMC-90nm-like library shared by all tests."""
    return tsmc90_library()


@pytest.fixture(scope="session")
def interpolation():
    """The paper's Section II interpolation design (7 muls, 4 adds, 3 states)."""
    return interpolation_design()


@pytest.fixture(scope="session")
def resizer_main():
    """The Fig. 5 "main computation" design (8 operations)."""
    return resizer_main_design()


@pytest.fixture(scope="session")
def resizer_full():
    """The full Fig. 4 resizer design."""
    return resizer_design()


@pytest.fixture(scope="session")
def small_idct():
    """A small (2-row) IDCT design used for flow-level tests."""
    return idct_design(latency=12, rows=2, clock_period=1500.0)


@pytest.fixture(scope="session")
def small_fir():
    """A small FIR design."""
    return fir_design(taps=6, latency=4, clock_period=1500.0)


@pytest.fixture(scope="session")
def all_repro_modules():
    """Every module of the ``repro`` package, imported (``__main__`` entry
    points excepted, since importing those runs a CLI)."""
    import repro

    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")]
