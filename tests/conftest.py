import os
from pathlib import Path

import pytest
from hypothesis import settings

from harmonic_census import PrimeModulus

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


def pytest_configure(config):
    # `pythonpath = ["src"]` reaches only this process; the CLI tests that
    # run `python -m harmonic_census` in a subprocess need it in the env
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


@pytest.fixture(scope="session")
def m5():
    return PrimeModulus(5)


@pytest.fixture(scope="session")
def m7():
    return PrimeModulus(7)


@pytest.fixture(scope="session")
def m13():
    return PrimeModulus(13)
