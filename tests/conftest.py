"""Shared test settings.

Property tests run under a hypothesis profile that draws the same examples
on every run (``derandomize``), keeps no example database, and sets no
per-example deadline, so their outcome does not depend on earlier runs or on
the speed of the machine.

Every test must leave both OpenBLAS pools at the thread counts it found:
commands and the sparse eigensolver set a pool to one thread and restore it.
"""
import pytest
from hypothesis import settings

from modspec import openblas

settings.register_profile("modspec", derandomize=True, deadline=None, database=None)
settings.load_profile("modspec")


@pytest.fixture(autouse=True)
def blas_counts_restored():
    before = {name: openblas.threads(name) for name in openblas.POOLS}
    yield
    after = {name: openblas.threads(name) for name in openblas.POOLS}
    if after != before:
        pytest.fail(f"OpenBLAS thread counts {before} were left at {after}")
