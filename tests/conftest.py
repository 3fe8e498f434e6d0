"""Shared fixtures: hardware configs, traces and case-study models.

Expensive artifacts (the calibrated trace, the six model graphs) are
session-scoped so the suite builds them once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PAPER_DEFAULT_EFFICIENCY,
    pai_default_hardware,
    testbed_v100_hardware,
)
from repro.graphs import all_case_studies, case_study_deployments
from repro.trace import generate_trace


def pytest_terminal_summary(terminalreporter):
    # The scheduler's batch seeding restates numpy's SeedSequence hash,
    # and its tests pin it against the numpy that is installed.  The
    # summary prints under -q, where the session header does not.
    terminalreporter.write_line(f"numpy: {np.__version__}")


@pytest.fixture(scope="session")
def hardware():
    """Table I base settings."""
    return pai_default_hardware()


@pytest.fixture(scope="session")
def testbed():
    """The Sec. IV V100 testbed."""
    return testbed_v100_hardware()


@pytest.fixture(scope="session")
def efficiency():
    """The uniform 70% assumption."""
    return PAPER_DEFAULT_EFFICIENCY


@pytest.fixture(scope="session")
def trace():
    """A default-seed synthetic trace, large enough for stable stats."""
    return generate_trace(num_jobs=8000)


@pytest.fixture(scope="session")
def small_trace():
    """A small trace for cheap structural tests."""
    return generate_trace(num_jobs=400, seed=11)


@pytest.fixture(scope="session")
def case_studies():
    """The six Table IV model graphs."""
    return all_case_studies()


@pytest.fixture(scope="session")
def deployments():
    """The Table IV deployments."""
    return case_study_deployments()
