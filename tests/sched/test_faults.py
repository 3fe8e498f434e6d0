"""Fault-hook validation: non-finite hours are rejected up front."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sched import CrashSpec, StormSpec

SRC = Path(__file__).resolve().parents[2] / "src"

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["hour", "backoff_hours"])
def test_crash_spec_rejects_non_finite(field, value):
    kwargs = {"hour": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CrashSpec(**kwargs)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["start_hour", "interval_hours"])
def test_storm_spec_rejects_non_finite(field, value):
    kwargs = {"start_hour": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StormSpec(**kwargs)


def test_nan_crash_hour_fails_fast():
    """A NaN crash hour once stalled the replay forever: the event
    never compared equal to the clock, so it was never popped.  Run in
    a child process so a regression times out instead of hanging."""
    script = textwrap.dedent(
        """
        from repro.sched import (
            CrashSpec, FifoPolicy, Fleet, SchedFaults, run_schedule,
        )
        from repro.trace.generator import TraceConfig, generate_trace

        jobs = generate_trace(config=TraceConfig(num_jobs=50, seed=3))
        faults = SchedFaults(crashes=(CrashSpec(hour=float("nan")),))
        run_schedule(jobs, Fleet(8), FifoPolicy(), faults=faults)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "ValueError: hour must be finite" in result.stderr
