"""The fast examples must keep running end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "architecture_advisor.py",
    "inference_characterization.py",
    "pearl_vs_ps.py",
    "cluster_occupancy.py",
    "scheduling_policies.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_mentions_the_key_outputs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "step time estimate" in result.stdout
    assert "AllReduce-Local projection" in result.stdout
    assert "100 Gbps" in result.stdout
