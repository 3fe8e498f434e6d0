"""Golden statistics of the default trace.

Guards the calibrated generator against silent drift: if a change moves
these aggregate statistics, the calibration (and hence every Sec. III
reproduction) likely moved too.  Bounds are deliberately wider than the
calibration tolerances -- this test flags *accidental* changes, the
calibration suite judges correctness.
"""

import numpy as np
import pytest

from repro.core.architectures import Architecture
from repro.trace import generate_trace


def jobs_of_type(jobs, architecture):
    """The jobs of one workload type, in trace order."""
    return [job for job in jobs if job.workload_type is architecture]


@pytest.fixture(scope="module")
def golden_trace():
    return generate_trace(num_jobs=4000, seed=20190501)


class TestGoldenAggregates:
    def test_type_mix(self, golden_trace):
        counts = {
            arch: len(jobs_of_type(golden_trace, arch))
            for arch in Architecture
        }
        total = len(golden_trace)
        assert counts[Architecture.SINGLE] / total == pytest.approx(0.60, abs=0.03)
        assert counts[Architecture.PS_WORKER] / total == pytest.approx(0.29, abs=0.03)

    def test_ps_cnode_distribution(self, golden_trace):
        cnodes = np.array(
            [j.num_cnodes for j in jobs_of_type(golden_trace, Architecture.PS_WORKER)]
        )
        assert 6 <= np.median(cnodes) <= 10
        assert 15 <= cnodes.mean() <= 30
        assert cnodes.max() <= 320

    def test_weight_scale(self, golden_trace):
        weights = np.array([j.features.weight_bytes for j in golden_trace])
        assert 1e6 < np.median(weights) < 1e8
        assert weights.max() > 50e9

    def test_feature_magnitudes(self, golden_trace):
        flops = np.array([j.features.flop_count for j in golden_trace])
        memory = np.array(
            [j.features.memory_access_bytes for j in golden_trace]
        )
        # Step-scale workloads: GFLOPs-to-TFLOPs compute, GB-scale access.
        assert 1e9 < np.median(flops) < 1e13
        assert 1e8 < np.median(memory) < 1e12

    def test_determinism_of_golden_seed(self, golden_trace):
        again = generate_trace(num_jobs=4000, seed=20190501)
        assert [j.features for j in again] == [
            j.features for j in golden_trace
        ]
