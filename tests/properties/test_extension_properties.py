"""Property-based invariants of the extension modules."""

import json

import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.core.architectures import Architecture
from repro.core.classify import CENSUS_LABELS, Bottleneck, label_codes
from repro.core.features import WorkloadFeatures
from repro.core.hardware import pai_default_hardware
from repro.core.population import batch_breakdowns
from repro.core.recommend import recommend_architecture
from repro.core.timemodel import estimate_breakdown
from repro.optim.overlap import OverlapSchedule, overlapped_step_time
from repro.trace.schema import JobRecord
from repro.trace.serialization import job_from_dict, job_to_dict

HARDWARE = pai_default_hardware()

positive = st.floats(min_value=1.0, max_value=1e14, allow_nan=False)


@st.composite
def jobs(draw):
    architecture = draw(
        st.sampled_from(
            [
                Architecture.SINGLE,
                Architecture.LOCAL_CENTRALIZED,
                Architecture.PS_WORKER,
                Architecture.ALLREDUCE_LOCAL,
                Architecture.PEARL,
            ]
        )
    )
    max_cnodes = min(architecture.max_local_cnodes, 128)
    traffic = (
        0.0 if architecture is Architecture.SINGLE else draw(positive)
    )
    features = WorkloadFeatures(
        name=draw(st.text(min_size=1, max_size=20)),
        architecture=architecture,
        num_cnodes=draw(st.integers(1 if architecture is Architecture.SINGLE else 2, max_cnodes))
        if architecture is not Architecture.SINGLE
        else 1,
        batch_size=draw(st.integers(1, 4096)),
        flop_count=draw(positive),
        memory_access_bytes=draw(positive),
        input_bytes=draw(positive),
        weight_traffic_bytes=traffic,
        dense_weight_bytes=draw(positive),
        embedding_weight_bytes=draw(st.floats(0.0, 1e12)),
    )
    return JobRecord(
        job_id=draw(st.integers(0, 10**9)),
        features=features,
        submit_day=draw(st.integers(0, 50)),
        user_group=draw(st.text(min_size=1, max_size=12)),
    )


class TestSerializationProperties:
    @given(job=jobs())
    def test_round_trip_identity(self, job):
        assert job_from_dict(job_to_dict(job)) == job

    @given(job=jobs())
    def test_survives_real_json(self, job):
        payload = json.loads(json.dumps(job_to_dict(job)))
        assert job_from_dict(payload) == job


class TestOverlapProperties:
    @given(
        job=jobs(),
        fraction=st.floats(0.0, 1.0),
        tail=st.floats(0.0, 1.0),
    )
    def test_always_between_the_extremes(self, job, fraction, tail):
        breakdown = estimate_breakdown(job.features, HARDWARE)
        overlapped = overlapped_step_time(
            job.features,
            HARDWARE,
            OverlapSchedule(overlap_fraction=fraction, tail_fraction=tail),
        )
        assert breakdown.total_ideal_overlap - 1e-9 <= overlapped
        assert overlapped <= breakdown.total + 1e-9


class TestRecommendProperties:
    @given(job=jobs())
    def test_at_least_one_feasible_plan(self, job):
        # PS/Worker hosts anything, so recommendations are never empty.
        assert recommend_architecture(job.features, HARDWARE)

    @given(job=jobs())
    def test_ranking_sorted_by_throughput(self, job):
        ranked = recommend_architecture(job.features, HARDWARE)
        throughputs = [r.throughput for r in ranked]
        assert throughputs == sorted(throughputs, reverse=True)

    @given(job=jobs())
    def test_recommended_deployments_are_valid_features(self, job):
        for recommendation in recommend_architecture(job.features, HARDWARE):
            deployed = job.features.with_architecture(
                recommendation.plan.architecture,
                num_cnodes=recommendation.plan.num_cnodes,
            )
            assert estimate_breakdown(deployed, HARDWARE).total > 0


class TestClassifyProperties:
    """The census labelling of a one-job population against that job's
    component shares."""

    @staticmethod
    def labelled(job):
        breakdown = batch_breakdowns([job.features], HARDWARE)
        fractions = {
            key: float(column[0]) for key, column in breakdown.fractions().items()
        }
        return CENSUS_LABELS[int(label_codes(breakdown)[0])], fractions

    @given(job=jobs())
    def test_label_matches_dominant_component(self, job):
        label, fractions = self.labelled(job)
        dominant = max(fractions, key=fractions.get)
        if label is not Bottleneck.BALANCED:
            expected = {
                "weight": Bottleneck.COMMUNICATION,
                "compute_bound": Bottleneck.COMPUTE,
                "memory_bound": Bottleneck.MEMORY,
                "data_io": Bottleneck.INPUT_IO,
            }[dominant]
            assert label is expected
            assert fractions[dominant] >= 0.5
        else:
            assert fractions[dominant] < 0.5

    @given(job=jobs())
    def test_dominant_share_is_the_max_fraction(self, job):
        _, fractions = self.labelled(job)
        per_job = estimate_breakdown(job.features, HARDWARE).fractions()
        assert max(fractions.values()) == pytest.approx(max(per_job.values()))
