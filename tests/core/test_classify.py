"""Bottleneck classification."""

import numpy as np
import pytest

from repro.core.architectures import Architecture
from repro.core.classify import (
    CENSUS_LABELS,
    Bottleneck,
    bottleneck_census,
    label_codes,
    label_totals,
)
from repro.core.features import WorkloadFeatures
from repro.core.population import (
    COMPONENT_KEYS,
    FeatureArrays,
    PopulationBreakdown,
    batch_breakdowns,
)

from classify_oracle import classify


def job(weight=1.0, flops=1.0, memory=1.0, io=1.0, num_cnodes=8):
    return WorkloadFeatures(
        name="job",
        architecture=Architecture.PS_WORKER,
        num_cnodes=num_cnodes,
        batch_size=64,
        flop_count=flops,
        memory_access_bytes=memory,
        input_bytes=io,
        weight_traffic_bytes=weight,
        dense_weight_bytes=weight,
    )


class TestClassify:
    """The per-job oracle labels hand-built jobs correctly."""

    def test_communication_bound(self, hardware):
        labeled = classify(job(weight=10e9), hardware)
        assert labeled.label is Bottleneck.COMMUNICATION
        assert labeled.dominant_component == "weight"
        assert labeled.dominant_share > 0.9

    def test_compute_bound(self, hardware):
        labeled = classify(job(flops=100e12), hardware)
        assert labeled.label is Bottleneck.COMPUTE

    def test_memory_bound(self, hardware):
        labeled = classify(job(memory=10e12), hardware)
        assert labeled.label is Bottleneck.MEMORY

    def test_io_bound(self, hardware):
        labeled = classify(job(io=100e9), hardware)
        assert labeled.label is Bottleneck.INPUT_IO

    def test_balanced(self, hardware):
        # Calibrate four roughly equal components (~1 s each at Table I
        # rates with 70% efficiency).
        balanced = job(
            weight=2.1875e9 / 1.3125,  # ~1 s over Ethernet+PCIe
            flops=7.7e12,
            memory=0.7e12,
            io=7e9,
        )
        labeled = classify(balanced, hardware)
        assert labeled.label is Bottleneck.BALANCED
        assert labeled.dominant_share < 0.5

    def test_threshold_validation(self, hardware):
        with pytest.raises(ValueError):
            classify(job(), hardware, threshold=0.0)

    def test_custom_threshold(self, hardware):
        # With a very low threshold nothing is balanced.
        labeled = classify(job(), hardware, threshold=0.01)
        assert labeled.label is not Bottleneck.BALANCED


class TestLabelCodes:
    @staticmethod
    def breakdown(data_io, weight, compute, memory):
        """A hand-built population with exactly these component times."""
        features = FeatureArrays.from_workloads([job()] * len(data_io))
        return PopulationBreakdown(
            data_io=np.array(data_io, dtype=float),
            compute_flops=np.array(compute, dtype=float),
            compute_memory=np.array(memory, dtype=float),
            weight_comm={"Ethernet": np.array(weight, dtype=float)},
            features=features,
        )

    def test_ties_break_in_component_order(self):
        breakdown = self.breakdown(
            data_io=[1.0, 0.0, 1.0, 0.0, 0.0],
            weight=[1.0, 0.0, 1.0, 0.0, 3.0],
            compute=[0.0, 0.0, 1.0, 1.0, 0.0],
            memory=[0.0, 0.0, 1.0, 1.0, 1.0],
        )
        labels = [CENSUS_LABELS[code] for code in label_codes(breakdown)]
        assert labels == [
            Bottleneck.INPUT_IO,  # data_io ties weight at exactly 0.5
            Bottleneck.BALANCED,  # zero-time step: every share is 0
            Bottleneck.BALANCED,  # four-way tie at 0.25
            Bottleneck.COMPUTE,  # compute_bound ties memory_bound
            Bottleneck.COMMUNICATION,
        ]

    def test_label_totals_weighted_and_unweighted(self):
        codes = np.array([1, 1, 4, 0])
        assert label_totals(codes) == {
            Bottleneck.COMMUNICATION: 2.0,
            Bottleneck.COMPUTE: 0.0,
            Bottleneck.MEMORY: 0.0,
            Bottleneck.INPUT_IO: 1.0,
            Bottleneck.BALANCED: 1.0,
        }
        weighted = label_totals(codes, np.array([8.0, 2.0, 1.0, 4.0]))
        assert weighted[Bottleneck.COMMUNICATION] == 10.0
        assert list(weighted) == list(Bottleneck)


class TestCensus:
    def test_shares_sum_to_one(self, hardware):
        population = [job(weight=10e9), job(flops=100e12), job(io=100e9)]
        census = bottleneck_census(batch_breakdowns(population, hardware))
        assert sum(census.values()) == pytest.approx(1.0)
        assert census[Bottleneck.COMMUNICATION] == pytest.approx(1 / 3)

    def test_cnode_weighting(self, hardware):
        population = [
            job(weight=10e9, num_cnodes=90),
            job(flops=100e12, num_cnodes=10),
        ]
        census = bottleneck_census(
            batch_breakdowns(population, hardware), cnode_level=True
        )
        assert census[Bottleneck.COMMUNICATION] == pytest.approx(0.9)

    def test_empty_rejected(self, hardware):
        empty = FeatureArrays.from_workloads([job()]).of_architecture(
            Architecture.SINGLE
        )
        with pytest.raises(ValueError, match="empty"):
            bottleneck_census(batch_breakdowns(empty, hardware))


class TestOnTrace:
    def test_ps_population_is_mostly_comm_bound(self, trace, hardware):
        from repro.trace import features_of_type

        population = features_of_type(list(trace), Architecture.PS_WORKER)
        census = bottleneck_census(
            batch_breakdowns(population[:1000], hardware)
        )
        assert census[Bottleneck.COMMUNICATION] > 0.5
