"""Population-level aggregation: job vs cNode weighting."""

import math

import pytest

from repro.core.architectures import Architecture
from repro.core.features import FEATURE_FIELDS, WorkloadFeatures
from repro.core.population import (
    COMPONENT_KEYS,
    HARDWARE_KEYS,
    FeatureArrays,
    batch_breakdowns,
    batch_step_times,
)
from repro.core.timemodel import estimate_breakdown


def jobs():
    small = WorkloadFeatures(
        name="small",
        architecture=Architecture.PS_WORKER,
        num_cnodes=1,
        batch_size=32,
        flop_count=7.7e12,  # 1 s compute at Table I rates
        memory_access_bytes=1.0,
        input_bytes=1.0,
        weight_traffic_bytes=1.0,
        dense_weight_bytes=1.0,
    )
    big = WorkloadFeatures(
        name="big",
        architecture=Architecture.PS_WORKER,
        num_cnodes=9,
        batch_size=32,
        flop_count=1.0,
        memory_access_bytes=1.0,
        input_bytes=1.0,
        weight_traffic_bytes=2.1875e9,  # 1 s on Ethernet at 70%
        dense_weight_bytes=2.1875e9,
    )
    return [small, big]


def breakdown(hardware):
    return batch_breakdowns(jobs(), hardware)


def empty_breakdown(hardware):
    """No 1w1g job in :func:`jobs`, so this slice has zero rows."""
    population = FeatureArrays.from_workloads(jobs())
    return batch_breakdowns(
        population.of_architecture(Architecture.SINGLE), hardware
    )


# ---- the per-job oracle -------------------------------------------------
#
# ``estimate_breakdown`` applied job by job, then weighted in a plain
# Python loop: the reference every ``PopulationBreakdown`` aggregate must
# reproduce to 1e-9 relative.


def oracle_weights(population, cnode_level):
    return [float(f.num_cnodes) if cnode_level else 1.0 for f in population]


def oracle_average(population, hardware, view, keys, cnode_level):
    """Weighted mean of one per-job share view (``fractions`` or
    ``hardware_shares``) over the population."""
    weights = oracle_weights(population, cnode_level)
    sums = dict.fromkeys(keys, 0.0)
    for features, weight in zip(population, weights):
        shares = getattr(estimate_breakdown(features, hardware), view)()
        for key in keys:
            sums[key] += shares[key] * weight
    return {key: value / sum(weights) for key, value in sums.items()}


def oracle_exceeding(population, hardware, component, threshold, cnode_level):
    weights = oracle_weights(population, cnode_level)
    hit = sum(
        weight
        for features, weight in zip(population, weights)
        if estimate_breakdown(features, hardware).fractions()[component]
        > threshold
    )
    return hit / sum(weights)


class TestBatchBreakdowns:
    def test_one_breakdown_per_job(self, hardware):
        analyzed = breakdown(hardware)
        assert len(analyzed) == 2
        assert analyzed.features.view(0).name == "small"
        assert analyzed.cnode_weights().tolist() == [1.0, 9.0]


class TestAverageFractions:
    def test_job_level_is_unweighted(self, hardware):
        fractions = breakdown(hardware).average_fractions(cnode_level=False)
        # One compute-dominated and one comm-dominated job average ~50/50.
        assert fractions["compute_bound"] == pytest.approx(0.5, abs=0.05)
        assert fractions["weight"] == pytest.approx(0.5, abs=0.05)

    def test_cnode_level_weights_by_size(self, hardware):
        fractions = breakdown(hardware).average_fractions(cnode_level=True)
        # The 9-cNode comm-bound job dominates the weighted view.
        assert fractions["weight"] > 0.85

    def test_fractions_cover_components(self, hardware):
        fractions = breakdown(hardware).average_fractions()
        assert set(fractions) == set(COMPONENT_KEYS)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_population_rejected(self, hardware):
        with pytest.raises(ValueError, match="empty"):
            empty_breakdown(hardware).average_fractions()


class TestHardwareShares:
    def test_keys(self, hardware):
        shares = breakdown(hardware).average_hardware_shares()
        assert set(shares) == set(HARDWARE_KEYS)

    def test_cnode_level_shifts_to_ethernet(self, hardware):
        analyzed = breakdown(hardware)
        job_level = analyzed.average_hardware_shares(cnode_level=False)
        cnode_level = analyzed.average_hardware_shares(cnode_level=True)
        assert cnode_level["Ethernet"] > job_level["Ethernet"]


class TestFractionSamples:
    def test_samples_match_population(self, hardware):
        samples = breakdown(hardware).fraction_samples("weight")
        assert len(samples) == 2
        assert samples[1] > samples[0]

    def test_unknown_component(self, hardware):
        with pytest.raises(KeyError):
            breakdown(hardware).fraction_samples("luck")


class TestWeightedFractionExceeding:
    def test_job_level(self, hardware):
        assert breakdown(hardware).weighted_fraction_exceeding(
            "weight", 0.8
        ) == pytest.approx(0.5)

    def test_cnode_level(self, hardware):
        assert breakdown(hardware).weighted_fraction_exceeding(
            "weight", 0.8, cnode_level=True
        ) == pytest.approx(0.9)

    def test_threshold_is_strict(self, hardware):
        analyzed = breakdown(hardware)
        small, big = analyzed.fraction_samples("weight")
        assert analyzed.weighted_fraction_exceeding("weight", big) == 0.0
        assert analyzed.weighted_fraction_exceeding("weight", small) == 0.5

    def test_empty_rejected(self, hardware):
        with pytest.raises(ValueError, match="empty"):
            empty_breakdown(hardware).weighted_fraction_exceeding(
                "weight", 0.5
            )


class TestFeatureArrays:
    def test_extracts_one_row_per_workload(self):
        arrays = FeatureArrays.from_workloads(jobs())
        assert len(arrays) == 2
        assert arrays.num_cnodes.tolist() == [1, 9]

    def test_coerce_passes_arrays_through(self):
        arrays = FeatureArrays.from_workloads(jobs())
        assert FeatureArrays.coerce(arrays) is arrays
        assert len(FeatureArrays.coerce(jobs())) == 2

    def test_mask_of_selects_architecture(self):
        arrays = FeatureArrays.from_workloads(jobs())
        assert arrays.mask_of(Architecture.PS_WORKER).all()
        assert not arrays.mask_of(Architecture.SINGLE).any()

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            FeatureArrays.from_workloads([])

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "field",
        [
            field
            for field in FEATURE_FIELDS
            if field not in ("name", "architecture")
        ],
    )
    def test_from_columnar_rejects_non_finite(self, field, value):
        columns = {
            name: [getattr(job, name) for job in jobs()]
            for name in FEATURE_FIELDS
        }
        columns["architecture"] = [
            list(Architecture).index(job.architecture) for job in jobs()
        ]
        columns[field][1] = value
        with pytest.raises(ValueError, match=f"row 1: {field} must be finite"):
            FeatureArrays.from_columnar(columns)


class TestProjectPsTo:
    def test_local_caps_cnodes_at_eight(self):
        arrays = FeatureArrays.from_workloads(jobs())
        projected = arrays.project_ps_to(Architecture.ALLREDUCE_LOCAL)
        assert projected.num_cnodes.tolist() == [1, 8]

    def test_cluster_keeps_cnodes(self):
        arrays = FeatureArrays.from_workloads(jobs())
        projected = arrays.project_ps_to(Architecture.ALLREDUCE_CLUSTER)
        assert projected.num_cnodes.tolist() == [1, 9]

    def test_rejects_non_ps_population(self):
        single = jobs()[0].with_architecture(Architecture.SINGLE, num_cnodes=1)
        arrays = FeatureArrays.from_workloads([single])
        with pytest.raises(ValueError):
            arrays.project_ps_to(Architecture.ALLREDUCE_LOCAL)

    def test_rejects_unknown_target(self):
        arrays = FeatureArrays.from_workloads(jobs())
        with pytest.raises(ValueError):
            arrays.project_ps_to(Architecture.PS_WORKER)


class TestBatchMatchesScalar:
    def test_batch_breakdowns_equal_scalar_analysis(self, hardware):
        population = jobs()
        batch = batch_breakdowns(population, hardware)
        for i, features in enumerate(population):
            assert batch.total[i] == pytest.approx(
                estimate_breakdown(features, hardware).total, rel=1e-12
            )

    def test_batch_average_fractions_match(self, hardware):
        population = jobs()
        scalar = oracle_average(
            population, hardware, "fractions", COMPONENT_KEYS, True
        )
        batch = batch_breakdowns(population, hardware).average_fractions(
            cnode_level=True
        )
        for component in COMPONENT_KEYS:
            assert batch[component] == pytest.approx(
                scalar[component], rel=1e-12
            )

    def test_batch_step_times_positive(self, hardware):
        times = batch_step_times(jobs(), hardware)
        assert (times > 0).all()


@pytest.fixture(scope="module")
def every_architecture(small_trace):
    """A generated trace plus cluster redeployments of its PS jobs, so
    every architecture's synchronization path is exercised."""
    population = [job.features for job in small_trace]
    ps_jobs = [
        f for f in population if f.architecture is Architecture.PS_WORKER
    ][:40]
    population += [
        f.with_architecture(target)
        for target in (Architecture.ALLREDUCE_CLUSTER, Architecture.PEARL)
        for f in ps_jobs
    ]
    assert {f.architecture for f in population} == set(Architecture)
    return population


@pytest.mark.parametrize("cnode_level", [False, True])
class TestAggregatesMatchPerJobOracle:
    def test_average_fractions(self, every_architecture, hardware, cnode_level):
        batch = batch_breakdowns(every_architecture, hardware)
        assert batch.average_fractions(cnode_level) == pytest.approx(
            oracle_average(
                every_architecture,
                hardware,
                "fractions",
                COMPONENT_KEYS,
                cnode_level,
            ),
            rel=1e-9,
        )

    def test_average_hardware_shares(
        self, every_architecture, hardware, cnode_level
    ):
        batch = batch_breakdowns(every_architecture, hardware)
        assert batch.average_hardware_shares(cnode_level) == pytest.approx(
            oracle_average(
                every_architecture,
                hardware,
                "hardware_shares",
                HARDWARE_KEYS,
                cnode_level,
            ),
            rel=1e-9,
        )

    @pytest.mark.parametrize(
        "component, threshold", [("weight", 0.8), ("data_io", 0.5)]
    )
    def test_weighted_fraction_exceeding(
        self, every_architecture, hardware, cnode_level, component, threshold
    ):
        batch = batch_breakdowns(every_architecture, hardware)
        assert batch.weighted_fraction_exceeding(
            component, threshold, cnode_level
        ) == pytest.approx(
            oracle_exceeding(
                every_architecture, hardware, component, threshold, cnode_level
            ),
            rel=1e-9,
        )
