"""The columnar census and Sec. V analyses against the per-job model.

The census experiment, ``repro.serve`` and Figs. 15 and 16 evaluate the
model columns-first (``batch_breakdowns``, ``batch_projection_speedups``,
``label_codes``).  Here the single-job APIs -- ``estimate_breakdown``,
``projection_speedups`` and the per-job ``classify`` oracle of
:mod:`classify_oracle` -- are applied job by job over the default
20k-job trace, and every per-job value must match **exactly**, not to
a tolerance: the figures are byte-identical contracts, so one flipped
label or one moved bit is a regression.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.context import DEFAULT_TRACE_JOBS, default_trace
from repro.core.architectures import Architecture
from repro.core.classify import (
    CENSUS_LABELS,
    Bottleneck,
    bottleneck_census,
    label_codes,
)
from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
from repro.core.population import FeatureArrays, batch_breakdowns
from repro.core.projection import (
    project_to_allreduce_local,
    projection_speedups,
)
from repro.core.sensitivity import (
    FIG15_SCENARIOS,
    compare_overlap_assumptions,
    weight_share_scenarios,
)
from repro.core.timemodel import (
    PAPER_MODEL_OPTIONS,
    OverlapMode,
    estimate_breakdown,
)
from repro.trace import features_of_type

from classify_oracle import classify


@pytest.fixture(scope="module")
def populations():
    """The census's three populations, as records."""
    jobs = default_trace(DEFAULT_TRACE_JOBS)
    ps_worker = features_of_type(jobs, Architecture.PS_WORKER)
    return {
        "all jobs": [job.features for job in jobs],
        "PS/Worker": ps_worker,
        "PS/Worker -> AllReduce-Local": [
            project_to_allreduce_local(f) for f in ps_worker
        ],
    }


@pytest.fixture(scope="module")
def ps_worker(populations):
    return populations["PS/Worker"]


def oracle_census(population, hardware, cnode_level):
    """Per-job ``classify`` labels, weighted in a plain Python loop."""
    weights = [float(f.num_cnodes) if cnode_level else 1.0 for f in population]
    totals = {label: 0.0 for label in Bottleneck}
    for features, weight in zip(population, weights):
        totals[classify(features, hardware).label] += weight
    return {label: value / sum(weights) for label, value in totals.items()}


class TestCensusOracle:
    @pytest.mark.parametrize(
        "name", ["all jobs", "PS/Worker", "PS/Worker -> AllReduce-Local"]
    )
    def test_labels_match_classify_job_by_job(
        self, populations, hardware, name
    ):
        population = populations[name]
        codes = label_codes(batch_breakdowns(population, hardware))
        columnar = [CENSUS_LABELS[code] for code in codes]
        assert columnar == [classify(f, hardware).label for f in population]

    def test_projection_matches_project_ps_to(self, populations, hardware):
        projected = FeatureArrays.from_workloads(
            populations["PS/Worker"]
        ).project_ps_to(Architecture.ALLREDUCE_LOCAL)
        expected = batch_breakdowns(
            populations["PS/Worker -> AllReduce-Local"], hardware
        )
        assert np.array_equal(
            label_codes(batch_breakdowns(projected, hardware)),
            label_codes(expected),
        )

    @pytest.mark.parametrize("cnode_level", [False, True], ids=["job", "cnode"])
    @pytest.mark.parametrize(
        "name", ["all jobs", "PS/Worker", "PS/Worker -> AllReduce-Local"]
    )
    def test_census_matches_exactly(
        self, populations, hardware, name, cnode_level
    ):
        population = populations[name]
        census = bottleneck_census(
            batch_breakdowns(population, hardware), cnode_level=cnode_level
        )
        assert census == oracle_census(population, hardware, cnode_level)


class TestFig15Oracle:
    def test_weight_shares_match_estimate_breakdown(self, ps_worker, hardware):
        scenarios = weight_share_scenarios(ps_worker, hardware)
        for scenario in FIG15_SCENARIOS:
            efficiency = scenario.apply(PAPER_DEFAULT_EFFICIENCY)
            expected = [
                estimate_breakdown(f, hardware, efficiency).fractions()[
                    "weight"
                ]
                for f in ps_worker
            ]
            assert scenarios[scenario.name].tolist() == expected, scenario


class TestFig16Oracle:
    @pytest.fixture(scope="class")
    def comparison(self, ps_worker, hardware):
        return compare_overlap_assumptions(ps_worker, hardware)

    @pytest.mark.parametrize(
        "overlap", [OverlapMode.NONE, OverlapMode.IDEAL], ids=["none", "ideal"]
    )
    def test_speedups_match_projection_speedups(
        self, comparison, ps_worker, hardware, overlap
    ):
        options = dataclasses.replace(PAPER_MODEL_OPTIONS, overlap=overlap)
        expected = [
            projection_speedups(
                f, Architecture.ALLREDUCE_LOCAL, hardware, options=options
            ).single_cnode_speedup
            for f in ps_worker
        ]
        speedups = (
            comparison.non_overlap_speedups
            if overlap is OverlapMode.NONE
            else comparison.ideal_overlap_speedups
        )
        assert speedups.tolist() == expected

    def test_weight_shares_match_estimate_breakdown(
        self, comparison, ps_worker, hardware
    ):
        breakdowns = [estimate_breakdown(f, hardware) for f in ps_worker]
        assert comparison.non_overlap_weight_shares.tolist() == [
            b.fractions()["weight"] for b in breakdowns
        ]
        assert comparison.ideal_overlap_weight_shares.tolist() == [
            b.weight_total / b.total_ideal_overlap
            if b.total_ideal_overlap > 0
            else 0.0
            for b in breakdowns
        ]
