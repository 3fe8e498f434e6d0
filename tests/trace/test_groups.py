"""Tenant-group analytics."""

import pytest

from repro.core.architectures import Architecture
from repro.trace.groups import group_profiles, resource_concentration


class TestGroupProfiles:
    def test_covers_all_groups(self, small_trace):
        profiles = group_profiles(small_trace)
        groups = {p.group for p in profiles}
        assert groups == {j.user_group for j in small_trace}

    def test_sorted_by_resources(self, small_trace):
        profiles = group_profiles(small_trace)
        totals = [p.cnode_total for p in profiles]
        assert totals == sorted(totals, reverse=True)

    def test_job_counts_sum(self, small_trace):
        profiles = group_profiles(small_trace)
        assert sum(p.job_count for p in profiles) == len(small_trace)

    def test_dominant_type_is_a_member_type(self, small_trace):
        for profile in group_profiles(small_trace):
            members = [
                j for j in small_trace if j.user_group == profile.group
            ]
            assert profile.dominant_type in {j.workload_type for j in members}

    def test_median_weight_positive(self, small_trace):
        assert all(
            p.median_weight_bytes > 0 for p in group_profiles(small_trace)
        )


class TestResourceConcentration:
    def test_bounds(self, trace):
        share = resource_concentration(list(trace), top_fraction=0.2)
        assert 0.2 <= share <= 1.0

    def test_production_tenants_dominate(self, trace):
        # Zipf-skewed assignment: the top fifth holds most cNodes.
        assert resource_concentration(list(trace), top_fraction=0.2) > 0.7

    def test_full_fraction_is_everything(self, small_trace):
        assert resource_concentration(small_trace, top_fraction=1.0) == (
            pytest.approx(1.0)
        )

    def test_monotone_in_fraction(self, trace):
        jobs = list(trace)
        shares = [
            resource_concentration(jobs, f) for f in (0.1, 0.3, 0.6, 1.0)
        ]
        assert shares == sorted(shares)

    def test_validation(self, small_trace):
        with pytest.raises(ValueError):
            resource_concentration(small_trace, top_fraction=0.0)
        with pytest.raises(ValueError):
            resource_concentration([], top_fraction=0.5)
