"""Every Sec. III statistic must emerge from the synthetic trace."""

import pytest

from repro.trace.calibration import CALIBRATION_TARGETS, evaluate_targets
from repro.trace.generator import generate_trace


@pytest.fixture(scope="module")
def checks(trace):
    return {check["name"]: check for check in evaluate_targets(list(trace))}


class TestTargetList:
    def test_target_count(self):
        assert len(CALIBRATION_TARGETS) == 20

    def test_names_unique(self):
        names = [t.name for t in CALIBRATION_TARGETS]
        assert len(set(names)) == len(names)

    def test_descriptions_cite_the_paper(self):
        for target in CALIBRATION_TARGETS:
            assert "Sec." in target.description or "Fig." in target.description


@pytest.mark.parametrize("target", CALIBRATION_TARGETS, ids=lambda t: t.name)
def test_target_within_tolerance(target, checks):
    check = checks[target.name]
    assert check["ok"], (
        f"{target.name}: measured {check['measured']:.4g} vs paper "
        f"{check['paper']:.4g} (tolerance {check['tolerance']})\n"
        f"  source: {target.description}"
    )


class TestKeyHeadlines:
    """The abstract's three headline numbers, asserted directly."""

    def test_weight_communication_dominates(self, checks):
        # "weight/gradient communication ... takes almost 62% of the
        # total execution time ... on average" (cNode level).
        assert checks["weight_share_cnode_level"]["measured"] > 0.5

    def test_60_percent_of_ps_jobs_gain_from_allreduce_local(self, checks):
        sped_up = 1.0 - checks["local_throughput_not_sped_up"]["measured"]
        assert 0.55 <= sped_up <= 0.70

    def test_ethernet_upgrade_gives_about_1_7x(self, checks):
        assert checks["ethernet_100g_speedup"]["measured"] == pytest.approx(
            1.7, abs=0.2
        )


def test_targets_hold_beyond_one_seed():
    """The default seed passes everything; other seeds may drop at most a
    couple of noisy tail statistics at this trace size."""
    counts = [
        sum(
            1
            for check in evaluate_targets(
                generate_trace(num_jobs=6000, seed=seed)
            )
            if check["ok"]
        )
        for seed in (20190501, 7, 99)
    ]
    assert counts[0] == 20
    assert all(count >= 17 for count in counts)
