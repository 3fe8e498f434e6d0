"""The census experiment module."""

import pytest

from repro.analysis.census import run
from repro.analysis.context import default_trace


@pytest.fixture(scope="module")
def result():
    return run(default_trace(6000))


class TestCensus:
    def test_three_populations(self, result):
        assert len(result.rows) == 3

    def test_rows_sum_to_one(self, result):
        for row in result.rows:
            total = sum(v for k, v in row.items() if k != "population")
            assert total == pytest.approx(1.0)

    def test_projection_shift_visible(self, result):
        rows = {row["population"]: row for row in result.rows}
        assert (
            rows["PS/Worker"]["communication"]
            > rows["PS/Worker -> AllReduce-Local"]["communication"]
        )

    def test_paper_bottleneck_shift(self):
        # Sec. III-C1's bottleneck shift as label migration, on the
        # 8,000-job trace the figure tests use.
        result = run(default_trace(8000))
        rows = {row["population"]: row for row in result.rows}
        before = rows["PS/Worker"]
        after = rows["PS/Worker -> AllReduce-Local"]
        assert before["communication"] > 0.5
        assert after["communication"] < 0.2
        assert after["io"] > before["io"]

    def test_registered(self):
        from repro.analysis.registry import experiment_ids

        assert "census" in experiment_ids()
