"""Tenants, batch-scaling and scheduling experiment modules."""

import pytest

from repro.analysis.batch_scaling import BATCH_FACTORS, run as run_batch
from repro.analysis.context import default_trace
from repro.analysis.sched_policies import run as run_policies
from repro.analysis.sched_whatif import run as run_whatif
from repro.analysis.tenants import run as run_tenants


class TestTenants:
    def test_rows_and_concentration_note(self):
        result = run_tenants(default_trace(6000), top=5)
        assert len(result.rows) == 5
        shares = [row["cnode_share"] for row in result.rows]
        assert shares == sorted(shares, reverse=True)
        assert "top 20%" in result.notes[0]

    def test_production_groups_dominate(self):
        result = run_tenants(default_trace(6000), top=5)
        # The Zipf head groups hold far more than uniform share (1/24).
        assert result.rows[0]["cnode_share"] > 0.15


class TestBatchScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return run_batch(models=["ResNet50", "Multi-Interests"])

    def test_row_count(self, result):
        assert len(result.rows) == 2 * len(BATCH_FACTORS)

    def test_dense_model_amortizes_communication(self, result):
        resnet = [r for r in result.rows if r["model"] == "ResNet50"]
        comm = [r["comm_share"] for r in resnet]
        assert comm == sorted(comm, reverse=True)
        # The fixed sync volume amortizes over the batch sweep.
        assert comm[-1] < comm[0] / 3

    def test_throughput_monotone_for_dense(self, result):
        resnet = [r for r in result.rows if r["model"] == "ResNet50"]
        throughput = [r["samples_per_s"] for r in resnet]
        assert throughput == sorted(throughput)

    def test_embedding_model_comm_share_flat(self, result):
        multi = [r for r in result.rows if r["model"] == "Multi-Interests"]
        comm = [r["comm_share"] for r in multi]
        assert max(comm) - min(comm) < 0.05
        # Embedding traffic scales with the batch: no amortization.
        assert comm[-1] > comm[0] * 0.8


class TestScheduling:
    def test_predicted_runtimes_cut_queueing(self):
        by_policy = {row["policy"]: row for row in run_policies().rows}
        # Knowing predicted runtimes pays: SJF and EASY backfill beat
        # FIFO on mean queueing delay.
        fifo_wait = by_policy["fifo"]["mean_wait_h"]
        assert by_policy["sjf"]["mean_wait_h"] < fifo_wait
        assert by_policy["backfill"]["mean_wait_h"] < fifo_wait

    def test_projection_frees_the_fleet(self):
        baseline, projected = run_whatif().rows
        assert projected["mean_wait_h"] <= baseline["mean_wait_h"]
        assert projected["gpu_hours"] < baseline["gpu_hours"]
