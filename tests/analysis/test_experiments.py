"""Every experiment module regenerates its table/figure with the right
shape: who wins, by roughly what factor, where the shifts land."""

import pytest

from repro.analysis import registry
from repro.analysis.context import default_trace
from repro.analysis.paper_constants import FIG9, FIG13


@pytest.fixture(scope="module")
def jobs():
    # Shared across the experiment tests; matches the analysis default.
    return default_trace(8000)


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        ids = set(registry.experiment_ids())
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig15", "fig16",
        }
        assert expected <= ids

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            registry.run_experiment("fig99")

    def test_every_experiment_runs_and_renders(self):
        for experiment_id in registry.experiment_ids():
            result = registry.run_experiment(experiment_id)
            assert result.rows, experiment_id
            assert result.render()


class TestTables1To3:
    def test_table1_system_settings(self):
        from repro.analysis.tables import run_table1

        values = {row["setting"]: row["value"] for row in run_table1().rows}
        assert values["GPU FLOPs"] == "11 TFLOPs"
        assert values["Ethernet"] == "25 Gb/s"

    def test_table2_weight_media(self):
        from repro.analysis.tables import run_table2

        media = {
            row["type"]: row["weight_movement"] for row in run_table2().rows
        }
        assert media["PS/Worker"] == "Ethernet & PCIe"
        assert media["AllReduce-Local"] == "NVLink"

    def test_table3_variations(self):
        from repro.analysis.tables import run_table3

        assert len(run_table3().rows) == 4


class TestFig5:
    def test_shares(self, jobs):
        from repro.analysis import fig05_composition

        result = fig05_composition.run(jobs)
        by_type = {row["type"]: row for row in result.rows}
        assert by_type["PS/Worker"]["job_share"] == pytest.approx(0.29, abs=0.02)
        assert by_type["PS/Worker"]["cnode_share"] == pytest.approx(0.81, abs=0.06)
        assert by_type["1w1g"]["job_share"] > 0.5


class TestFig6:
    def test_scale_shape(self, jobs):
        from repro.analysis import fig06_scale

        result = fig06_scale.run(jobs)
        ps = next(r for r in result.rows if r["type"] == "PS/Worker")
        # Paper: about half of PS jobs beyond 8 cNodes; models reach 100+ GB.
        assert 4 <= ps["cnodes_p50"] <= 12
        assert ps["cnodes_max"] > 128
        assert ps["weight_p99"] > 10e9
        single = next(r for r in result.rows if r["type"] == "1w1g")
        assert single["weight_p50"] < 10e9


class TestFig7:
    def test_weight_dominates_at_cnode_level(self, jobs):
        from repro.analysis import fig07_breakdown

        result = fig07_breakdown.run(jobs)
        all_cnode = next(
            r for r in result.rows
            if r["population"] == "all" and r["level"] == "cNode"
        )
        assert all_cnode["weight"] > 0.5
        assert all_cnode["memory_bound"] > all_cnode["compute_bound"]
        # Paper (Sec. III-D): weight ~62% at the cNode level, ~22% per job.
        assert abs(all_cnode["weight"] - 0.62) < 0.07
        all_job = next(
            r for r in result.rows
            if r["population"] == "all" and r["level"] == "job"
        )
        assert abs(all_job["weight"] - 0.22) < 0.05

    def test_fractions_sum_to_one(self, jobs):
        from repro.analysis import fig07_breakdown

        for row in fig07_breakdown.run(jobs).rows:
            total = (
                row["data_io"] + row["weight"]
                + row["compute_bound"] + row["memory_bound"]
            )
            assert total == pytest.approx(1.0)


class TestFig8:
    def test_cdfs_cover_types_and_levels(self, jobs):
        from repro.analysis import fig08_cdf

        result = fig08_cdf.run(jobs)
        assert len(result.rows) == 3 * 2 * 4  # types x levels x components
        # The >40%-of-PS-jobs-above-80%-communication marker.
        assert any(">80%" in note for note in result.notes)


class TestFig9:
    def test_not_sped_up_markers(self, jobs):
        from repro.analysis import fig09_allreduce

        result = fig09_allreduce.run(jobs)
        by_curve = {row["curve"]: row for row in result.rows}
        local = by_curve["AllReduce-Local single-cNode"]
        assert local["not_sped_up"] == pytest.approx(
            FIG9["local_single_not_sped_up"], abs=0.06
        )
        throughput = by_curve["AllReduce-Local throughput"]
        assert throughput["not_sped_up"] == pytest.approx(
            FIG9["local_throughput_not_sped_up"], abs=0.07
        )

    def test_cluster_speedups_capped(self, jobs):
        from repro.analysis import fig09_allreduce

        result = fig09_allreduce.run(jobs)
        cluster = next(
            r for r in result.rows
            if r["curve"] == "AllReduce-Cluster all workloads"
        )
        assert cluster["p90_speedup"] <= 1.25
        assert abs(cluster["not_sped_up"] - FIG9["cluster_not_sped_up"]) < 0.08


class TestFig10:
    def test_data_io_rises_most(self, jobs):
        from repro.analysis import fig10_shift

        result = fig10_shift.run(jobs)
        by_component = {row["component"]: row for row in result.rows}
        weight = by_component["weight"]
        data = by_component["data_io"]
        assert weight["delta"] < -0.3  # weight share collapses
        biggest = max(result.rows, key=lambda r: r["delta"])
        assert biggest["component"] == "data_io"
        assert data["allreduce_local_share"] > data["ps_worker_share"]


class TestFig11:
    def test_panel_sensitivities(self, jobs):
        from repro.analysis import fig11_hardware

        result = fig11_hardware.run(jobs)
        note = result.notes[0]
        assert "1w1g: gpu_memory" in note
        assert "1wng: pcie" in note
        assert "PS/Worker: ethernet" in note
        assert "AllReduce-Local: gpu_memory" in note

    def test_ethernet_100g_speedup(self, jobs):
        from repro.analysis import fig11_hardware

        result = fig11_hardware.run(jobs)
        point = next(
            r for r in result.rows
            if r["panel"] == "PS/Worker"
            and r["resource"] == "ethernet"
            and r["normalized"] == pytest.approx(4.0)
        )
        assert point["avg_speedup"] == pytest.approx(1.7, abs=0.2)


class TestCaseStudies:
    def test_fig12_shape(self):
        from repro.analysis.case_studies import run_fig12

        result = run_fig12()
        by_model = {row["model"]: row for row in result.rows}
        speech = abs(by_model["Speech"]["difference"])
        others = [
            abs(row["difference"])
            for name, row in by_model.items()
            if name != "Speech"
        ]
        assert speech > 0.35
        assert max(others) < 0.17
        assert speech > 2 * max(others)

    def test_table4_table5_render(self):
        from repro.analysis.case_studies import run_table4, run_table5

        table4 = run_table4().rows
        table5 = run_table5().rows
        assert len(table4) == 6
        assert len(table5) == 6
        # Built models within 15% of the paper's scales and features.
        for row in table4:
            if row["paper_dense_GB"] > 0:
                assert abs(row["dense_GB"] - row["paper_dense_GB"]) <= (
                    0.15 * row["paper_dense_GB"]
                )
        for row in table5:
            assert abs(row["flops_G"] - row["paper_flops_G"]) <= (
                0.15 * row["paper_flops_G"]
            )
            assert abs(row["traffic_MB"] - row["paper_traffic_MB"]) <= (
                0.15 * row["paper_traffic_MB"]
            )

    def test_table6_matches_constants(self):
        from repro.analysis.case_studies import run_table6

        rows = {row["model"]: row for row in run_table6().rows}
        assert rows["Speech"]["gddr"] == 0.031


class TestFig13:
    def test_panel_a_speedups(self):
        from repro.analysis.fig13_optimizations import run_panel_a

        result = run_panel_a()
        by_config = {row["configuration"]: row for row in result.rows}
        assert by_config["MP"]["speedup"] == pytest.approx(
            FIG13["bert_mp_end_to_end"], abs=0.15
        )
        assert by_config["XLA"]["speedup"] > 1.3
        assert by_config["MP+XLA"]["speedup"] > by_config["MP"]["speedup"]
        assert by_config["MP+XLA"]["speedup"] > by_config["XLA"]["speedup"]
        assert by_config["MP+XLA"]["speedup"] > 1.8  # paper: 2.0x

    def test_panel_b_elementwise(self):
        from repro.analysis.fig13_optimizations import run_panel_b

        result = run_panel_b()
        default, xla = result.rows
        assert default["elementwise_s"] / xla["elementwise_s"] == pytest.approx(
            FIG13["speech_xla_elementwise"], abs=0.5
        )
        assert default["step_s"] / xla["step_s"] > 1.25  # paper: 1.83x

    def test_panel_c_bottleneck_varies(self):
        from repro.analysis.fig13_optimizations import run_panel_c

        rows = run_panel_c().rows
        elementwise = [row["elementwise_share"] for row in rows]
        compute = [row["compute_share"] for row in rows]
        # The composition changes materially across configurations.
        assert max(compute) > 1.5 * min(compute)
        assert max(elementwise) > 0.4

    def test_panel_d_pearl_wins(self):
        from repro.analysis.fig13_optimizations import run_panel_d

        rows = {row["deployment"]: row for row in run_panel_d().rows}
        pearl = rows["PEARL (measured)"]
        ps = rows["PS/Worker (estimated)"]
        assert ps["comm_share"] > 0.9
        assert pearl["comm_share"] < 0.45
        assert pearl["step_s"] < ps["step_s"] / 5


class TestFig15:
    def test_scenario_ordering(self, jobs):
        from repro.analysis import fig15_efficiency

        result = fig15_efficiency.run(jobs)
        medians = {row["scenario"]: row["p50"] for row in result.rows}
        assert medians["Communication eff. 50%"] > medians["All eff. 70%"]
        assert medians["Computation eff. 25%"] < medians["Computation eff. 50%"]
        assert medians["Computation eff. 50%"] < medians["All eff. 70%"]
        # Even at 25% computation efficiency, weight traffic stays
        # dominant on average (Sec. V-A).
        means = {row["scenario"]: row["mean"] for row in result.rows}
        assert means["Computation eff. 25%"] > 0.35


class TestFig16:
    def test_eq3_and_overlap(self, jobs):
        from repro.analysis import fig16_overlap

        result = fig16_overlap.run(jobs)
        assert any("21" in note for note in result.notes)
        by_mode = {row["composition"]: row for row in result.rows}
        non = by_mode["non-overlap"]["not_sped_up"]
        ideal = by_mode["ideal overlap"]["not_sped_up"]
        # Sec. V-B: the fraction barely changes between compositions.
        assert abs(non - ideal) < 0.08


class TestCalibrationReport:
    def test_all_targets_pass(self, jobs):
        from repro.analysis.calibration_report import run

        result = run(jobs)
        assert all(row["ok"] for row in result.rows), result.notes
