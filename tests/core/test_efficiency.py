"""Efficiency models: the 70% assumption and Table VI."""

import pytest

from repro.core.efficiency import (
    EfficiencyModel,
    PAPER_DEFAULT_EFFICIENCY,
    TABLE_VI_EFFICIENCIES,
)


class TestDefaults:
    def test_paper_default_is_70_percent(self):
        for field in ("compute", "memory", "pcie", "network"):
            assert getattr(PAPER_DEFAULT_EFFICIENCY, field) == 0.7


class TestValidation:
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            EfficiencyModel(compute=value)


class TestForMedium:
    def test_pcie(self):
        assert PAPER_DEFAULT_EFFICIENCY.for_medium("PCIe") == 0.7

    def test_network_media_share_efficiency(self):
        model = EfficiencyModel(network=0.4)
        assert model.for_medium("Ethernet") == 0.4
        assert model.for_medium("NVLink") == 0.4

    def test_compute_media(self):
        model = EfficiencyModel(compute=0.8, memory=0.3)
        assert model.for_medium("GPU_FLOPs") == 0.8
        assert model.for_medium("GPU_memory") == 0.3
        assert model.for_medium("GDDR") == 0.3

    def test_unknown(self):
        with pytest.raises(KeyError):
            PAPER_DEFAULT_EFFICIENCY.for_medium("smoke-signal")


class TestScaled:
    def test_scales_sides_independently(self):
        scaled = PAPER_DEFAULT_EFFICIENCY.scaled(compute=0.5, communication=1.0)
        assert scaled.compute == pytest.approx(0.35)
        assert scaled.memory == pytest.approx(0.35)
        assert scaled.pcie == 0.7
        assert scaled.network == 0.7

    def test_caps_at_one(self):
        scaled = PAPER_DEFAULT_EFFICIENCY.scaled(compute=2.0)
        assert scaled.compute == 1.0

    def test_fig15_scenario_values(self):
        # "Communication eff. 50%" scales the 70% baseline by 50/70.
        scaled = PAPER_DEFAULT_EFFICIENCY.scaled(communication=50 / 70)
        assert scaled.pcie == pytest.approx(0.5)
        assert scaled.network == pytest.approx(0.5)


class TestTableVI:
    def test_all_six_models_present(self):
        assert set(TABLE_VI_EFFICIENCIES) == {
            "Multi-Interests",
            "ResNet50",
            "NMT",
            "BERT",
            "Speech",
            "GCN",
        }

    def test_speech_memory_is_3_percent(self):
        # The cause of the Fig. 12 Speech outlier.
        assert TABLE_VI_EFFICIENCIES["Speech"].memory == pytest.approx(0.031)

    def test_nmt_pcie_is_tiny(self):
        assert TABLE_VI_EFFICIENCIES["NMT"].pcie == pytest.approx(0.001)

    def test_values_match_table(self):
        resnet = TABLE_VI_EFFICIENCIES["ResNet50"]
        assert resnet.compute == pytest.approx(0.8255)
        assert resnet.memory == pytest.approx(0.789)
        assert resnet.pcie == pytest.approx(0.351)
        assert resnet.network == pytest.approx(0.494)

    def test_70_percent_is_about_average(self):
        # Sec. V-A: "70% is about the average level".
        values = [
            getattr(model, field)
            for model in TABLE_VI_EFFICIENCIES.values()
            for field in ("compute", "memory", "pcie", "network")
        ]
        assert 0.4 < sum(values) / len(values) < 0.85
