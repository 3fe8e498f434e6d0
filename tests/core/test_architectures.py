"""The Table II taxonomy."""

import pytest

from repro.core.architectures import Architecture


class TestTaxonomy:
    def test_five_paper_types_plus_pearl(self):
        assert len(Architecture) == 6

    def test_labels(self):
        assert str(Architecture.SINGLE) == "1w1g"
        assert str(Architecture.PS_WORKER) == "PS/Worker"
        assert str(Architecture.ALLREDUCE_LOCAL) == "AllReduce-Local"

    def test_from_label(self):
        assert Architecture.from_label("ps/worker") is Architecture.PS_WORKER
        assert Architecture.from_label("PEARL") is Architecture.PEARL

    def test_from_label_unknown(self):
        with pytest.raises(KeyError):
            Architecture.from_label("ring-of-fire")


class TestWeightMedia:
    """The 'Weight Movement' column of Table II."""

    def test_1w1g_moves_nothing(self):
        assert Architecture.SINGLE.weight_media == ()

    def test_1wng_uses_pcie(self):
        assert Architecture.LOCAL_CENTRALIZED.weight_media == ("PCIe",)

    def test_ps_worker_uses_ethernet_and_pcie(self):
        assert Architecture.PS_WORKER.weight_media == ("Ethernet", "PCIe")

    def test_allreduce_local_uses_nvlink(self):
        assert Architecture.ALLREDUCE_LOCAL.weight_media == ("NVLink",)

    def test_allreduce_cluster_uses_ethernet_and_nvlink(self):
        assert Architecture.ALLREDUCE_CLUSTER.weight_media == (
            "Ethernet",
            "NVLink",
        )

    def test_pearl_uses_nvlink(self):
        assert Architecture.PEARL.weight_media == ("NVLink",)


class TestClassification:
    def test_centralized(self):
        assert Architecture.PS_WORKER.is_centralized
        assert Architecture.LOCAL_CENTRALIZED.is_centralized
        assert not Architecture.ALLREDUCE_LOCAL.is_centralized

    def test_local(self):
        assert Architecture.SINGLE.is_local
        assert Architecture.LOCAL_CENTRALIZED.is_local
        assert Architecture.ALLREDUCE_LOCAL.is_local
        assert not Architecture.PS_WORKER.is_local
        assert not Architecture.ALLREDUCE_CLUSTER.is_local


class TestContention:
    def test_single_server_architectures_contend(self):
        assert Architecture.LOCAL_CENTRALIZED.input_contends_for_pcie
        assert Architecture.ALLREDUCE_LOCAL.input_contends_for_pcie

    def test_packed_cluster_architectures_contend(self):
        assert Architecture.ALLREDUCE_CLUSTER.input_contends_for_pcie
        assert Architecture.PEARL.input_contends_for_pcie

    def test_one_worker_per_server_does_not(self):
        assert not Architecture.PS_WORKER.input_contends_for_pcie
        assert not Architecture.SINGLE.input_contends_for_pcie


class TestLimits:
    def test_local_cap_is_8(self):
        assert Architecture.ALLREDUCE_LOCAL.max_local_cnodes == 8
        assert Architecture.LOCAL_CENTRALIZED.max_local_cnodes == 8

    def test_single_cap_is_1(self):
        assert Architecture.SINGLE.max_local_cnodes == 1

    def test_cluster_unbounded(self):
        assert Architecture.PS_WORKER.max_local_cnodes >= 1024

    def test_nvlink_requirement(self):
        assert Architecture.ALLREDUCE_LOCAL.requires_nvlink
        assert Architecture.PEARL.requires_nvlink
        assert not Architecture.PS_WORKER.requires_nvlink

    def test_partitioned_weight_support(self):
        # AllReduce only supports the weight-replica mode (Sec. III-A).
        assert Architecture.PS_WORKER.supports_partitioned_weights
        assert Architecture.PEARL.supports_partitioned_weights
        assert not Architecture.ALLREDUCE_LOCAL.supports_partitioned_weights
        assert not Architecture.ALLREDUCE_CLUSTER.supports_partitioned_weights
