"""Hardware-efficiency assumptions (Sec. II-B and Sec. V-A).

The analytical model never assumes peak hardware rates are attainable:
Sec. II-B divides every capacity by a utilization efficiency, and the
paper's base assumption is a uniform 70 %.  Sec. V-A (Table VI) then
reports the *measured* per-workload efficiencies on the testbed, which is
what makes the estimated and measured breakdowns differ in Fig. 12 --
most dramatically for the Speech model whose GDDR efficiency is only 3 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .architectures import MEDIA_GPU_FLOPS, MEDIA_GPU_MEMORY

__all__ = [
    "EfficiencyModel",
    "PAPER_DEFAULT_EFFICIENCY",
    "TABLE_VI_EFFICIENCIES",
]


@dataclass(frozen=True)
class EfficiencyModel:
    """Attained fraction of peak capability, per hardware component.

    Every field is a fraction in ``(0, 1]``.  ``network`` covers whichever
    inter-node medium a workload uses (Ethernet or NVLink), mirroring the
    single "Network" column of Table VI.
    """

    compute: float = 0.7
    memory: float = 0.7
    pcie: float = 0.7
    network: float = 0.7

    def __post_init__(self) -> None:
        for field in ("compute", "memory", "pcie", "network"):
            value = getattr(self, field)
            if not 0 < value <= 1:
                raise ValueError(f"{field} efficiency must be in (0, 1], got {value}")

    def for_medium(self, medium: str) -> float:
        """Efficiency applied to a medium named as in Table II / Fig. 8(a)."""
        key = medium.lower()
        if key == "pcie":
            return self.pcie
        if key in ("ethernet", "nvlink"):
            return self.network
        if key == MEDIA_GPU_FLOPS.lower():
            return self.compute
        if key in (MEDIA_GPU_MEMORY.lower(), "gddr"):
            return self.memory
        raise KeyError(f"unknown medium: {medium!r}")

    def scaled(self, compute: float = 1.0, communication: float = 1.0) -> "EfficiencyModel":
        """Return a copy with compute-side and/or comm-side factors rescaled.

        Used by the Fig. 15 sensitivity analysis, which perturbs the
        computation efficiency (GPU compute + memory) and the
        communication efficiency (PCIe + network) independently.
        """
        return EfficiencyModel(
            compute=min(1.0, self.compute * compute),
            memory=min(1.0, self.memory * compute),
            pcie=min(1.0, self.pcie * communication),
            network=min(1.0, self.network * communication),
        )


#: The paper's base assumption: "we use 70% of the actual capacities in
#: the denominators when computing Tc/Td/Tw" (Sec. II-B).
PAPER_DEFAULT_EFFICIENCY = EfficiencyModel()


#: Table VI: measured resource efficiency for each case-study workload.
#: Keys are the model names of Table IV ("Audio" in Table VI is the Speech
#: model; we index it under "Speech" for consistency with Tables IV/V).
TABLE_VI_EFFICIENCIES: Dict[str, EfficiencyModel] = {
    "Multi-Interests": EfficiencyModel(
        compute=0.3271, memory=0.95, pcie=0.8647, network=0.6921
    ),
    "ResNet50": EfficiencyModel(
        compute=0.8255, memory=0.789, pcie=0.351, network=0.494
    ),
    "NMT": EfficiencyModel(
        compute=0.828, memory=0.791, pcie=0.001, network=0.352
    ),
    "BERT": EfficiencyModel(
        compute=0.816, memory=0.95, pcie=0.0042, network=0.471
    ),
    "Speech": EfficiencyModel(
        compute=0.6086, memory=0.031, pcie=0.7773, network=0.405
    ),
    "GCN": EfficiencyModel(
        compute=0.882, memory=0.699, pcie=0.862, network=0.2735
    ),
}
