"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one modeling decision and quantifies how the
headline conclusions move.
"""

import dataclasses

from repro.core import (
    Architecture,
    PAPER_MODEL_OPTIONS,
    TABLE_VI_EFFICIENCIES,
    estimate_step_time,
    projection_speedups,
)
from repro.core.timemodel import OverlapMode
from repro.graphs import Deployment, build_gcn
from repro.sim import simulate_step
from repro.trace import features_of_type


def _not_sped_up(population, hardware, options):
    results = [
        projection_speedups(
            f, Architecture.ALLREDUCE_LOCAL, hardware, options=options
        )
        for f in population
    ]
    return sum(1 for r in results if r.single_cnode_speedup <= 1.0) / len(results)


def test_ablation_input_contention(benchmark, jobs, hardware):
    """Without PCIe input contention the not-sped-up cohort vanishes --
    contention is the load-bearing mechanism behind Fig. 9's 22.6%."""
    population = features_of_type(jobs, Architecture.PS_WORKER)[:1500]
    no_contention = dataclasses.replace(
        PAPER_MODEL_OPTIONS, input_pcie_contention=False
    )
    with_contention = benchmark(
        _not_sped_up, population, hardware, PAPER_MODEL_OPTIONS
    )
    without = _not_sped_up(population, hardware, no_contention)
    print(
        f"\nablation[input contention]: not-sped-up "
        f"{with_contention:.1%} (on) vs {without:.1%} (off)"
    )
    assert with_contention > 0.12
    assert without < 0.02


def test_ablation_ring_traffic_factor(benchmark, jobs, hardware):
    """The ring 2(n-1)/n factor vs the paper's flat S_w/B_w: a bounded
    (< 2x) shift in AllReduce weight time, same winner."""
    population = [
        f.with_architecture(Architecture.ALLREDUCE_LOCAL, num_cnodes=8)
        for f in features_of_type(jobs, Architecture.PS_WORKER)[:1000]
    ]
    ringed = dataclasses.replace(
        PAPER_MODEL_OPTIONS, allreduce_ring_factor=True
    )

    def total_time(options):
        return sum(
            estimate_step_time(f, hardware, options=options)
            for f in population
        )

    flat = benchmark(total_time, PAPER_MODEL_OPTIONS)
    with_ring = total_time(ringed)
    print(
        f"\nablation[ring factor]: total step time {flat:.1f}s (flat) vs "
        f"{with_ring:.1f}s (ring)"
    )
    assert with_ring <= flat  # (n-1)/n < 1 shrinks traffic
    assert with_ring > 0.5 * flat


def test_ablation_overlap_composition(benchmark, jobs, hardware):
    """Sum vs max composition: totals shrink, bottleneck ranking holds."""
    population = features_of_type(jobs, Architecture.PS_WORKER)[:1000]
    ideal = dataclasses.replace(PAPER_MODEL_OPTIONS, overlap=OverlapMode.IDEAL)

    def totals(options):
        return sum(
            estimate_step_time(f, hardware, options=options)
            for f in population
        )

    non_overlap = benchmark(totals, PAPER_MODEL_OPTIONS)
    overlapped = totals(ideal)
    print(
        f"\nablation[overlap]: {non_overlap:.1f}s (sum) vs "
        f"{overlapped:.1f}s (max)"
    )
    assert non_overlap / 3 <= overlapped <= non_overlap


def test_ablation_pearl_sparse_awareness(benchmark, testbed):
    """Dense PEARL (no partitioned-gather parallelism) vs sparse-aware:
    the sparse-awareness is where most of the PEARL win comes from."""
    gcn = build_gcn()
    deployment = Deployment(Architecture.PEARL, 8)
    eff = TABLE_VI_EFFICIENCIES["GCN"]

    def pearl_step():
        return simulate_step(gcn, deployment, testbed, eff).serial_total

    sparse_aware = benchmark(pearl_step)
    dense_features_time = simulate_step(
        gcn, Deployment(Architecture.PS_WORKER, 8), testbed, eff
    ).serial_total
    print(
        f"\nablation[PEARL]: sparse-aware {sparse_aware * 1e3:.1f}ms vs "
        f"PS dense path {dense_features_time * 1e3:.1f}ms"
    )
    assert sparse_aware < dense_features_time / 5


def test_ablation_efficiency_scheme(benchmark, testbed):
    """Uniform 70% vs Table VI per-workload efficiencies on Speech:
    the scheme choice is exactly the Fig. 12 outlier."""
    from repro.graphs import build_speech
    from repro.core import PAPER_DEFAULT_EFFICIENCY

    speech = build_speech()
    deployment = Deployment(Architecture.SINGLE, 1)

    def uniform():
        return simulate_step(
            speech, deployment, testbed, PAPER_DEFAULT_EFFICIENCY
        ).serial_total

    at_70 = benchmark(uniform)
    measured = simulate_step(
        speech, deployment, testbed, TABLE_VI_EFFICIENCIES["Speech"]
    ).serial_total
    print(
        f"\nablation[efficiency scheme]: {at_70:.2f}s (uniform 70%) vs "
        f"{measured:.2f}s (Table VI)"
    )
    assert measured > 1.5 * at_70
