from collections import Counter

from serve_workload import (
    BLOCK,
    REFERENCE_ECHO_S,
    Phase,
    plan_requests,
    pooled,
    reference_reads,
    tail,
    with_echoes,
)


def test_every_block_holds_one_ingest_and_rotated_reads():
    plan = plan_requests(7, 400)
    assert len(plan) == 400
    for start in range(0, len(plan), BLOCK):
        assert [r[0] for r in plan[start : start + BLOCK]].count("ingest") == 1
    reads = Counter(
        "cdf50" if r[0] == "cdf" and r[2] == 50 else r[0]
        for r in plan
        if r[0] != "ingest"
    )
    assert reads == {"stats": 90, "census": 90, "cdf": 90, "cdf50": 90}


def test_plan_depends_only_on_the_seed():
    assert plan_requests(7, 300) == plan_requests(7, 300)
    assert plan_requests(7, 300) != plan_requests(8, 300)
    assert plan_requests(7, 300)[:120] == plan_requests(7, 120)


def test_echoes_follow_every_second_request():
    plan = plan_requests(7, 5)
    mixed = with_echoes(plan)
    assert [r for r in mixed if r != ("echo",)] == plan
    assert [i for i, r in enumerate(mixed) if r == ("echo",)] == [2, 5]


def test_latencies_pool_reads_ingests_and_echoes_over_sessions():
    first = Phase(1.0, [(0, "stats", 0.004), (1, "ingest", 0.010), (2, "echo", 0.001)])
    second = Phase(1.0, [(0, "cdf", 0.002), (1, "ingest", 0.020)])
    assert pooled([first, second], "read") == [0.004, 0.002]
    assert pooled([first, second], "ingest") == [0.010, 0.020]
    assert pooled([first, second], "echo") == [0.001]
    assert first.requests == 2 and first.rate == 2.0


def test_reads_scale_by_the_median_echo():
    slow = Phase(1.0, [(0, "stats", 0.004), (1, "echo", 2 * REFERENCE_ECHO_S)])
    assert reference_reads(slow) == [0.002]


def test_tail_leaves_ten_samples_beyond_or_falls_back_to_the_median():
    assert tail([float(v) for v in range(1, 201)]) == (95.0, 190.0)
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
