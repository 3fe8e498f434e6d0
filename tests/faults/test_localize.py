"""Symptom -> root-cause attribution: the decision list, pinned."""

from repro.faults import Anomaly, FaultKind, localize


def anomaly(symptom, target, onset=10.0, magnitude=0.5):
    return Anomaly(symptom, target, onset, magnitude)


class TestDecisionOrder:
    def test_empty_set_is_healthy(self):
        diagnosis = localize([])
        assert diagnosis.kind is None
        assert diagnosis.confidence == 0.0

    def test_job_failure_wins_over_everything(self):
        diagnosis = localize(
            [
                anomaly("compute_inflation", "replica:0"),
                anomaly("job_failure", "job:7", onset=4.0),
            ]
        )
        assert diagnosis.kind is FaultKind.WORKER_CRASH
        assert diagnosis.target == "job:7"
        assert diagnosis.onset == 4.0

    def test_earliest_failure_names_the_victim(self):
        diagnosis = localize(
            [
                anomaly("job_failure", "job:9", onset=8.0),
                anomaly("job_failure", "job:3", onset=2.0),
            ]
        )
        assert diagnosis.target == "job:3"

    def test_burst_beats_inflation(self):
        diagnosis = localize(
            [
                anomaly("step_inflation", "replica:1"),
                anomaly("preemption_burst", "fleet", magnitude=6.0),
            ]
        )
        assert diagnosis.kind is FaultKind.PREEMPTION_STORM
        assert diagnosis.target == "fleet"

    def test_compute_inflation_means_straggler(self):
        diagnosis = localize(
            [
                anomaly("compute_inflation", "replica:2", magnitude=0.9),
                anomaly("step_inflation", "replica:2", magnitude=0.4),
            ]
        )
        assert diagnosis.kind is FaultKind.STRAGGLER
        assert diagnosis.target == "replica:2"
        assert diagnosis.confidence == 1.0  # corroborated by step_s

    def test_uncorroborated_straggler_has_lower_confidence(self):
        diagnosis = localize([anomaly("compute_inflation", "replica:2")])
        assert diagnosis.kind is FaultKind.STRAGGLER
        assert diagnosis.confidence < 1.0

    def test_strongest_compute_inflation_wins(self):
        diagnosis = localize(
            [
                anomaly("compute_inflation", "replica:0", magnitude=0.3),
                anomaly("compute_inflation", "replica:3", magnitude=0.8),
            ]
        )
        assert diagnosis.target == "replica:3"

    def test_link_drop_without_compute_inflation_means_link(self):
        diagnosis = localize(
            [
                anomaly("link_rate_drop", "link:1:nic", magnitude=0.6),
                anomaly("step_inflation", "replica:1", magnitude=0.3),
            ]
        )
        assert diagnosis.kind is FaultKind.LINK_DEGRADATION
        assert diagnosis.target == "link:1:nic"

    def test_shard_skew_means_hotspot(self):
        diagnosis = localize(
            [
                anomaly("shard_skew", "ps:2", magnitude=2.5),
                anomaly("step_inflation", "replica:0"),
                anomaly("step_inflation", "replica:1"),
            ]
        )
        assert diagnosis.kind is FaultKind.PS_HOTSPOT
        assert diagnosis.target == "ps:2"
        assert diagnosis.confidence == 1.0

    def test_fleetwide_step_inflation_falls_back_to_hotspot(self):
        diagnosis = localize(
            [
                anomaly("step_inflation", "replica:0", onset=12.0),
                anomaly("step_inflation", "replica:1", onset=13.0),
            ]
        )
        assert diagnosis.kind is FaultKind.PS_HOTSPOT
        assert diagnosis.target is None
        assert diagnosis.onset == 12.0
        assert diagnosis.confidence < 0.5

    def test_single_step_inflation_stays_healthy(self):
        # One replica slower with flat compute/links/shards: no single
        # root cause is separable, so the pipeline stays silent rather
        # than guessing.
        diagnosis = localize([anomaly("step_inflation", "replica:0")])
        assert diagnosis.kind is None

    def test_evidence_lists_every_anomaly(self):
        diagnosis = localize(
            [
                anomaly("job_failure", "job:1"),
                anomaly("step_inflation", "replica:0"),
            ]
        )
        assert len(diagnosis.evidence) == 2
        assert any("job_failure@job:1" in e for e in diagnosis.evidence)
