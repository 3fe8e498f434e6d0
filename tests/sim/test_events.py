"""The simulator's activity record."""

import pytest

from repro.sim.events import TimelineRecord


class TestTimelineRecord:
    def test_duration(self):
        record = TimelineRecord("op", "gpu0", 1.0, 3.5, "compute")
        assert record.duration == 2.5

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            TimelineRecord("op", "gpu0", 2.0, 1.0, "compute")
