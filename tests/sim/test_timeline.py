"""Text timeline rendering."""

import pytest

from repro.core.architectures import Architecture
from repro.graphs import Deployment, build_resnet50
from repro.sim.events import TimelineRecord
from repro.sim.executor import simulate_step
from repro.sim.measurement import StepMeasurement
from repro.sim.timeline import render_timeline


def toy_measurement():
    records = (
        TimelineRecord("in", "server0/pcie", 0.0, 0.25, "input"),
        TimelineRecord("mm", "server0/gpu0", 0.25, 0.75, "compute"),
        TimelineRecord("ew", "server0/gpu0", 0.75, 0.9, "memory"),
        TimelineRecord("ar", "server0/nvlink", 0.9, 1.0, "weight"),
    )
    return StepMeasurement("toy", records, step_time=1.0, num_cnodes=1)


class TestRenderTimeline:
    def test_glyph_placement(self):
        text = render_timeline(toy_measurement(), width=20)
        lines = text.splitlines()
        assert lines[0].startswith("step toy")
        by_resource = {line.split()[0]: line.split()[-1] for line in lines[1:]}
        assert by_resource["server0/pcie"].startswith("IIIII")
        assert by_resource["server0/pcie"].endswith(".")
        assert "C" in by_resource["server0/gpu0"]
        assert "M" in by_resource["server0/gpu0"]
        assert by_resource["server0/nvlink"].endswith("WW")

    def test_rows_have_equal_width(self):
        text = render_timeline(toy_measurement(), width=30)
        rows = [line.split()[-1] for line in text.splitlines()[1:]]
        assert all(len(row) == 30 for row in rows)

    def test_real_step_renders(self, testbed):
        measurement = simulate_step(
            build_resnet50(), Deployment(Architecture.ALLREDUCE_LOCAL, 4), testbed
        )
        text = render_timeline(measurement)
        assert "server0/gpu0" in text
        assert "W=weight" in text

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_timeline(toy_measurement(), width=2)

    def test_empty_step(self):
        empty = StepMeasurement("none", (), 0.0, 1)
        assert render_timeline(empty) == "(empty step)"

    def test_max_resources_cap(self, testbed):
        measurement = simulate_step(
            build_resnet50(), Deployment(Architecture.ALLREDUCE_LOCAL, 8), testbed
        )
        text = render_timeline(measurement, max_resources=3)
        assert len(text.splitlines()) == 4  # header + 3 rows
