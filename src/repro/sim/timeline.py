"""Text timeline rendering for simulated steps.

Turns a :class:`~repro.sim.measurement.StepMeasurement` into a compact
Gantt-style text chart -- the "look at the step" debugging view a
profiler UI would give you, without leaving the terminal::

    server0/gpu0   CCCCCCMMMMCC............WW
    server0/pcie   II..........................
    server0/nvlink ....................WWWW....

One character per time bucket; the glyph is the dominant activity in
that bucket (I=input, C=compute, M=memory, W=weight, o=overhead).
"""

from __future__ import annotations

from typing import Dict, List

from .measurement import StepMeasurement

__all__ = ["CATEGORY_GLYPHS", "render_timeline"]

CATEGORY_GLYPHS: Dict[str, str] = {
    "input": "I",
    "compute": "C",
    "memory": "M",
    "weight": "W",
    "overhead": "o",
}

_IDLE = "."


def render_timeline(
    measurement: StepMeasurement,
    width: int = 72,
    max_resources: int = 16,
) -> str:
    """Render the step as one text row per resource.

    Buckets the step into ``width`` slots; each slot shows the glyph of
    the activity covering most of it on that resource.
    """
    if width < 8:
        raise ValueError("width must be at least 8")
    span = measurement.step_time
    if span <= 0:
        return "(empty step)"
    per_resource: Dict[str, List[float]] = {}
    glyphs: Dict[str, List[str]] = {}
    bucket = span / width
    for record in measurement.records:
        if record.resource not in per_resource:
            per_resource[record.resource] = [0.0] * width
            glyphs[record.resource] = [_IDLE] * width
        coverage = per_resource[record.resource]
        row = glyphs[record.resource]
        glyph = CATEGORY_GLYPHS.get(record.category, "?")
        first = min(int(record.start / bucket), width - 1)
        last = min(int(max(record.end - 1e-15, record.start) / bucket), width - 1)
        for slot in range(first, last + 1):
            slot_start = slot * bucket
            slot_end = slot_start + bucket
            overlap = min(record.end, slot_end) - max(record.start, slot_start)
            if overlap > coverage[slot]:
                coverage[slot] = overlap
                row[slot] = glyph
    resources = sorted(per_resource)[:max_resources]
    name_width = max(len(r) for r in resources)
    lines = [
        f"{resource.ljust(name_width)}  {''.join(glyphs[resource])}"
        for resource in resources
    ]
    legend = "  ".join(
        f"{glyph}={category}" for category, glyph in CATEGORY_GLYPHS.items()
    )
    header = (
        f"step {measurement.workload}: {span * 1e3:.2f} ms over "
        f"{len(per_resource)} resources   [{legend}]"
    )
    return "\n".join([header] + lines)
