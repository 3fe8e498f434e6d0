"""Pinned SHA-256 digests of the Sec. V, census and fleet what-if results.

Figs. 15 and 16, the bottleneck census and the fleet what-if are
byte-identical contracts: a refactor may change how they are computed,
never what they report.  Each case runs one experiment on its default
trace -- the 20k-job trace, or for ``sched_whatif`` its own 1,200-job
slice -- and hashes a canonical text form of its ``ExperimentResult``
-- every row's cells in column order, then every note -- with floats
written by ``float.hex`` so the digest moves with any bit, as
``tests/sched/test_schedule_digest.py`` does for schedules.

The digests were recorded while these experiments still evaluated the
model job by job through ``estimate_breakdown`` and
``projection_speedups``; the columnar evaluator reproduces them exactly.
"""

import hashlib
import math

import pytest

from repro.analysis import (
    census,
    fig15_efficiency,
    fig16_overlap,
    sched_whatif,
)
from repro.analysis.context import DEFAULT_TRACE_JOBS, default_trace
from repro.analysis.result import ExperimentResult

RESULT_DIGESTS = {
    "census": (
        "c467564508ed6ad67b21f4ad863bb620023a44adc24b83d65b4e2b2a6e64869f"
    ),
    "fig15": (
        "fadac544a5369cdce1d2583d4c890000205b0532078eaa004ff3013ca2dc1604"
    ),
    "fig16": (
        "6f9df9609cea4326407e2e3d26bc55d22bc2b1275bfbc79b6d9fc5430278cf6e"
    ),
    "sched_whatif": (
        "293fe5c98b1a44b98d9e1a97516d7719f3bb78a930a9b8a2418dfb77c0ee9a98"
    ),
}

_RUNNERS = {
    "fig15": fig15_efficiency.run,
    "fig16": fig16_overlap.run,
    "census": census.run,
    "sched_whatif": sched_whatif.run,
}

#: Trace sizes that differ from the 20k default: the what-if's own slice.
_TRACE_JOBS = {"sched_whatif": sched_whatif.TRACE_JOBS}


def _cell(value) -> str:
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, int):
        return str(value)
    return repr(str(value))


def canonical_lines(result: ExperimentResult):
    """The canonical text form of an ``ExperimentResult``, line by line."""
    yield f"experiment|{result.experiment}|{result.title}"
    for row in result.rows:
        yield "row|" + "|".join(f"{key}={_cell(row[key])}" for key in row)
    for note in result.notes:
        yield f"note|{note}"


def result_digest(result: ExperimentResult) -> str:
    """SHA-256 over :func:`canonical_lines`."""
    digest = hashlib.sha256()
    for line in canonical_lines(result):
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("experiment", sorted(RESULT_DIGESTS))
def test_default_trace_result_digest(experiment):
    jobs = default_trace(_TRACE_JOBS.get(experiment, DEFAULT_TRACE_JOBS))
    result = _RUNNERS[experiment](jobs)
    assert result_digest(result) == RESULT_DIGESTS[experiment]


class TestCanonicalForm:
    def test_digest_moves_with_any_float_bit(self):
        rows = [{"population": "all", "share": 0.25}]
        result = ExperimentResult("x", "t", rows)
        nudged = ExperimentResult(
            "x",
            "t",
            [{"population": "all", "share": math.nextafter(0.25, 1.0)}],
        )
        assert result_digest(nudged) != result_digest(result)
