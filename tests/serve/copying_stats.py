"""The shard merge the service used before sketches shared their point
arrays, kept as a test oracle.

:meth:`ShardStats.merged` folds the shards' sketches pairwise in shard
order, and each merged sketch shares its sources' read-only arrays.
:func:`copying_merged` makes the same fold with the sketch merge that
concatenated each side's points and re-ingested them through
``update_many``.  A merged view must answer every query exactly as this
one does.
"""

from dataclasses import replace
from typing import Iterable, Optional

from repro.serve import ShardedState, ShardStats, StatsSnapshot
from repro.serve.stats import AGGREGATION_LEVELS
from repro.trace.statistics import StreamingCDF


def copying_sketch_merge(
    left: StreamingCDF, right: StreamingCDF
) -> StreamingCDF:
    """A new sketch of both populations, built from copied points."""
    merged = StreamingCDF(capacity=max(left.capacity, right.capacity))
    for source in (left, right):
        if source.count:
            values, weights = source._points()
            merged.update_many(values, weights)
    merged.count = left.count + right.count
    return merged


def copying_update_from(mine: ShardStats, other: ShardStats) -> None:
    """Fold ``other`` into ``mine``, copying every sketch's points."""
    mine.job_count += other.job_count
    mine.cnode_total += other.cnode_total
    for label, count in other.arch_jobs.items():
        mine.arch_jobs[label] = mine.arch_jobs.get(label, 0) + count
    for label, cnodes in other.arch_cnodes.items():
        mine.arch_cnodes[label] = mine.arch_cnodes.get(label, 0.0) + cnodes
    for ours, theirs in (
        (mine.fraction_sums, other.fraction_sums),
        (mine.hardware_sums, other.hardware_sums),
        (mine.census_sums, other.census_sums),
    ):
        for level in AGGREGATION_LEVELS:
            for key, value in theirs[level].items():
                ours[level][key] += value
    for key, sketch in other.sketches.items():
        mine.sketches[key] = copying_sketch_merge(mine.sketches[key], sketch)


def copying_merged(shards: Iterable[ShardStats]) -> ShardStats:
    """Combine shard statistics, every sketch's points copied."""
    shards = list(shards)
    combined = shards[0].copy()
    for shard in shards[1:]:
        copying_update_from(combined, shard)
    return combined


class CopyingState(ShardedState):
    """A :class:`ShardedState` whose snapshots merge by copying.

    Drive it from one thread: the copying view is built from the shards
    as they stand when :meth:`snapshot` is called, and reused until a
    shard's version moves.
    """

    def __init__(self, num_shards: int = 4) -> None:
        super().__init__(num_shards)
        self._copied: Optional[StatsSnapshot] = None

    def snapshot(self) -> StatsSnapshot:
        view = super().snapshot()
        if self._copied is None or self._copied.versions != view.versions:
            self._copied = copying_snapshot(self, view)
        return self._copied


def copying_snapshot(
    state: ShardedState, view: StatsSnapshot
) -> StatsSnapshot:
    """``view`` with its statistics merged by copying from ``state``'s
    shards as they stand now."""
    stats = copying_merged(shard.stats.copy() for shard in state._shards)
    return replace(view, stats=stats)
