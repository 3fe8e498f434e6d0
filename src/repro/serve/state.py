"""Sharded population state: concurrent ingestion, consistent reads.

The resident service splits the live population across N shards, each a
:class:`~repro.serve.stats.ShardStats` guarded by its own lock.  Writers
(the replayer, ``POST /ingest``) route each job to ``job_id % N`` and
only ever hold one shard lock at a time, so concurrent ingest batches
proceed in parallel across shards and readers never wait on a global
write lock.

Reads go through :meth:`ShardedState.snapshot`: each shard is copied
under its lock -- dict copies, plus a copy of each sketch's two lists;
the sketches' point arrays are read-only and shared, never copied --
then the copies are merged *outside* every lock into an immutable
:class:`StatsSnapshot`.  The merge shares those arrays too, so below
the sketch capacity it is list appends; past it each merged sketch
compacts.  A snapshot is internally consistent by construction -- every
aggregate in it derives from the same frozen shard states -- and
snapshots taken later can only see more jobs, never fewer, because
shard statistics only grow.  Merged snapshots are memoized on the
vector of per-shard versions, so an idle service answers every query
from the same cached merge until the next ingest batch lands.
Merging is single-flight with stale-while-revalidate: one reader pays
for each new merge while concurrent readers reuse the previous cached
snapshot instead of piling up behind the merge lock.

Alongside its version counter, every shard maintains a running SHA-256
digest over the canonical serialization of the jobs it has ingested, in
order.  The digest vector in a snapshot therefore identifies the
*content* of the population, not just how many batches arrived -- two
different traces that happen to reach the same batch counts still get
distinct digests, which is what lets the query layer key persistent
caches by snapshot without ever serving one population's numbers for
another.

Job ids are unique across the population: a batch that repeats an id,
within itself or from any earlier batch, is rejected whole with a
:class:`DuplicateJobError` before any shard sees it.  A client that
retries a POST the service had already applied therefore gets an error
instead of counting the batch twice.  A trace replay cannot stop at
such an error, so it ingests through :meth:`ShardedState.ingest_new`,
which keeps the copy already held and skips the repeat.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs import get_obs
from ..trace.schema import JobRecord
from ..trace.serialization import job_to_dict
from .stats import ShardStats

__all__ = ["DuplicateJobError", "ShardedState", "StatsSnapshot"]


class DuplicateJobError(ValueError):
    """An ingest batch repeats a job id already in the population or
    earlier in the same batch; nothing of the batch was ingested.

    Attributes:
        job_id: The first repeated id, in batch order.
    """

    def __init__(self, job_id: int) -> None:
        super().__init__(f"repeated job id {job_id}")
        self.job_id = job_id


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable merged view of the population at one generation.

    ``generation`` is the total number of ingest batches folded in;
    ``versions`` records each shard's batch count at snapshot time, and
    ``digests`` each shard's running content digest -- together they
    identify both how much *and which* data the snapshot describes.
    The merged :class:`ShardStats` must be treated as read-only.
    """

    stats: ShardStats = field(repr=False)
    generation: int
    versions: Tuple[int, ...]
    digests: Tuple[str, ...]

    @property
    def job_count(self) -> int:
        return self.stats.job_count


def _job_digest_bytes(job: JobRecord) -> bytes:
    """The canonical byte serialization of one job for content digests.

    Built on the trace schema's own dict form with sorted keys, so the
    digest chain depends only on the per-shard job sequence -- not on
    batching, dataclass repr, or dict insertion order.
    """
    return json.dumps(job_to_dict(job), sort_keys=True).encode("utf-8")


class _Shard:
    """One lock-guarded slice of the population."""

    __slots__ = ("lock", "stats", "version", "digest")

    def __init__(self, stats: ShardStats) -> None:
        self.lock = threading.Lock()
        self.stats = stats
        self.version = 0
        self.digest = hashlib.sha256()


class ShardedState:
    """N population shards with lock-free-for-readers merged snapshots."""

    def __init__(self, num_shards: int = 4) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        self._shards = [_Shard(ShardStats()) for _ in range(self.num_shards)]
        self._snapshot_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._cached_snapshot: Optional[StatsSnapshot] = None
        #: Every job id ingested so far, guarded by ``_ids_lock``.  Unlike
        #: the sketches it grows with the population, ~70 bytes a job.
        self._ids_lock = threading.Lock()
        self._ids: Set[int] = set()

    # ---- write side ------------------------------------------------

    def ingest(self, jobs: Sequence[JobRecord]) -> int:
        """Route a batch to its shards and fold it in; returns the count.

        The batch's ids are checked and claimed under one lock before
        any shard is touched, so of two writers racing on an id exactly
        one lands.  Each shard lock is held only while that shard's
        slice of the batch is folded in, so ingestion interleaves with
        snapshots and with other writers at shard granularity.

        Raises:
            DuplicateJobError: A job id repeats one already ingested or
                one earlier in the batch; no shard, version or digest
                changes.
        """
        batch = list(jobs)
        with self._ids_lock:
            fresh: Set[int] = set()
            for job in batch:
                if job.job_id in self._ids or job.job_id in fresh:
                    raise DuplicateJobError(job.job_id)
                fresh.add(job.job_id)
            self._ids |= fresh
        return self._fold(batch)

    def ingest_new(self, jobs: Sequence[JobRecord]) -> Tuple[int, List[int]]:
        """Fold in the jobs whose ids are new; skip the rest.

        The ids are checked and claimed under the same lock as
        :meth:`ingest`, one job at a time, so a repeat within the batch
        keeps its first copy.

        Returns:
            The count folded in, and the skipped ids in batch order.
        """
        batch: List[JobRecord] = []
        skipped: List[int] = []
        with self._ids_lock:
            for job in jobs:
                if job.job_id in self._ids:
                    skipped.append(job.job_id)
                else:
                    self._ids.add(job.job_id)
                    batch.append(job)
        return self._fold(batch), skipped

    def _fold(self, batch: List[JobRecord]) -> int:
        """Route a claimed batch to its shards and fold it in."""
        if not batch:
            return 0
        by_shard: Dict[int, List[JobRecord]] = {}
        for job in batch:
            by_shard.setdefault(job.job_id % self.num_shards, []).append(job)
        obs = get_obs()
        with obs.trace("serve.ingest", jobs=len(batch), shards=len(by_shard)):
            for index, shard_jobs in sorted(by_shard.items()):
                shard = self._shards[index]
                with shard.lock:
                    shard.stats.observe(shard_jobs)
                    for job in shard_jobs:
                        shard.digest.update(_job_digest_bytes(job))
                    shard.version += 1
        obs.metrics.counter("serve.ingest.jobs").inc(len(batch))
        obs.metrics.counter("serve.ingest.batches").inc()
        return len(batch)

    # ---- read side -------------------------------------------------

    @property
    def generation(self) -> int:
        """Total ingest batches folded in so far (monotone)."""
        # repro: ignore[lock-discipline] lock-free read of a monotone
        # counter; staleness is bounded and torn reads are impossible
        return sum(shard.version for shard in self._shards)

    @property
    def job_count(self) -> int:
        """Jobs ingested so far (monotone)."""
        return sum(shard.stats.job_count for shard in self._shards)

    def snapshot(self) -> StatsSnapshot:
        """A consistent merged view of all shards.

        Shard copies are taken one lock at a time, and each shares its
        shard's read-only sketch arrays, so a shard lock is held for
        dict and list copies only.  The merge never holds a shard lock,
        so it does not block ingestion.  Because shard statistics only
        grow, the merged view is monotone across calls: a later
        snapshot never reports fewer jobs than an earlier one.  The
        merge is memoized on the per-shard version vector and
        *single-flight*: when many readers observe the same new
        generation at once, exactly one of them pays for the merge and
        the rest reuse it -- without that, a thundering herd of
        identical merges, each compacting past the sketch capacity,
        starves live ingestion.
        While a merge is in flight, other readers are served the
        previous cached snapshot instead of queuing behind it
        (stale-while-revalidate); that stays monotone because the
        cache only ever advances in generation.
        """
        # repro: ignore[lock-discipline] optimistic fast path by design
        # (stale-while-revalidate, see docstring): the cache reference
        # swap is atomic and only ever advances in generation
        cached = self._cached_snapshot
        # repro: ignore[lock-discipline] monotone counters; a torn
        # version vector only causes one redundant merge, never a wrong
        # result
        versions = tuple(shard.version for shard in self._shards)
        if cached is not None and cached.versions == versions:
            get_obs().metrics.counter("serve.snapshot.memo_hits").inc()
            return cached
        if not self._merge_lock.acquire(blocking=False):
            if cached is not None:
                get_obs().metrics.counter("serve.snapshot.stale_served").inc()
                return cached
            # No snapshot exists yet; wait for the in-flight merge.
            self._merge_lock.acquire()
        try:
            # Whoever held the lock before us may have merged a view
            # fresh enough to reuse.
            # repro: ignore[lock-discipline] double-check under the
            # merge lock: _cached_snapshot writers all hold _merge_lock,
            # so this read is ordered after any in-flight publish
            cached = self._cached_snapshot
            # repro: ignore[lock-discipline] monotone counters; see the
            # fast-path note above
            versions = tuple(shard.version for shard in self._shards)
            if cached is not None and cached.versions == versions:
                get_obs().metrics.counter("serve.snapshot.memo_hits").inc()
                return cached
            copies: List[ShardStats] = []
            versions_at_copy: List[int] = []
            digests_at_copy: List[str] = []
            for shard in self._shards:
                with shard.lock:
                    copies.append(shard.stats.copy())
                    versions_at_copy.append(shard.version)
                    digests_at_copy.append(shard.digest.hexdigest())
            obs = get_obs()
            with obs.trace("serve.snapshot.merge", shards=self.num_shards):
                merged = ShardStats.merged(copies)
            snapshot = StatsSnapshot(
                stats=merged,
                generation=sum(versions_at_copy),
                versions=tuple(versions_at_copy),
                digests=tuple(digests_at_copy),
            )
            with self._snapshot_lock:
                previous = self._cached_snapshot
                # Keep whichever snapshot saw more ingest batches.
                if (
                    previous is None
                    or previous.generation <= snapshot.generation
                ):
                    self._cached_snapshot = snapshot
        finally:
            self._merge_lock.release()
        obs.metrics.counter("serve.snapshot.merges").inc()
        return snapshot
