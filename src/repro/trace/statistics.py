"""Small statistics toolkit: empirical CDFs, batch and streaming.

Every distribution figure in the paper (Figs. 6, 8, 9, 10, 15, 16) is an
empirical CDF over the job population, sometimes cNode-weighted.  This
module provides those primitives without pulling in plotting
dependencies; the benchmark harness prints the resulting series.

Two construction paths exist:

* **batch** -- :meth:`EmpiricalCDF.from_samples` over a fully
  materialized population (the one-shot ``report`` path);
* **streaming** -- :class:`StreamingCDF`, a bounded-size mergeable
  sketch that shards of a live population update independently and
  combine on demand (the ``repro.serve`` path).  While the number of
  distinct observations stays within the sketch capacity the combined
  result is *exactly* the batch CDF; beyond that, compaction bounds the
  quantile-rank error by ~1/capacity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "EmpiricalCDF",
    "StreamingCDF",
]


def _reject_nan(array: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``array`` holds a NaN.

    The CDFs keep their points sorted, and a NaN compares false with
    everything: it would break the ordering every quantile lookup
    relies on.
    """
    if np.isnan(array).any():
        raise ValueError(f"{name} must not be NaN")


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only so that sketches can share it."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical (optionally weighted) cumulative distribution.

    ``values`` are sorted ascending; ``cumulative`` gives
    P(X <= values[i]) including weights.  Lookups bisect the two tuples,
    which :meth:`from_samples` keeps sorted by rejecting NaN.
    """

    values: Tuple[float, ...]
    cumulative: Tuple[float, ...]

    @staticmethod
    def from_samples(
        samples: Iterable[float], weights: Iterable[float] = None
    ) -> "EmpiricalCDF":
        """Build a CDF from samples with optional per-sample weights."""
        data = np.asarray(samples, dtype=float).ravel()
        if data.size == 0:
            raise ValueError("cannot build a CDF from zero samples")
        if weights is None:
            weight_array = np.ones_like(data)
        else:
            weight_array = np.asarray(weights, dtype=float).ravel()
            if weight_array.shape != data.shape:
                raise ValueError("weights must match samples in length")
            if np.any(weight_array < 0):
                raise ValueError("weights must be non-negative")
        order = np.argsort(data, kind="stable")
        sorted_values = data[order]
        # numpy sorts NaN last, and a NaN weight makes the total NaN,
        # so both checks read one element instead of scanning an array.
        if np.isnan(sorted_values[-1]):
            raise ValueError("samples must not be NaN")
        cumulative = np.cumsum(weight_array[order])
        total = cumulative[-1]
        if np.isnan(total):
            raise ValueError("weights must not be NaN")
        if total <= 0:
            raise ValueError("total weight must be positive")
        normalized = cumulative / total
        # The running sum can land on 1.0 +- a few ulps; pin the final
        # entry to exactly 1.0 so quantile(1.0) finds the maximum by
        # construction instead of relying on the defensive index clamp.
        normalized[-1] = 1.0
        return EmpiricalCDF(
            values=tuple(sorted_values.tolist()),
            cumulative=tuple(normalized.tolist()),
        )

    def probability_at(self, x: float) -> float:
        """P(X <= x)."""
        index = bisect_right(self.values, x)
        if index == 0:
            return 0.0
        return self.cumulative[index - 1]

    #: Absolute slack when matching a quantile rank against the
    #: cumulative grid.  A weighted cumulative sum rounds, so a grid
    #: entry that is exactly 0.5 in one construction can land a few
    #: ulps below it in another that adds the same masses differently
    #: -- and ``quantile`` is a step function, so one ulp would
    #: otherwise flip the answer by a whole point mass.  The slack is
    #: far below any real rank resolution (it would take >1e9 samples
    #: to place two points this close).
    _RANK_SLACK = 1e-9

    def quantile(self, q: float) -> float:
        """Smallest value with cumulative probability >= q.

        ``q`` is matched with a tiny absolute slack
        (:data:`_RANK_SLACK`) so that a cumulative grid a few ulps off
        does not flip the answer by one point mass.
        """
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        index = bisect_left(self.cumulative, q - self._RANK_SLACK)
        index = min(index, len(self.values) - 1)
        return self.values[index]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def series(self, points: int = 50) -> List[Tuple[float, float]]:
        """Down-sampled (value, probability) pairs for text rendering."""
        if points < 2:
            raise ValueError("points must be at least 2")
        count = len(self.values)
        if count <= points:
            return list(zip(self.values, self.cumulative))
        indices = np.linspace(0, count - 1, points).astype(int)
        return [(self.values[i], self.cumulative[i]) for i in indices]


class StreamingCDF:
    """A bounded-size, mergeable sketch of a weighted distribution.

    Shards of a live population update their own sketches job by job
    (or batch by batch); :meth:`merge` combines shard sketches into one,
    and :meth:`to_cdf` renders the usual :class:`EmpiricalCDF` view.

    The sketch keeps exact ``(value, weight)`` point masses until the
    number of retained points exceeds ``capacity``; it then compacts to
    at most ``capacity`` centroids of equal cumulative mass (weighted
    means, with the exact minimum and maximum preserved).  Total weight
    and observation count are always exact; quantile ranks are exact
    below capacity and off by at most ~1/capacity after compaction.

    Points are stored as read-only arrays, one pair per update, so
    :meth:`copy` and :meth:`merge` share them instead of copying;
    compaction replaces them with new arrays.
    """

    __slots__ = ("capacity", "count", "_values", "_weights", "_retained")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 8:
            raise ValueError("capacity must be at least 8")
        self.capacity = int(capacity)
        self.count = 0
        self._values: List[np.ndarray] = []
        self._weights: List[np.ndarray] = []
        self._retained = 0

    @property
    def total_weight(self) -> float:
        """Exact sum of all observed weights."""
        return float(sum(float(w.sum()) for w in self._weights))

    def update(self, value: float, weight: float = 1.0) -> None:
        """Observe one weighted sample."""
        self.update_many([value], [weight])

    def update_many(
        self,
        values: Iterable[float],
        weights: Optional[Iterable[float]] = None,
    ) -> None:
        """Observe a batch of samples with optional per-sample weights.

        The batch is copied once, into arrays the sketch stores
        read-only, so later writes to the caller's arrays do not reach
        the sketch.
        """
        data = np.array(values, dtype=float).ravel()
        if data.size == 0:
            return
        _reject_nan(data, "values")
        if weights is None:
            weight_array = np.ones_like(data)
        else:
            weight_array = np.array(weights, dtype=float).ravel()
            if weight_array.shape != data.shape:
                raise ValueError("weights must match values in length")
            _reject_nan(weight_array, "weights")
            if np.any(weight_array < 0):
                raise ValueError("weights must be non-negative")
        self.count += int(data.size)
        self._extend([_frozen(data)], [_frozen(weight_array)], int(data.size))

    def merge(self, other: "StreamingCDF") -> "StreamingCDF":
        """A new sketch summarizing both populations.

        The new sketch shares both sides' stored arrays until it
        compacts; neither side changes.
        """
        merged = StreamingCDF(capacity=max(self.capacity, other.capacity))
        for source in (self, other):
            if source.count:
                merged._extend(
                    source._values, source._weights, source._retained
                )
        # Observations are what the sketch reports, and both sides know
        # theirs exactly.
        merged.count = self.count + other.count
        return merged

    def copy(self) -> "StreamingCDF":
        """An independent snapshot of this sketch.

        Stored arrays are read-only, so the snapshot shares them and
        copies only the two lists that hold them.
        """
        duplicate = StreamingCDF(capacity=self.capacity)
        duplicate.count = self.count
        duplicate._values = list(self._values)
        duplicate._weights = list(self._weights)
        duplicate._retained = self._retained
        return duplicate

    def _extend(
        self,
        values: List[np.ndarray],
        weights: List[np.ndarray],
        retained: int,
    ) -> None:
        """Append read-only point arrays holding ``retained`` points."""
        self._values.extend(values)
        self._weights.extend(weights)
        self._retained += retained
        if self._retained > self.capacity:
            self._compact()

    def _points(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self._values:
            return np.empty(0), np.empty(0)
        return np.concatenate(self._values), np.concatenate(self._weights)

    def _compact(self) -> None:
        """Collapse retained points into <= capacity mass centroids."""
        values, weights = self._points()
        keep = weights > 0
        values, weights = values[keep], weights[keep]
        if values.size <= self.capacity:
            self._values = [_frozen(values)]
            self._weights = [_frozen(weights)]
            self._retained = int(values.size)
            return
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        total = float(weights.sum())
        # Bucket by the rank of each point's center of mass, so every
        # centroid summarizes ~total/capacity of cumulative weight.
        centers = (np.cumsum(weights) - weights / 2.0) / total
        buckets = np.minimum(
            (centers * self.capacity).astype(np.int64), self.capacity - 1
        )
        bucket_weight = np.bincount(
            buckets, weights=weights, minlength=self.capacity
        )
        bucket_mass = np.bincount(
            buckets, weights=weights * values, minlength=self.capacity
        )
        occupied = bucket_weight > 0
        centroids = bucket_mass[occupied] / bucket_weight[occupied]
        # The distribution's support must survive compaction: pin the
        # outermost centroids to the exact observed extremes.
        centroids[0] = values[0]
        centroids[-1] = values[-1]
        self._values = [_frozen(centroids)]
        self._weights = [_frozen(bucket_weight[occupied])]
        self._retained = int(centroids.size)

    def to_cdf(self) -> EmpiricalCDF:
        """Render the sketch as an :class:`EmpiricalCDF`."""
        if self.count == 0:
            raise ValueError("cannot build a CDF from zero samples")
        values, weights = self._points()
        return EmpiricalCDF.from_samples(values, weights)

    def quantile(self, q: float) -> float:
        """Smallest sketched value with cumulative probability >= q."""
        return self.to_cdf().quantile(q)
