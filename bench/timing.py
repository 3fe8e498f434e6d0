"""Timing primitives shared by every workload: percentiles, the host
clock, per-layer recorders and peak memory.

The per-layer recorder times *public* methods from the outside: a
workload builds a subclass of a library class (``Fleet``,
``ResultCache``, ``ModelRuntimePredictor``) whose listed methods are
wrapped, and passes instances of it where the library expects the base
class.  Methods are looked up by name and silently skipped when absent,
so an API change loses one row of the breakdown instead of breaking
the benchmark.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate percentiles for a tail latency, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Leaf layers time every call up to this count, then one call in
#: :data:`SAMPLE_EVERY` (see :meth:`Recorder.wrap`).
TIME_ALL_FIRST = 1000
SAMPLE_EVERY = 8


class BenchError(Exception):
    """A workload produced a wrong or failed result."""


@dataclass
class Outcome:
    """What one measured phase reports: metric values by name, the
    operations attempted, and lines to print before the result."""

    metrics: Dict[str, float]
    attempted: int
    lines: List[str] = field(default_factory=list)


def _rank(percentile: float, count: int) -> int:
    """1-based nearest rank; the epsilon absorbs float error such as
    99.9 / 100 * 10000 landing just above 9990."""
    return max(1, math.ceil(percentile / 100.0 * count - 1e-9))


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percentile`` % of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` that leaves at least
    :data:`MIN_SAMPLES_BEYOND` of ``count`` samples above its rank, or
    ``None`` when even the median does not."""
    for percentile in TAIL_PERCENTILES:
        if count - _rank(percentile, count) >= MIN_SAMPLES_BEYOND:
            return percentile
    return None


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def repeats(seconds: float, nominal_s: float, minimum: int) -> int:
    """How many times to repeat a unit of work that takes ``nominal_s``
    on the reference host, to measure for about ``seconds``.

    The count depends only on the arguments, never on measured speed,
    so two commits always do the same work.
    """
    return max(minimum, round(seconds / nominal_s))


#: Seconds :func:`probe` takes on the reference host (2 vCPUs, CPython
#: 3.11) at its usual speed; :class:`HostClock` scales times to it.
REFERENCE_PROBE_S = 0.0068
PROBE_ITERATIONS = 100_000


def probe() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value
    return time.perf_counter() - start


class HostClock:
    """Times pieces of work and measures how fast the host ran meanwhile.

    The hosts this benchmark runs on share their cores with other
    machines' work, and their speed drifts by up to 2x over minutes: a
    FIFO replay of fixed work took 4.7 s to 8.6 s within ten minutes,
    and a fixed loop's time rose and fell with it.  So the clock runs
    :func:`probe` once at the start and again after every piece it
    times.  :attr:`last_scale` takes the time of the piece just timed
    to the reference host's speed: :data:`REFERENCE_PROBE_S` over the
    mean of the probes before and after it.  In three sets of 24 to 30
    scheduler passes, the two probes around each chunk left an
    interquartile spread of the pass time 1% to 15% lower than the
    probe after it alone.

    A change to the measured code does not change the probe, so a
    slower program reads slower; only the host's speed divides out.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]

    def measure(self, function: Callable, *args, **kwargs) -> Tuple[object, float]:
        """``(result, wall seconds)`` of one call, then one probe."""
        start = time.perf_counter()
        result = function(*args, **kwargs)
        wall = time.perf_counter() - start
        self.probes.append(probe())
        return result, wall

    @property
    def probe_s(self) -> float:
        """Median probe time: how fast the host ran."""
        return median(self.probes)

    @property
    def last_scale(self) -> float:
        return REFERENCE_PROBE_S / median(self.probes[-2:])


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest waited-for
    child), in MiB."""
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    )
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return usage.ru_maxrss * scale / (1024.0 * 1024.0)


class Recorder:
    """Calls, seconds and failed attempts per layer name.

    A layer's self time excludes the timed calls made inside it, so the
    self times of all layers plus the untimed remainder add up to the
    wall time.  While :attr:`trial` is set (a workload sets it around a
    policy's ``select``), calls wrapped with a ``trial_name`` are booked
    under that name instead.

    Nesting is tracked on one stack, so nesting wrappers serve one
    thread; ``shared`` wrappers and :meth:`add` take a lock and may be
    called from many threads.
    """

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds, failures]
        self._stats: Dict[str, list] = {}
        self.trial = False
        self._children = [0.0]
        self._lock = threading.Lock()

    @classmethod
    def load(cls, snapshot: Dict[str, list]) -> "Recorder":
        """A recorder holding the counters of :meth:`snapshot`."""
        recorder = cls()
        recorder._stats = {name: list(stat) for name, stat in snapshot.items()}
        return recorder

    def snapshot(self) -> Dict[str, list]:
        """Plain-data copy of the counters (JSON-ready)."""
        with self._lock:
            return {name: list(stat) for name, stat in self._stats.items()}

    def _stat(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0.0, 0.0, 0])

    def calls(self, name: str) -> int:
        return self._stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0, 0.0))[2]

    def failures(self, name: str) -> int:
        return self._stats.get(name, (0, 0.0, 0.0, 0))[3]

    @property
    def top_level_s(self) -> float:
        """Time spent inside outermost timed calls."""
        return self._children[0]

    def add(self, name: str, elapsed: float) -> None:
        with self._lock:
            stat = self._stat(name)
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed

    def wrap(
        self,
        name: str,
        function: Callable,
        trial_name: Optional[str] = None,
        failed: Optional[Callable[[object], bool]] = None,
        leaf: bool = False,
        shared: bool = False,
    ) -> Callable:
        """``function`` with its calls booked under ``name``.

        ``failed`` classifies a return value as a failed attempt.
        ``leaf`` wrappers are for functions that make no timed calls;
        they skip the nesting bookkeeping and book nothing when the call
        raises.  A contended replay makes over half a million fleet
        calls, so past its first :data:`TIME_ALL_FIRST` calls a leaf
        layer times one call in :data:`SAMPLE_EVERY` and books it
        :data:`SAMPLE_EVERY` times over; it still counts every call.
        """
        live = self._stat(name)
        trial = self._stat(trial_name) if trial_name else live
        children, clock, recorder = self._children, time.perf_counter, self

        if shared:
            lock = self._lock

            def timed(*args, **kwargs):
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    with lock:
                        live[0] += 1
                        live[1] += elapsed
                        live[2] += elapsed
                if failed is not None and failed(result):
                    with lock:
                        live[3] += 1
                return result

        elif leaf:

            def timed(*args, **kwargs):
                stat = trial if recorder.trial else live
                calls = stat[0]
                if calls >= TIME_ALL_FIRST and calls % SAMPLE_EVERY:
                    result = function(*args, **kwargs)
                else:
                    start = clock()
                    result = function(*args, **kwargs)
                    elapsed = clock() - start
                    if calls >= TIME_ALL_FIRST:
                        elapsed *= SAMPLE_EVERY
                    children[-1] += elapsed
                    stat[1] += elapsed
                    stat[2] += elapsed
                stat[0] = calls + 1
                if failed is not None and failed(result):
                    stat[3] += 1
                return result

        else:

            def timed(*args, **kwargs):
                stat = trial if recorder.trial else live
                children.append(0.0)
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    nested = children.pop()
                    children[-1] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - nested
                if failed is not None and failed(result):
                    stat[3] += 1
                return result

        return timed


def timed_subclass(
    base: type,
    recorder: Recorder,
    methods: Dict[str, Tuple[str, Optional[str]]],
    failed: Optional[Dict[str, Callable[[object], bool]]] = None,
    shared: bool = False,
) -> type:
    """A subclass of ``base`` whose listed methods are timed as leaf
    layers (see :meth:`Recorder.wrap`).

    ``methods`` maps a method name to ``(layer name, trial layer name)``;
    names ``base`` does not define are skipped.
    """
    failed = failed or {}
    namespace = {}
    for method, (name, trial_name) in methods.items():
        function = getattr(base, method, None)
        if function is None:
            continue
        namespace[method] = recorder.wrap(
            name, function, trial_name, failed.get(method), leaf=True, shared=shared
        )
    return type(f"Timed{base.__name__}", (base,), namespace)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when ``whole`` is 0 (a layer never called)."""
    return part / whole if whole else 0.0


def self_time_tree(
    title: str, wall_s: float, rows: Sequence[Tuple[int, str, float]]
) -> str:
    """Render ``(depth, layer, share of the wall time)`` rows with the
    self seconds each share stands for."""
    lines = [f"self-time tree: {title} (wall {wall_s:.3f} s)"]
    for depth, layer, share in rows:
        lines.append(
            f"  {'  ' * depth}{layer:<{44 - 2 * depth}} "
            f"{share * wall_s:10.4f} s {share:7.1%}"
        )
    return "\n".join(lines)
