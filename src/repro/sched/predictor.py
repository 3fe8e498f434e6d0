"""Model-predicted job runtimes for the scheduler.

The trace stores no durations, so the scheduler needs a runtime
estimate per job.  Two sources are provided:

* :func:`sample_durations` -- the log-normal draw every production
  cluster study reports, deterministic per ``(seed, job_id)``.  This is
  :func:`~repro.sched.engine.run_schedule`'s default.
* :class:`ModelRuntimePredictor` -- couples the analytical performance
  model, evaluated over a whole batch of jobs
  (:func:`repro.core.population.batch_step_times`), with a
  deterministic per-job step *count*: duration = predicted step time
  (a function of the job's workload features on the Table I hardware)
  times the number of training steps.  Two jobs with the same step
  budget but different architectures then get different predicted
  runtimes -- which is what makes shortest-job-first and what-if
  projections (:mod:`repro.sched.whatif`) meaningful.

Both draw one log-normal per job from ``default_rng((seed, job_id))``.
Built job by job, that generator's ``SeedSequence`` hash costs far more
than the draw, so a whole trace is seeded at once: :func:`_seed_states`
restates the hash as ``uint32`` array arithmetic over every job id, and
each job's draw then runs on numpy's own ``PCG64`` and ``Generator``
from its precomputed state -- the same floats, bit for bit.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core.hardware import pai_default_hardware
from ..core.population import FeatureArrays, batch_step_times
from ..trace.schema import JobRecord

__all__ = ["ModelRuntimePredictor", "sample_durations"]

_SECONDS_PER_HOUR = 3600.0

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_UINT64 = np.dtype(np.uint64)


def _check_seed(seed: int) -> int:
    """``seed`` as an int, rejected here rather than deep inside numpy."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _int_words(value: int) -> List[int]:
    """``value``'s 32-bit words, least significant first, as
    ``SeedSequence`` splits an int entropy word (zero is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant, as endless ``(xor,
    multiply)`` pairs: each hash xors in the constant, then advances it
    by ``mult`` and multiplies by the new one."""
    const = init
    while True:
        xor = const
        const = const * mult & _MASK32
        yield np.uint32(xor), np.uint32(const)


def _hash(value: np.ndarray, constants) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``uint32`` words, taking the next
    pair from ``constants``."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two ``uint32`` word arrays."""
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


def _mix_entropy(entropy: np.ndarray) -> List[np.ndarray]:
    """SeedSequence's ``mix_entropy`` for rows of equally long entropy:
    the four pool words of every row."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    rows, length = entropy.shape
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [
        _hash(entropy[:, i] if i < length else zeros, constants)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(entropy[:, src], constants))
    return pool


def _generate_state(pool: List[np.ndarray]) -> np.ndarray:
    """SeedSequence's ``generate_state(4, np.uint64)`` from the pool
    words of every row: eight hashed ``uint32`` words, joined in pairs
    as ``low | high << 32`` the way numpy joins them."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [
        _hash(pool[i % _POOL_SIZE], constants).astype(np.uint64)
        for i in range(8)
    ]
    return np.stack(
        [words[i] | (words[i + 1] << np.uint64(32)) for i in range(0, 8, 2)],
        axis=1,
    )


def _seed_states(seed: int, job_ids: Sequence[int]) -> np.ndarray:
    """``SeedSequence((seed, job_id)).generate_state(4, np.uint64)`` for
    every job id at once, one C-contiguous ``(len(job_ids), 4)`` row each.

    SeedSequence hashes the entropy's 32-bit words, least significant
    first, and an int is as many words as reach its highest non-zero
    one (zero is one word): an id of 2**32 or more is two, and a seed
    can be several.  Rows are grouped by their id's word count and each
    group is hashed as ``uint32`` columns.

    Raises:
        ValueError: A job id is negative (as SeedSequence would).
    """
    ids = np.array(job_ids, dtype=object)
    states = np.empty((len(ids), 4), dtype=np.uint64)
    if not len(ids):
        return states
    if ids.min() < 0:
        raise ValueError("expected non-negative integer")
    width = max(1, (int(ids.max()).bit_length() + 31) // 32)
    shifted = [ids >> 32 * k for k in range(width)]
    id_words = np.stack(
        [(part & _MASK32).astype(np.uint32) for part in shifted], axis=1
    )
    spans = np.ones(len(ids), dtype=np.int64)
    for part in shifted[1:]:
        spans += part != 0
    seed_words = np.array(_int_words(seed), dtype=np.uint32)
    with np.errstate(over="ignore"):
        for span in np.unique(spans).tolist():
            rows = np.flatnonzero(spans == span)
            entropy = np.concatenate(
                [np.tile(seed_words, (len(rows), 1)), id_words[rows, :span]],
                axis=1,
            )
            states[rows] = _generate_state(_mix_entropy(entropy))
    return states


class _PresetSeedSequence:
    """One job's precomputed PCG64 seed, served as a seed sequence.

    ``PCG64`` asks its seed sequence for ``generate_state(4,
    np.uint64)`` and nothing else; any other request raises rather than
    returning words that would not match ``SeedSequence``.
    :func:`_lognormals` registers the class as a
    ``numpy.random.bit_generator.ISeedSequence``, which ``PCG64``
    requires of a seed sequence it does not build itself.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != _UINT64:
            raise ValueError("only a PCG64 seed (4 uint64 words) is precomputed")
        return self._state


def _lognormals(
    seed: int, job_ids: Sequence[int], mean: float, sigma: float
) -> List[float]:
    """``default_rng((seed, job_id)).lognormal(mean, sigma)`` per job id,
    bit-identical, with the seeding hash done for all ids in one pass."""
    # Imported here, not with the module: loading numpy.random costs a
    # process that imports the scheduler but never draws (the service)
    # a few MB of memory.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_PresetSeedSequence)
    return [
        Generator(PCG64(_PresetSeedSequence(state))).lognormal(mean, sigma)
        for state in _seed_states(seed, job_ids)
    ]


def sample_durations(
    jobs: Iterable[JobRecord],
    median_hours: float = 2.0,
    sigma: float = 1.2,
    seed: int = 7,
) -> Dict[int, float]:
    """Deterministic per-job log-normal runtimes, keyed by job id.

    Each is ``default_rng((seed, job_id)).lognormal(log(median_hours),
    sigma)``, bit for bit, with the whole trace seeded in one pass.

    Raises:
        ValueError: ``median_hours`` or ``sigma`` is out of range, or
            ``seed`` is negative.
        TypeError: ``seed`` is not an integer.
    """
    if not 0 < median_hours < math.inf:
        raise ValueError("median_hours must be positive and finite")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be non-negative and finite")
    seed = _check_seed(seed)
    job_ids = [job.job_id for job in jobs]
    return dict(
        zip(job_ids, _lognormals(seed, job_ids, math.log(median_hours), sigma))
    )


class ModelRuntimePredictor:
    """Predict job durations as step time x sampled step count.

    The per-step time comes from the paper's analytical model under its
    own configuration (Table I hardware, the uniform 70% efficiency of
    Sec. II-B, the default model options); the step count is drawn
    log-normal per ``(seed, job_id)`` so that re-deploying the *same*
    job under a different architecture (a what-if projection) keeps its
    training-step budget while changing its speed.

    Raises:
        ValueError: A parameter is out of range, or ``seed`` is
            negative.
        TypeError: ``seed`` is not an integer.
    """

    def __init__(
        self,
        median_steps: float = 20000.0,
        sigma: float = 1.1,
        seed: int = 7,
        max_hours: Optional[float] = 168.0,
    ) -> None:
        if not 0 < median_steps < math.inf:
            raise ValueError("median_steps must be positive and finite")
        if not 0 <= sigma < math.inf:
            raise ValueError("sigma must be non-negative and finite")
        if max_hours is not None and not 0 < max_hours < math.inf:
            raise ValueError("max_hours must be positive and finite")
        seed = _check_seed(seed)
        self.median_steps = median_steps
        self.sigma = sigma
        self.seed = seed
        # A float, so a clamped duration is a float.
        self.max_hours = None if max_hours is None else float(max_hours)

    def durations(self, jobs: Iterable[JobRecord]) -> Dict[int, float]:
        """Predicted durations for a whole trace, keyed by job id."""
        return self.batch_duration_hours(list(jobs))

    def batch_duration_hours(self, jobs: Sequence[JobRecord]) -> Dict[int, float]:
        """Predicted wall-clock durations of a batch, in hours, by job id.

        Each is the job's step time, from
        :func:`repro.core.population.batch_step_times` over the batch's
        feature columns, times its step budget,
        ``default_rng((seed, job_id)).lognormal(log(median_steps),
        sigma)`` drawn for every job id in one seeding pass.

        Clamped to ``max_hours`` when set: production clusters bound
        job lifetimes (checkpoints plus kill policies), and the
        log-normal tail would otherwise let one straggler dominate the
        fleet makespan.
        """
        jobs = list(jobs)
        if not jobs:
            return {}
        arrays = FeatureArrays.from_workloads([job.features for job in jobs])
        step_times = batch_step_times(arrays, pai_default_hardware())
        job_ids = [job.job_id for job in jobs]
        budgets = _lognormals(
            self.seed, job_ids, math.log(self.median_steps), self.sigma
        )
        hours = step_times * np.array(budgets) / _SECONDS_PER_HOUR
        if self.max_hours is not None:
            hours = np.minimum(hours, self.max_hours)
        return dict(zip(job_ids, hours.tolist()))
